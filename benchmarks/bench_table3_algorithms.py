"""Table 3 — parallel graph algorithms: PageRank and triangle counting.

Paper rows:
    Operation          LiveJournal   Twitter2010
    PageRank (10 it.)        2.76s         60.5s
    Triangle Counting        6.13s        263.6s

Shape claims checked here: PageRank (10 iterations) is faster than
triangle counting on the same graph, and both scale with dataset size
(tw-scaled slower than lj-scaled). The §3 footprint claim (X1) — the
working set of 10 PageRank iterations stays under twice the graph
snapshot's size — is also recorded.
"""

import pytest

from benchmarks.util import rate_m_per_s, record, reset, timed
from repro.algorithms.pagerank import pagerank_array
from repro.algorithms.triangles import total_triangles
from repro.graphs.csr import CSRGraph
from repro.memory.footprint import peak_footprint
from repro.memory.sizeof import format_bytes

PAPER = {
    "lj-scaled": {"pagerank": "2.76s", "triangles": "6.13s"},
    "tw-scaled": {"pagerank": "60.5s", "triangles": "263.6s"},
}

_measured: dict[tuple[str, str], float] = {}


@pytest.mark.parametrize("name", ["lj-scaled", "tw-scaled"])
def test_table3_pagerank_10_iterations(benchmark, name, lj_csr, tw_csr):
    csr = lj_csr if name == "lj-scaled" else tw_csr

    benchmark.pedantic(
        pagerank_array, args=(csr,), kwargs={"iterations": 10}, rounds=3, iterations=1
    )

    elapsed = benchmark.stats.stats.mean
    _measured[(name, "pagerank")] = elapsed
    if name == "lj-scaled":
        reset("table3", "Table 3: parallel graph algorithms")
        record("table3", f"{'Operation':<20} {'dataset':<10} {'paper':>8} {'ours':>10}")
    record(
        "table3",
        f"{'PageRank (10 it.)':<20} {name:<10} {PAPER[name]['pagerank']:>8} "
        f"{elapsed:>9.2f}s",
    )


@pytest.mark.parametrize("name", ["lj-scaled", "tw-scaled"])
def test_table3_triangle_counting(benchmark, name, lj_graph, tw_graph):
    graph = lj_graph if name == "lj-scaled" else tw_graph

    def fresh_snapshot():
        # The session's cached snapshot may already hold its triangle
        # count (ablation A3 fills it); timing that would time a cache
        # read. An uncached snapshot of the graph makes the round run
        # the projection and the kernel.
        return (CSRGraph.from_graph(graph),), {}

    count = benchmark.pedantic(
        total_triangles, setup=fresh_snapshot, rounds=1, iterations=1
    )

    elapsed = benchmark.stats.stats.mean
    _measured[(name, "triangles")] = elapsed
    record(
        "table3",
        f"{'Triangle Counting':<20} {name:<10} {PAPER[name]['triangles']:>8} "
        f"{elapsed:>9.2f}s  ({count} triangles)",
    )
    assert count > 0

    # Shape: triangles cost more than 10 PageRank iterations (paper:
    # 6.13 vs 2.76 on LJ, 263.6 vs 60.5 on TW).
    pagerank_time = _measured.get((name, "pagerank"))
    if pagerank_time is not None:
        assert elapsed > pagerank_time


def test_table3_x1_pagerank_footprint(benchmark, tw_csr):
    """§3 text: footprint of 10 PageRank iterations < 2x graph size."""

    def run():
        _, peak = peak_footprint(lambda: pagerank_array(tw_csr, iterations=10))
        return peak

    peak = benchmark.pedantic(run, rounds=1, iterations=1)

    graph_bytes = tw_csr.memory_bytes()
    ratio = peak / graph_bytes
    record(
        "table3",
        f"X1 footprint: PageRank peak {format_bytes(peak)} on "
        f"{format_bytes(graph_bytes)} graph = {ratio:.2f}x (paper: <2x)",
    )
    assert ratio < 2.0
