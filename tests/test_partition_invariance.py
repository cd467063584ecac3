"""Partition invariance of the kernels that run on the session's pool.

Triangles, WCC and PageRank each have one kernel. A worker pool only
changes how the nodes are split — triangles into wedge-capped blocks
dealt round-robin to the workers, WCC into one span per worker — and
PageRank's full-vector scatter takes no pool at all. None of that may
show in the answers: they are compared bit for bit across pool widths
and block caps against an inline run at the default cap.
"""

import networkx as nx
import numpy as np
import pytest

from repro import Ringo
from repro.algorithms import triangles
from repro.algorithms.components import wcc_label_array
from repro.algorithms.generators import rmat_edges
from repro.algorithms.pagerank import pagerank_array
from repro.faults import inject_faults
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import WorkerPool
from repro.parallel.resilience import RetryPolicy

PATH_NODES = 100_000
# The default cap; 2^14, which cuts the R-MAT (36 492 wedges, one block
# at the default cap) into three; and one small enough that R-MAT hubs
# each get a block of their own. (The path and the star root no wedges,
# since every forward degree there is at most one, so they stay one
# block.) Each with the default dense core, with none (every wedge
# closes by binary search) and with a core of the top eight ranks (both
# tests).
CAPS = [
    pytest.param(cap, core, id=str(cap) + ("" if core == triangles.CORE_RANKS else f"-core{core}"))
    for cap in (triangles.MAX_BLOCK_WEDGES, 1 << 14, 1 << 8)
    for core in (triangles.CORE_RANKS, 0, 8)
]
WIDTHS = [1, 2, 3]


def _single_node() -> CSRGraph:
    zeros = np.zeros(2, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    return CSRGraph(np.array([7]), zeros, empty, zeros, empty)


GRAPHS = {
    "rmat": lambda: CSRGraph.from_edges(*rmat_edges(10, 8_000, seed=2015)),
    "star": lambda: CSRGraph.from_edges(np.zeros(500, dtype=np.int64), np.arange(1, 501)),
    "path": lambda: CSRGraph.from_edges(np.arange(PATH_NODES - 1), np.arange(1, PATH_NODES)),
    "single": _single_node,
    "empty": lambda: CSRGraph.from_edges([], []),
}


def _answers(csr: CSRGraph, pool) -> dict:
    answers = {
        "triangles": triangles.triangle_count_array(csr.undirected_projection(), pool=pool),
        "wcc": wcc_label_array(csr, pool=pool),
    }
    if csr.num_nodes:
        answers["pagerank"] = pagerank_array(csr)
    return answers


@pytest.fixture(scope="module")
def csrs():
    return {name: build() for name, build in GRAPHS.items()}


@pytest.fixture(scope="module")
def references(csrs):
    return {name: _answers(csr, None) for name, csr in csrs.items()}


@pytest.fixture(scope="module")
def pools():
    made = {width: WorkerPool(width) for width in WIDTHS}
    yield made
    for pool in made.values():
        pool.close()


def _assert_bitwise_equal(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for kernel, array in want.items():
        assert got[kernel].dtype == array.dtype, kernel
        assert got[kernel].tobytes() == array.tobytes(), kernel


@pytest.mark.parametrize("cap, core", CAPS)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_answers_are_partition_invariant(
    graph, width, cap, core, csrs, references, pools, monkeypatch
):
    monkeypatch.setattr(triangles, "MAX_BLOCK_WEDGES", cap)
    monkeypatch.setattr(triangles, "CORE_RANKS", core)
    _assert_bitwise_equal(_answers(csrs[graph], pools[width]), references[graph])


def _union_find_labels(csr: CSRGraph) -> np.ndarray:
    parent = list(range(csr.num_nodes))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for src, dst in zip(csr.edge_sources().tolist(), csr.out_indices.tolist()):
        low, high = sorted((find(src), find(dst)))
        parent[high] = low
    roots = np.array([find(node) for node in range(csr.num_nodes)], dtype=np.int64)
    return np.searchsorted(np.unique(roots), roots)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_references_match_oracles(graph, csrs, references):
    csr, reference = csrs[graph], references[graph]
    np.testing.assert_array_equal(reference["wcc"], _union_find_labels(csr))
    if graph == "rmat":
        sym = csr.undirected_projection()
        oracle = nx.Graph()
        oracle.add_nodes_from(range(sym.num_nodes))
        oracle.add_edges_from(zip(sym.edge_sources().tolist(), sym.out_indices.tolist()))
        counts = nx.triangles(oracle)
        expected = np.array([counts[node] for node in range(sym.num_nodes)])
        np.testing.assert_array_equal(reference["triangles"], expected)
        assert reference["triangles"].sum() > 0
    else:
        assert not reference["triangles"].any()


def test_retried_worker_starts_a_fresh_partial(csrs, references, monkeypatch):
    monkeypatch.setattr(triangles, "MAX_BLOCK_WEDGES", 1 << 8)
    sym = csrs["rmat"].undirected_projection()
    policy = RetryPolicy(max_attempts=10, base_delay=0.0)
    with WorkerPool(3, retry_policy=policy) as pool:
        sites = {"parallel.kernel": {"rate": 1.0, "max_triggers": 2}}
        with inject_faults(sites, seed=7) as plan:
            counts = triangles.triangle_count_array(sym, pool=pool)
    assert plan.triggered["parallel.kernel"] == 2
    assert counts.tobytes() == references["rmat"]["triangles"].tobytes()


class TestWedgeBlocks:
    @staticmethod
    def _check(fdeg: np.ndarray, cap: int) -> None:
        findptr = np.concatenate(([0], np.cumsum(fdeg)))
        blocks = triangles._wedge_blocks(findptr, cap)
        edges = [lo for lo, _ in blocks] + [blocks[-1][1]] if blocks else [0]
        # Contiguous, non-empty, covering [0, n) exactly once.
        assert edges[0] == 0 and edges[-1] == len(fdeg)
        assert all(lo < hi for lo, hi in blocks)
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        for lo, hi in blocks:
            wedges = int((fdeg[lo:hi] * (fdeg[lo:hi] - 1) // 2).sum())
            assert wedges <= cap or hi - lo == 1

    @pytest.mark.parametrize("cap", [1, 7, 1 << 8, 1 << 14])
    def test_skewed_degrees(self, cap):
        rng = np.random.default_rng(cap)
        self._check(rng.zipf(1.8, size=3_000).clip(max=400) - 1, cap)

    def test_one_node_over_the_cap_is_its_own_block(self):
        fdeg = np.array([1, 1, 50, 1, 0, 0, 1])
        findptr = np.concatenate(([0], np.cumsum(fdeg)))
        assert triangles._wedge_blocks(findptr, 4) == [(0, 2), (2, 3), (3, 7)]
        self._check(fdeg, 4)

    def test_no_wedges_is_one_block(self):
        self._check(np.zeros(10, dtype=np.int64), 1)
        assert triangles._wedge_blocks(np.zeros(11, dtype=np.int64), 1) == [(0, 10)]

    def test_no_nodes_no_blocks(self):
        assert triangles._wedge_blocks(np.zeros(1, dtype=np.int64), 1) == []


class TestSessionPool:
    @staticmethod
    def _graph(session: Ringo):
        src, dst = rmat_edges(9, 3_000, seed=11)
        table = session.TableFromColumns({"src": src, "dst": dst})
        return session.ToGraph(table, "src", "dst")

    def test_session_width_does_not_change_answers(self):
        # Ringo() takes its width from REPRO_WORKERS or the machine; a
        # fresh graph per session keeps incremental state from carrying
        # answers across sessions.
        answers = []
        for workers in (1, None):
            with Ringo(workers=workers) as session:
                graph = self._graph(session)
                answers.append((
                    session.GetTriangleCounts(graph),
                    session.GetClusteringCoefficients(graph),
                    session.GetWcc(graph),
                    session.GetPageRank(graph),
                ))
        assert answers[0] == answers[1]

    def test_clustering_after_triangles_reuses_the_count(self):
        with Ringo(workers=2) as session:
            graph = self._graph(session)
            session.GetTriangles(graph)
            before = session.workers.stats.calls
            session.GetClusteringCoefficients(graph)
            assert session.workers.stats.calls == before

    def test_clustering_runs_on_the_session_pool(self):
        with Ringo(workers=2) as session:
            graph = self._graph(session)
            before = session.workers.stats.calls
            session.GetClusteringCoefficients(graph)
            assert session.workers.stats.calls == before + 1

    def test_health_parallel_shape(self):
        # benchmarks/e2e/wl_analytics.py reads
        # health()["parallel"]["decisions"]["threads"|"processes"].
        with Ringo(workers=2) as session:
            graph = self._graph(session)
            session.GetTriangles(graph)
            parallel = session.health()["parallel"]
        assert parallel == {
            "decisions": {"threads": parallel["decisions"]["threads"], "processes": 0}
        }
        assert parallel["decisions"]["threads"] >= 1
