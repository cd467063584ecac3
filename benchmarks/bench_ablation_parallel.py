"""Ablation A3 — the parallel substrate (paper §2.5).

Ringo's performance rests on OpenMP parallel loops over 80 hyperthreads.
The Python analogue is the :class:`WorkerPool`; this bench runs triangle
counting, the numpy-bound kernel it parallelises, at several worker
counts, recording wall-clock and verifying the count is identical for
every pool size: once per fresh snapshot (projection, forward adjacency
and kernel, as Table 3 times it), and once for the kernel alone over a
projection whose forward adjacency is already built. The conversions
are one serial numpy gather each and have no pool to vary
(EXPERIMENTS.md, A3).

On a single-core host the curve is flat — the recorded table then
documents pool overhead rather than speedup, and the equivalence
assertions still exercise the concurrency machinery.
"""

import pytest

from benchmarks.util import record, reset
from repro.algorithms.triangles import total_triangles, triangle_count_array
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import WorkerPool

WORKER_COUNTS = (1, 2, 4)
KERNEL_ROUNDS = 7

_reference: dict[str, object] = {}


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a3_parallel_triangles(benchmark, workers, lj_graph):
    def fresh_snapshot():
        # The graph's cached snapshot keeps the count the first round
        # made; an uncached snapshot makes every round run the kernel.
        return (CSRGraph.from_graph(lj_graph),), {}

    def run(csr):
        with WorkerPool(workers) as pool:
            return total_triangles(csr, pool=pool)

    count = benchmark.pedantic(run, setup=fresh_snapshot, rounds=1, iterations=1)

    elapsed = benchmark.stats.stats.mean
    if workers == 1:
        reset(
            "ablation_a3",
            "A3: worker-pool scaling (lj-scaled; kernel rows: median of "
            f"{KERNEL_ROUNDS} on a pre-built projection)",
        )
        record("ablation_a3", f"{'Operation':<22} {'workers':>8} {'seconds':>9}")
        _reference["triangles"] = count
    record("ablation_a3", f"{'triangle counting':<22} {workers:>8} {elapsed:>9.3f}")
    assert count == _reference["triangles"]


@pytest.fixture(scope="module")
def lj_projection(lj_graph):
    """lj-scaled's projection, forward adjacency built, nothing counted."""
    sym = CSRGraph.from_graph(lj_graph).undirected_projection()
    sym.forward_adjacency()
    return sym


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a3_triangle_kernel(benchmark, workers, lj_projection):
    with WorkerPool(workers) as pool:
        counts = benchmark.pedantic(
            triangle_count_array, args=(lj_projection,), kwargs={"pool": pool},
            rounds=KERNEL_ROUNDS, iterations=1,
        )
    elapsed = benchmark.stats.stats.median
    record("ablation_a3", f"{'triangle kernel':<22} {workers:>8} {elapsed:>9.3f}")
    assert int(counts.sum()) // 3 == _reference["triangles"]
