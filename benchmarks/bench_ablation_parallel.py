"""Ablation A3 — the parallel substrate (paper §2.5).

Ringo's performance rests on OpenMP parallel loops over 80 hyperthreads.
The Python analogue is the :class:`WorkerPool`; this bench runs triangle
counting, the numpy-bound kernel it parallelises, at several worker
counts, recording wall-clock and verifying the count is identical for
every pool size. The conversions are one serial numpy gather each and
have no pool to vary (EXPERIMENTS.md, A3).

On a single-core host the curve is flat — the recorded table then
documents pool overhead rather than speedup, and the equivalence
assertions still exercise the concurrency machinery.
"""

import pytest

from benchmarks.util import record, reset
from repro.algorithms.triangles import total_triangles
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import WorkerPool

WORKER_COUNTS = (1, 2, 4)

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
        reset("ablation_a3", "A3: worker-pool scaling (lj-scaled)")
        record("ablation_a3", f"{'Operation':<22} {'workers':>8} {'seconds':>9}")
        _reference["triangles"] = count
    record("ablation_a3", f"{'triangle counting':<22} {workers:>8} {elapsed:>9.3f}")
    assert count == _reference["triangles"]
