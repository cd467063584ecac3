"""Parallel-execution substrate mirroring Ringo's OpenMP layer (paper §2.5).

Ringo parallelises critical loops with OpenMP threads inside one
big-memory process. This package rebuilds that layer for Python:

* :class:`WorkerPool` — the session's thread pool. Its one call,
  ``map_chunks``, runs a kernel once per pre-cut chunk, inline with one
  worker. Threads help when the kernel releases the GIL, i.e. when it is
  numpy-bound, exactly the bulk work OpenMP covers in the paper. The
  triangle and WCC kernels run on it; PageRank's full-vector scatter
  needs no pool.
* :func:`split_range` — contention-free range partitioning, the way
  Ringo assigns graph partitions to worker threads.

The paper's two §2.5 concurrent containers have no counterpart here.
Its open-addressing node hash table is the graph's CPython dict
(:mod:`repro.graphs.base`), itself an open-addressing table; writes
into disjoint pre-allocated spans and the sort-first converter's whole
blocks take the place of claiming vector slots by atomic increment.
"""

from repro.parallel.executor import (
    WorkerPool,
    effective_worker_count,
    machine_cpu_count,
)
from repro.parallel.partition import split_range
from repro.parallel.resilience import PoolStats, RetryPolicy, run_with_retry

__all__ = [
    "PoolStats",
    "RetryPolicy",
    "WorkerPool",
    "effective_worker_count",
    "machine_cpu_count",
    "run_with_retry",
    "split_range",
]
