"""Parallel-execution substrate mirroring Ringo's OpenMP layer (paper §2.5).

Ringo parallelises critical loops with OpenMP threads inside one
big-memory process and relies on two concurrent containers: an
open-addressing hash table with linear probing and a vector supporting
atomic-claim insertion. This package rebuilds those pieces for Python:

* :class:`WorkerPool` — the session's thread pool. Its one call,
  ``map_chunks``, runs a kernel once per pre-cut chunk, inline with one
  worker. Threads help when the kernel releases the GIL, i.e. when it is
  numpy-bound, exactly the bulk work OpenMP covers in the paper. The
  triangle and WCC kernels run on it; PageRank's full-vector scatter
  needs no pool.
* :func:`split_range` — contention-free range partitioning, the way
  Ringo assigns graph partitions to worker threads.

The §2.5 concurrent containers live in their own submodules, which the
package does not import (no kernel uses them):

* :mod:`repro.parallel.concurrent_hash` — ``LinearProbingHashTable``,
  open addressing + linear probing (paper's choice, after Lang et al.).
* :mod:`repro.parallel.concurrent_vector` — ``ConcurrentVector``, append
  via an atomically claimed cell index.
* :mod:`repro.parallel.atomics` — ``AtomicCounter``, the atomic
  fetch-and-add primitive both rely on.
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
