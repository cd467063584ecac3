"""Worker pool standing in for Ringo's OpenMP parallel loops.

Ringo parallelises "critical loops in the code for full utilization of our
target multi-core platforms" (§2.5). In this reproduction those loops are
expressed as a kernel applied to disjoint range partitions, run either
serially or on a thread pool. Threads speed the numpy-bound kernels (which
release the GIL) and faithfully exercise the concurrency of the
paper's concurrent containers for the pure-Python ones.

Unlike an OpenMP loop inside a short-lived process, this pool lives for
the whole interactive session, so it carries the execution semantics a
failing kernel needs. Its one mapping call, :meth:`WorkerPool.map_chunks`,
runs a kernel once per pre-cut chunk and returns the results in chunk
order, with:

* **first-error cancellation** — when one chunk fails, pending sibling
  chunks are cancelled instead of being joined in submission order.
* **retries** — kernels raising :class:`TransientError` are re-attempted
  under the pool's :class:`RetryPolicy` (if one is configured).
* **graceful degradation** — after :data:`DEGRADE_AFTER` consecutive
  failed parallel calls the pool downgrades itself to serial inline
  execution and records the downgrade in :attr:`WorkerPool.stats`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from functools import partial
from typing import Callable, Sequence, TypeVar

from repro.exceptions import PoolClosedError, RingoError
from repro.faults import fault_point
from repro.obs.metrics import count
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import current_span_id
from repro.obs.spans import enabled as _tracing_enabled
from repro.obs.spans import trace
from repro.parallel.resilience import PoolStats, RetryPolicy, run_with_retry
from repro.util.validation import check_positive

R = TypeVar("R")
T = TypeVar("T")

_DEFAULT_WORKERS_ENV = "REPRO_WORKERS"

#: Consecutive failed parallel calls after which a pool runs serially.
DEGRADE_AFTER = 3


def machine_cpu_count() -> int:
    """CPUs actually usable by this process, not just present.

    Prefers ``os.process_cpu_count`` (3.13+), then the scheduler
    affinity mask — the number that matters in cgroup-pinned CI
    containers — then ``os.cpu_count()``. Always >= 1.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:  # pragma: no cover - 3.13+
        return getter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def effective_worker_count(workers: int | None = None) -> int:
    """Resolve a worker count.

    ``None`` means "use the machine": the ``REPRO_WORKERS`` environment
    variable if set, otherwise the usable-CPU count. Machine-derived
    defaults (env or autodetect) are capped at
    :func:`machine_cpu_count` so a containerized CI runner cannot
    oversubscribe the pool; an explicit ``workers`` argument is
    taken verbatim (callers asking for more threads than cores — e.g.
    latency-hiding IO pools — know what they want). The result is
    always >= 1.
    """
    if workers is not None:
        check_positive(workers, "workers")
        return workers
    env = os.environ.get(_DEFAULT_WORKERS_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise RingoError(
                f"{_DEFAULT_WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
        check_positive(value, _DEFAULT_WORKERS_ENV)
        return min(value, machine_cpu_count())
    return machine_cpu_count()


class WorkerPool:
    """Applies a kernel over pre-cut chunks, serially or with threads.

    A pool with one worker runs everything inline on the calling thread,
    which keeps single-threaded benchmarks (paper Table 6) free of pool
    overhead and makes ``WorkerPool(1)`` the deterministic default for tests.

    ``retry_policy`` arms transparent re-attempts of kernels that raise
    :class:`TransientError`.

    >>> pool = WorkerPool(2)
    >>> pool.map_chunks([(0, 5), (5, 10)], lambda span: sum(range(*span)))
    [10, 35]
    >>> pool.close()
    """

    def __init__(
        self, workers: int | None = None, retry_policy: RetryPolicy | None = None
    ) -> None:
        self.workers = effective_worker_count(workers)
        self.retry_policy = retry_policy
        self.stats = PoolStats()
        self._closed = False
        self._failure_streak = 0
        self._executor: ThreadPoolExecutor | None = None
        if self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-worker"
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def degraded(self) -> bool:
        """Whether repeated parallel failures downgraded the pool to serial."""
        return self.stats.degraded

    def close(self) -> None:
        """Shut down the underlying thread pool, if any (idempotent)."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def map_chunks(self, chunks: Sequence[T], kernel: Callable[[T], R]) -> list[R]:
        """Run ``kernel(chunk)`` once per chunk; results come back in chunk order.

        The caller cuts the chunks (:func:`~repro.parallel.partition.split_range`
        spans, triangle wedge blocks), so it can combine per-chunk results
        deterministically regardless of completion order.
        """
        if self._closed:
            raise PoolClosedError(self.workers)
        self.stats.record_call()
        parallel = self._executor is not None and len(chunks) > 1
        if parallel and self.stats.degraded:
            self.stats.record_serial_fallback()
            parallel = False
        if not parallel:
            return self._run_inline(chunks, kernel)
        try:
            results = self._run_parallel(chunks, kernel)
        except Exception:
            self._failure_streak += 1
            if self._failure_streak >= DEGRADE_AFTER and not self.stats.degraded:
                self.stats.mark_degraded()
            raise
        self._failure_streak = 0
        return results

    def _attempt(self, task: Callable[[], R]) -> R:
        if self.retry_policy is None:
            return task()
        return run_with_retry(task, self.retry_policy, on_retry=self.stats.record_retry)

    def _run_inline(self, chunks: Sequence[T], kernel: Callable[[T], R]) -> list[R]:
        results: list[R] = []
        for index, chunk in enumerate(chunks):
            with trace("pool.kernel", partition=index, inline=True):
                results.append(self._attempt(partial(kernel, chunk)))
        count("pool.dispatches_total", len(chunks))
        return results

    def _run_parallel(self, chunks: Sequence[T], kernel: Callable[[T], R]) -> list[R]:
        # Worker kernels run on pool threads, whose span stacks are empty;
        # capture the submitting thread's open span so each per-worker
        # child span nests under the operation that dispatched it.
        parent = current_span_id()

        def faulty_kernel(chunk: T) -> R:
            fault_point("parallel.kernel")
            return kernel(chunk)

        def dispatch(index: int, chunk: T) -> R:
            with trace("pool.kernel", _parent=parent, partition=index):
                return self._attempt(partial(faulty_kernel, chunk))

        assert self._executor is not None
        count("pool.dispatches_total", len(chunks))
        if _tracing_enabled():
            _metrics_registry().gauge("pool.queue_depth").add(len(chunks))
        try:
            futures: list[Future] = [
                self._executor.submit(dispatch, index, chunk)
                for index, chunk in enumerate(chunks)
            ]
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            failed = next(
                (f for f in futures if f in done and f.exception() is not None), None
            )
            if failed is not None:
                cancelled = sum(1 for future in not_done if future.cancel())
                self.stats.record_failure(cancelled=cancelled)
                # Let still-running siblings drain so their writes cannot race
                # the caller's error handling.
                wait(futures)
                raise failed.exception()
            return [future.result() for future in futures]
        finally:
            if _tracing_enabled():
                _metrics_registry().gauge("pool.queue_depth").add(-len(chunks))


_SERIAL_POOL: WorkerPool | None = None
_SERIAL_POOL_LOCK = threading.Lock()


def serial_pool() -> WorkerPool:
    """A shared single-worker pool for callers that want inline execution.

    Construction is lock-guarded so two threads racing the first call
    cannot build two pools; the shared instance is never closed.
    """
    global _SERIAL_POOL
    if _SERIAL_POOL is None:
        with _SERIAL_POOL_LOCK:
            if _SERIAL_POOL is None:
                _SERIAL_POOL = WorkerPool(1)
    return _SERIAL_POOL
