"""Worker pool standing in for Ringo's OpenMP parallel loops.

Ringo parallelises "critical loops in the code for full utilization of our
target multi-core platforms" (§2.5). In this reproduction those loops are
expressed as a kernel applied to disjoint range partitions, run either
serially or on a thread pool. Threads speed the numpy-bound kernels (which
release the GIL) and faithfully exercise the concurrency of the
paper's concurrent containers for the pure-Python ones.

Unlike an OpenMP loop inside a short-lived process, this pool lives for
the whole interactive session, so it carries the execution semantics a
wedged or failing kernel needs:

* **deadlines** — every mapping call takes ``timeout=`` seconds; on
  expiry outstanding partition futures are cancelled and
  :class:`WorkerTimeoutError` is raised.
* **first-error cancellation** — when one partition fails, pending
  sibling partitions are cancelled instead of being joined in
  submission order.
* **retries** — kernels raising :class:`TransientError` are re-attempted
  under the pool's :class:`RetryPolicy` (if one is configured).
* **graceful degradation** — after ``degrade_after`` consecutive failed
  parallel calls the pool downgrades itself to serial inline execution
  and records the downgrade in :attr:`WorkerPool.stats`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from repro.exceptions import PoolClosedError, RingoError, WorkerTimeoutError
from repro.faults import fault_point
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.spans import current_span_id
from repro.obs.spans import enabled as _tracing_enabled
from repro.obs.spans import trace
from repro.parallel.partition import split_range
from repro.parallel.resilience import PoolStats, RetryPolicy, run_with_retry
from repro.util.validation import check_positive

R = TypeVar("R")
T = TypeVar("T")

_DEFAULT_WORKERS_ENV = "REPRO_WORKERS"


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
    """Applies kernels over range partitions, serially or with threads.

    A pool with one worker runs everything inline on the calling thread,
    which keeps single-threaded benchmarks (paper Table 6) free of pool
    overhead and makes ``WorkerPool(1)`` the deterministic default for tests.

    ``retry_policy`` arms transparent re-attempts of kernels that raise
    :class:`TransientError`; ``degrade_after`` sets how many consecutive
    failed parallel calls flip the pool into serial-only mode (``None``
    disables degradation).

    >>> pool = WorkerPool(2)
    >>> pool.map_range(10, lambda lo, hi: sum(range(lo, hi)))
    [10, 35]
    >>> pool.close()
    """

    def __init__(
        self,
        workers: int | None = None,
        retry_policy: RetryPolicy | None = None,
        degrade_after: int | None = 3,
    ) -> None:
        self.workers = effective_worker_count(workers)
        self.retry_policy = retry_policy
        if degrade_after is not None:
            check_positive(degrade_after, "degrade_after")
        self.degrade_after = degrade_after
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

    # ------------------------------------------------------------------
    # Mapping API
    # ------------------------------------------------------------------

    def map_range(
        self,
        total: int,
        kernel: Callable[[int, int], R],
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> list[R]:
        """Run ``kernel(lo, hi)`` over a partition of ``range(total)``.

        Returns per-partition results in partition order, so a caller can
        combine them deterministically (e.g. summing per-partition triangle
        counts) regardless of completion order.
        """
        spans = split_range(total, self.workers)
        return self._execute(
            [lambda lo=lo, hi=hi: kernel(lo, hi) for lo, hi in spans],
            timeout=timeout,
            retry=retry,
        )

    def map_chunks(
        self,
        chunks: Sequence[T],
        kernel: Callable[[T], R],
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> list[R]:
        """Run ``kernel`` once per pre-computed chunk (e.g. balanced bins)."""
        return self._execute(
            [lambda chunk=chunk: kernel(chunk) for chunk in chunks],
            timeout=timeout,
            retry=retry,
        )

    def run_tasks(
        self,
        tasks: Sequence[Callable[[], R]],
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> list[R]:
        """Run independent zero-argument tasks, returning results in order."""
        return self._execute(list(tasks), timeout=timeout, retry=retry)

    # ------------------------------------------------------------------
    # Execution core
    # ------------------------------------------------------------------

    def _execute(
        self,
        tasks: list[Callable[[], R]],
        timeout: float | None,
        retry: RetryPolicy | None,
    ) -> list[R]:
        if self._closed:
            raise PoolClosedError(self.workers)
        self.stats.record_call()
        policy = retry if retry is not None else self.retry_policy
        run_parallel = (
            self._executor is not None
            and len(tasks) > 1
            and not self.stats.degraded
        )
        if not run_parallel:
            if self.stats.degraded and self._executor is not None and len(tasks) > 1:
                self.stats.record_serial_fallback()
            return self._run_inline(tasks, timeout, policy)
        try:
            results = self._run_parallel(tasks, timeout, policy)
        except WorkerTimeoutError:
            # A deadline expiry is the caller's kernel being slow, not
            # evidence the parallel substrate is unhealthy.
            raise
        except Exception:
            self._note_parallel_failure()
            raise
        self._failure_streak = 0
        return results

    def _run_inline(
        self,
        tasks: list[Callable[[], R]],
        timeout: float | None,
        policy: RetryPolicy | None,
    ) -> list[R]:
        # Inline execution cannot preempt a running kernel, but it still
        # honours the deadline between tasks so a multi-part call cannot
        # overrun it unboundedly.
        deadline = None if timeout is None else time.monotonic() + timeout
        results: list[R] = []
        for index, task in enumerate(tasks):
            if deadline is not None and time.monotonic() > deadline:
                self.stats.record_timeout(cancelled=0)
                raise WorkerTimeoutError(timeout, pending=len(tasks) - index, cancelled=0)
            with trace("pool.kernel", partition=index, inline=True):
                if policy is None:
                    results.append(task())
                else:
                    results.append(
                        run_with_retry(task, policy, on_retry=self.stats.record_retry)
                    )
        if _tracing_enabled():
            _metrics_registry().counter("pool.dispatches_total").inc(len(tasks))
        return results

    def _run_parallel(
        self,
        tasks: list[Callable[[], R]],
        timeout: float | None,
        policy: RetryPolicy | None,
    ) -> list[R]:
        # Worker kernels run on pool threads, whose span stacks are empty;
        # capture the submitting thread's open span so each per-worker
        # child span nests under the operation that dispatched it.
        parent = current_span_id()

        def dispatch(task: Callable[[], R], index: int) -> R:
            def attempt() -> R:
                fault_point("parallel.kernel")
                return task()

            with trace("pool.kernel", _parent=parent, partition=index):
                if policy is None:
                    return attempt()
                return run_with_retry(
                    attempt, policy, on_retry=self.stats.record_retry
                )

        assert self._executor is not None
        if _tracing_enabled():
            reg = _metrics_registry()
            reg.counter("pool.dispatches_total").inc(len(tasks))
            reg.gauge("pool.queue_depth").add(len(tasks))
        try:
            futures: list[Future] = [
                self._executor.submit(dispatch, task, index)
                for index, task in enumerate(tasks)
            ]
            done, not_done = wait(futures, timeout=timeout, return_when=FIRST_EXCEPTION)
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
            if not_done:
                cancelled = sum(1 for future in not_done if future.cancel())
                self.stats.record_timeout(cancelled=cancelled)
                assert timeout is not None
                raise WorkerTimeoutError(
                    timeout, pending=len(not_done), cancelled=cancelled
                )
            return [future.result() for future in futures]
        finally:
            if _tracing_enabled():
                _metrics_registry().gauge("pool.queue_depth").add(-len(tasks))

    def _note_parallel_failure(self) -> None:
        if self.degrade_after is None:
            return
        self._failure_streak += 1
        if self._failure_streak >= self.degrade_after and not self.stats.degraded:
            self.stats.mark_degraded()


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
