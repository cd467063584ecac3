"""Retry and degradation primitives for the worker pool.

The SNAP/OpenMP back-end the paper builds on gets fault containment for
free from process isolation; a long-lived interactive Python session
does not. This module supplies the policy objects the hardened
:class:`~repro.parallel.executor.WorkerPool` executes under:

* :class:`RetryPolicy` — exponential backoff with deterministic jitter,
  applied to kernels that raise :class:`TransientError`.
* :func:`run_with_retry` — the attempt loop itself, usable standalone.
* :class:`PoolStats` — thread-safe counters the pool publishes through
  ``Ringo.health()``: retries, cancellations, failures, downgrades.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.exceptions import RetryExhaustedError, TransientError
from repro.obs.metrics import count
from repro.obs.spans import enabled as _tracing_enabled
from repro.obs.spans import event as _obs_event
from repro.util.validation import check_positive

R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) to re-attempt transient kernel failures.

    Attempt ``n`` (1-based) sleeps ``base_delay * 2**(n-1)`` scaled by a
    deterministic jitter factor in ``[1, 1 + jitter]`` and capped at
    ``max_delay``. Only exceptions in ``retryable`` are re-attempted;
    anything else propagates on the first throw.

    >>> RetryPolicy(max_attempts=3).delay(1) >= 0.0
    True
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 1.0
    jitter: float = 0.5
    seed: int = 0
    retryable: tuple = (TransientError,)

    def __post_init__(self) -> None:
        check_positive(self.max_attempts, "max_attempts")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempting after failure number ``attempt``."""
        base = self.base_delay * (2.0 ** (attempt - 1))
        # Deterministic jitter: a hash of (seed, attempt) rather than a
        # global RNG, so concurrent retries cannot perturb each other.
        rng = random.Random(self.seed * 2654435761 + attempt)
        return min(base * (1.0 + self.jitter * rng.random()), self.max_delay)

    def schedule(self) -> tuple[float, ...]:
        """Every backoff this policy would sleep, in attempt order.

        One delay per *re*-attempt (``max_attempts - 1`` entries), fully
        determined by the policy's fields — callers (and tests) can
        inspect the whole jittered schedule without running anything.
        """
        return tuple(self.delay(n) for n in range(1, self.max_attempts))


def run_with_retry(
    task: Callable[[], R],
    policy: RetryPolicy,
    on_retry: "Callable[[int, BaseException], None] | None" = None,
    sleep: Callable[[float], None] = time.sleep,
    metric_prefix: str = "pool",
) -> R:
    """Run ``task`` under ``policy``; raise :class:`RetryExhaustedError`
    (chained to the last failure) once attempts run out.

    ``on_retry(attempt, error)`` is invoked after each failed retryable
    attempt — the pool uses it to count retries for ``health()``.

    The attempt loop is shared policy, not pool policy: the worker pool
    runs kernels under it and the session service's dispatcher runs
    whole requests under it. ``metric_prefix`` keeps their telemetry
    apart (``pool.retries_total`` vs ``service.retries_total``).
    """
    last_error: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return task()
        except policy.retryable as error:
            last_error = error
            count(f"{metric_prefix}.retries_total")
            if _tracing_enabled():
                _obs_event(
                    f"{metric_prefix}.retry",
                    attempt=attempt,
                    error=type(error).__name__,
                )
            if on_retry is not None:
                on_retry(attempt, error)
            if attempt < policy.max_attempts:
                sleep(policy.delay(attempt))
    assert last_error is not None
    raise RetryExhaustedError(policy.max_attempts, last_error) from last_error


@dataclass
class PoolStats:
    """Counters a :class:`WorkerPool` accumulates across its lifetime."""

    calls: int = 0
    retries: int = 0
    cancelled_partitions: int = 0
    failures: int = 0
    serial_fallback_calls: int = 0
    degraded: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_retry(self, attempt: int, error: BaseException) -> None:
        with self._lock:
            self.retries += 1

    def record_call(self) -> None:
        with self._lock:
            self.calls += 1

    def record_failure(self, cancelled: int) -> None:
        with self._lock:
            self.failures += 1
            self.cancelled_partitions += cancelled

    def record_serial_fallback(self) -> None:
        with self._lock:
            self.serial_fallback_calls += 1

    def mark_degraded(self) -> None:
        with self._lock:
            self.degraded = True

    def snapshot(self) -> dict[str, object]:
        """A plain-dict copy for ``health()`` reporting."""
        with self._lock:
            return {
                "calls": self.calls,
                "retries": self.retries,
                "cancelled_partitions": self.cancelled_partitions,
                "failures": self.failures,
                "serial_fallback_calls": self.serial_fallback_calls,
                "degraded": self.degraded,
            }
