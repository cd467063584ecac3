"""Process-wide metrics registry — counters, gauges, histograms.

The paper reports per-operator *rates* (Tables 2-6: rows/s for table
ops, edges/s for conversions); this registry is where the running system
accumulates the same units so ``Ringo.health()["obs"]`` can answer
"what throughput is this session actually getting?" without a benchmark
harness. Three metric kinds cover the engine's needs:

* :class:`Counter` — monotonically non-decreasing totals (kernels
  dispatched, rows converted, cache hits);
* :class:`Gauge` — last-write-wins instantaneous values (pool queue
  depth);
* :class:`Histogram` — streaming summaries of observations (operation
  latencies, rows/s per call) keeping count/sum/min/max plus a bounded
  reservoir of recent values for percentile estimates.

Everything is thread-safe and dependency-free. The module-level
:func:`registry` is the process-wide instance the instrumented code
writes to; tests build private :class:`MetricsRegistry` objects.
"""

from __future__ import annotations

import threading

from repro.obs.spans import enabled


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        """Add ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> "int | float":
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: "int | float" = 0

    def set(self, value: "int | float") -> None:
        with self._lock:
            self._value = value

    def add(self, delta: "int | float") -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> "int | float":
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A streaming summary of observations.

    Keeps exact count/sum/min/max and a fixed-size reservoir of the most
    recent ``reservoir`` observations for percentile estimates — bounded
    memory no matter how long the session runs.
    """

    __slots__ = ("name", "_lock", "_count", "_sum", "_min", "_max", "_recent", "_capacity")

    def __init__(self, name: str, reservoir: int = 256) -> None:
        if reservoir <= 0:
            raise ValueError(f"histogram reservoir must be positive, got {reservoir}")
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: "float | None" = None
        self._max: "float | None" = None
        self._recent: list[float] = []
        self._capacity = reservoir

    def observe(self, value: "int | float") -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._recent) >= self._capacity:
                # Overwrite round-robin: cheap, keeps the freshest window.
                self._recent[self._count % self._capacity] = value
            else:
                self._recent.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> "float | None":
        """Estimated ``q``-quantile over the recent-observation window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._recent:
                return None
            ordered = sorted(self._recent)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
            recent = list(self._recent)
        mean = total / count if count else None
        recent.sort()
        p50 = recent[len(recent) // 2] if recent else None
        p95 = recent[min(len(recent) - 1, int(0.95 * len(recent)))] if recent else None
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": mean,
            "p50": p50,
            "p95": p95,
        }


class MetricsRegistry:
    """Thread-safe name → metric map with get-or-create accessors.

    A name is permanently bound to its first kind; asking for the same
    name as a different kind is a programming error and raises.

    >>> registry = MetricsRegistry()
    >>> registry.counter("demo.total").inc(2)
    >>> registry.counter("demo.total").value
    2
    >>> registry.snapshot()["demo.total"]["value"]
    2
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, reservoir: int = 256) -> Histogram:
        return self._get_or_create(name, Histogram, reservoir=reservoir)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Plain-dict copy of every metric (safe to mutate or serialise)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def reset(self) -> None:
        """Drop every metric (tests and benchmark harnesses only)."""
        with self._lock:
            self._metrics.clear()


# The process-wide registry the instrumented call sites write to —
# process-wide for the same reason as the snapshot cache: one
# interactive session per process is the paper's deployment model.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def count(name: str, amount: int = 1) -> None:
    """Bump counter ``name`` only while tracing is armed, so untraced
    sessions leave the registry empty and pay one global check."""
    if enabled():
        _REGISTRY.counter(name).inc(amount)


def observe_rate(
    name: str, units: "int | float", seconds: float, registry_: "MetricsRegistry | None" = None
) -> None:
    """Record one throughput observation: a ``<name>_per_s`` histogram
    sample plus a ``<name>_total`` running counter.

    This is the helper behind the paper-styled rows/s and edges/s
    metrics; call sites gate on :func:`repro.obs.spans.enabled` so the
    untraced path stays free.
    """
    reg = registry_ if registry_ is not None else _REGISTRY
    reg.counter(f"{name}_total").inc(units)
    if seconds > 0:
        reg.histogram(f"{name}_per_s").observe(units / seconds)
