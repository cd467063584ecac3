"""repro.obs — zero-dependency tracing, metrics, and profiling.

The observability layer the rest of the engine instruments itself with
(see ``docs/observability.md`` for the span taxonomy, metric names, and
sink formats). Three pieces:

* **spans** (:mod:`repro.obs.spans`) — nested, timestamped spans with
  wall time, peak-RSS delta, and tags. ``trace("name", key=value)`` is a
  context manager; tracing off costs one global check.
* **metrics** (:mod:`repro.obs.metrics`) — process-wide counters,
  gauges, and histograms (op latencies, cache hit ratio, rows/s and
  edges/s rates), surfaced through ``Ringo.health()["obs"]``.
* **sinks + profiling** (:mod:`repro.obs.sinks`,
  :mod:`repro.obs.profile`) — a bounded in-memory recorder by default,
  an append-only JSON-lines file sink, and the span-tree report behind
  ``Ringo.profile()``.

Entry points: ``Ringo(trace=True)``, the ``RINGO_TRACE`` environment
variable (``1`` for the in-memory recorder, a path for a JSON-lines
file), and the ``repro trace <script>`` CLI command.

This package imports nothing from the rest of ``repro`` — it sits at
the bottom of the import graph (like :mod:`repro.faults`) so every
layer can instrument itself without cycles.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    observe_rate,
    registry,
)
from repro.obs.profile import build_tree, render_profile
from repro.obs.sinks import (
    JsonlSink,
    RingBufferSink,
    validate_jsonl,
    validate_record,
)
from repro.obs.spans import (
    ENV_VAR,
    Span,
    Tracer,
    current_span,
    current_span_id,
    current_tracer,
    disable,
    enable,
    enable_from_env,
    enabled,
    env_enabled,
    env_setting,
    event,
    trace,
    traced,
)

__all__ = [
    "ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "RingBufferSink",
    "Span",
    "Tracer",
    "build_tree",
    "current_span",
    "current_span_id",
    "current_tracer",
    "disable",
    "enable",
    "enable_from_env",
    "enabled",
    "env_enabled",
    "env_setting",
    "event",
    "observe_rate",
    "registry",
    "render_profile",
    "trace",
    "traced",
    "validate_jsonl",
    "validate_record",
]
