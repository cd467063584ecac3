"""Tracing spans — where the time (and memory) of an operation went.

Ringo's pitch is *interactive* analytics: the user sits at a Python
prompt while the engine executes table↔graph conversions and 200+ graph
functions behind each call (paper §2, §4.2 reports per-operator rates).
Knowing what a ``ToGraph`` actually did is therefore part of the system,
not an afterthought. This module provides the span primitive the rest of
the package instruments itself with::

    with trace("tograph.sort_first", rows=n) as span:
        ...                       # nested trace() calls become children
        span.set_tag("edges", m)  # tags may be added mid-span

Design rules, shared with :mod:`repro.faults`:

* **one module global** — ``_TRACER`` is ``None`` unless tracing is
  armed, so a disabled ``trace()`` costs a call, a load, and a compare
  (the overhead guard in the test suite holds it under 5µs);
* **zero dependencies** — this module imports nothing from the rest of
  the package, so every layer (tables, convert, parallel, algorithms)
  can instrument itself without import cycles;
* **thread-aware nesting** — each thread keeps its own span stack, and a
  parent span can be carried *across* threads explicitly (the worker
  pool passes its calling thread's span id so per-worker kernel spans
  nest under the dispatching operation).

Every finished span records wall time, the peak-RSS delta across the
span (``ru_maxrss``, so a conversion that grew the high-water mark shows
by how much), its thread, and its tags, then flows to the tracer's
sinks (:mod:`repro.obs.sinks`).
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, Iterator, Mapping

try:  # pragma: no cover - resource is POSIX-only
    import resource

    def _peak_rss_kb() -> int:
        """Process peak RSS in KiB (Linux ru_maxrss units)."""
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

except ImportError:  # pragma: no cover

    def _peak_rss_kb() -> int:
        return 0


ENV_VAR = "RINGO_TRACE"

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_VALUES = frozenset({"", "0", "false", "no", "off"})


class Span:
    """One timed operation: name, nesting ids, tags, wall time, RSS delta.

    Spans are created by :func:`trace` (never directly) and are live
    inside their ``with`` block; :meth:`set_tag` attaches facts that are
    only known mid-operation (row counts, cache verdicts).
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "thread",
        "tags",
        "start_s",
        "end_s",
        "rss_delta_kb",
        "_start_rss_kb",
    )

    def __init__(
        self, name: str, span_id: int, parent_id: "int | None", thread: str
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.tags: dict[str, object] = {}
        self.start_s = time.perf_counter()
        self.end_s: "float | None" = None
        self.rss_delta_kb = 0
        self._start_rss_kb = _peak_rss_kb()

    def set_tag(self, key: str, value: object) -> "Span":
        """Attach one ``key: value`` fact to the span (chainable)."""
        self.tags[key] = value
        return self

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds (to "now" while the span is still open)."""
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    def to_record(self) -> dict:
        """The span as the plain-dict record the sinks consume.

        This is the documented JSON-lines schema (docs/observability.md):
        ``name``, ``span_id``, ``parent_id``, ``thread``, ``start_s``,
        ``duration_s``, ``rss_delta_kb``, ``tags``.
        """
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "rss_delta_kb": self.rss_delta_kb,
            "tags": dict(self.tags),
        }


class Tracer:
    """Produces spans and routes finished ones to its sinks.

    ``sinks`` is any iterable of objects with a ``record(dict)`` method
    (see :mod:`repro.obs.sinks`); when omitted a default
    :class:`~repro.obs.sinks.RingBufferSink` is attached so
    ``Ringo.profile()`` always has something to render.
    """

    def __init__(self, sinks=None) -> None:
        if sinks is None:
            from repro.obs.sinks import RingBufferSink

            sinks = [RingBufferSink()]
        self.sinks = list(sinks)
        self._lock = threading.Lock()
        self._next_id = 1
        self._started = 0
        self._finished = 0
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start(
        self,
        name: str,
        tags: "Mapping[str, object] | None" = None,
        parent_id: "int | None" = None,
    ) -> Span:
        """Open a span; it nests under the calling thread's current span
        unless ``parent_id`` names one explicitly (cross-thread use)."""
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._started += 1
        span = Span(name, span_id, parent_id, threading.current_thread().name)
        if tags:
            span.tags.update(tags)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close a span and deliver its record to every sink."""
        span.end_s = time.perf_counter()
        span.rss_delta_kb = max(0, _peak_rss_kb() - span._start_rss_kb)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(span)
        with self._lock:
            self._finished += 1
        record = span.to_record()
        for sink in self.sinks:
            sink.record(record)

    def current(self) -> "Span | None":
        """The calling thread's innermost open span, or ``None``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- reporting -----------------------------------------------------

    def ring_records(self) -> list[dict]:
        """Records retained by the first ring-buffer sink (oldest first)."""
        from repro.obs.sinks import RingBufferSink

        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink.records()
        return []

    def stats(self) -> dict:
        """Span production counters for ``Ringo.health()["obs"]``."""
        with self._lock:
            started, finished = self._started, self._finished
        out: dict[str, object] = {"started": started, "finished": finished}
        from repro.obs.sinks import RingBufferSink

        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                out["recorded"] = sink.recorded
                out["dropped"] = sink.dropped
                break
        return out

    def close(self) -> None:
        """Close any closable sinks (flushes JSON-lines files)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


# The one module global the instrumented code reads. ``None`` means
# tracing is off everywhere; trace() then returns the shared no-op.
_TRACER: "Tracer | None" = None
_TRACER_LOCK = threading.Lock()


class _NullHandle:
    """Shared no-op stand-in for both a span handle and a span."""

    __slots__ = ()

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_tag(self, key: str, value: object) -> "_NullHandle":
        return self


_NULL = _NullHandle()


class _SpanHandle:
    """Context manager produced by :func:`trace` when tracing is armed."""

    __slots__ = ("_tracer", "_name", "_tags", "_parent_id", "_span")

    def __init__(self, tracer, name, tags, parent_id) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._parent_id = parent_id
        self._span: "Span | None" = None

    def __enter__(self) -> Span:
        self._span = self._tracer.start(
            self._name, self._tags, parent_id=self._parent_id
        )
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        assert self._span is not None
        if exc_info and exc_info[0] is not None:
            self._span.tags.setdefault("error", getattr(exc_info[0], "__name__", "error"))
        self._tracer.finish(self._span)
        return False


def trace(name: str, _parent: "int | None" = None, **tags):
    """Span context manager; a shared no-op when tracing is off.

    ``_parent`` carries an explicit parent span id across threads (the
    worker pool's per-worker child spans); everything else in ``tags``
    lands on the span.

    >>> with trace("noop.example"):   # tracing off: costs ~a dict + call
    ...     pass
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL
    return _SpanHandle(tracer, name, tags, _parent)


def event(name: str, _parent: "int | None" = None, **tags) -> None:
    """Record an instantaneous (zero-duration) span, e.g. a retry."""
    tracer = _TRACER
    if tracer is None:
        return
    span = tracer.start(name, tags, parent_id=_parent)
    tracer.finish(span)


def traced(name: str) -> Callable:
    """Decorator form of :func:`trace`; checks the global per call, so a
    function decorated while tracing is off stays zero-entry."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _TRACER is None:
                return fn(*args, **kwargs)
            with trace(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def current_span() -> "Span | None":
    """The calling thread's innermost open span, or ``None``."""
    tracer = _TRACER
    return None if tracer is None else tracer.current()


def current_span_id() -> "int | None":
    """Id of the innermost open span (for cross-thread parenting)."""
    span = current_span()
    return None if span is None else span.span_id


def enabled() -> bool:
    """Whether a tracer is installed process-wide."""
    return _TRACER is not None


def current_tracer() -> "Tracer | None":
    """The installed tracer, or ``None``."""
    return _TRACER


def enable(sinks=None) -> Tracer:
    """Install a process-wide tracer (idempotent: reuses an armed one).

    Returns the tracer now in charge — callers that installed it own its
    teardown (:func:`disable`).
    """
    global _TRACER
    with _TRACER_LOCK:
        if _TRACER is None:
            _TRACER = Tracer(sinks=sinks)
        return _TRACER


def disable() -> "Tracer | None":
    """Remove the process-wide tracer (closing its sinks); returns it."""
    global _TRACER
    with _TRACER_LOCK:
        tracer = _TRACER
        _TRACER = None
    if tracer is not None:
        tracer.close()
    return tracer


def env_setting(value: "str | None" = None) -> "str | None":
    """Interpret a ``RINGO_TRACE`` value.

    Returns ``None`` (off), ``"ring"`` (on, in-memory recorder only), or
    a file path (on, with a JSON-lines sink at that path).
    """
    if value is None:
        value = os.environ.get(ENV_VAR, "")
    lowered = value.strip().lower()
    if lowered in _FALSE_VALUES:
        return None
    if lowered in _TRUE_VALUES:
        return "ring"
    return value.strip()


def env_enabled() -> bool:
    """Whether ``RINGO_TRACE`` asks for tracing."""
    return env_setting() is not None


def enable_from_env() -> "Tracer | None":
    """Arm tracing as ``RINGO_TRACE`` requests; ``None`` when it is off."""
    setting = env_setting()
    if setting is None:
        return None
    if setting == "ring":
        return enable()
    from repro.obs.sinks import JsonlSink, RingBufferSink

    return enable(sinks=[RingBufferSink(), JsonlSink(setting)])
