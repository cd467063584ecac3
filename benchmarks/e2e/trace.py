"""The benchmark's own in-memory span recorder (traced runs only).

Spans are recorded from the benchmark's side of each call into a layer's
public function; ``repro.obs`` / ``RINGO_TRACE`` stay off. Everything is
kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from collections import defaultdict


class Recorder:
    """Records ``(id, parent, name, layer, lap, start, end)`` spans."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, lap: object = None):
        """Time the enclosed call; nests under the thread's open span."""
        stack = self._stack.__dict__.setdefault("open", [])
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            record = [span_id, parent, name, layer, lap, 0.0, 0.0]
            self.spans.append(record)
        stack.append(span_id)
        record[5] = time.perf_counter()
        try:
            yield record
        finally:
            record[6] = time.perf_counter()
            stack.pop()

    # -- analysis --------------------------------------------------------

    def durations(self, name: str) -> "dict[object, float]":
        """Seconds spent in spans called ``name``, summed per lap."""
        per_lap: dict = defaultdict(float)
        for _, _, span_name, _, lap, start, end in self.spans:
            if span_name == name:
                per_lap[lap] += end - start
        return dict(per_lap)

    def per_lap_ms(self, name: str, laps) -> float:
        """Median over ``laps`` of the milliseconds a lap spent in ``name``."""
        spent = self.durations(name)
        samples = [spent[lap] for lap in laps if lap in spent]
        return statistics.median(samples) * 1e3 if samples else 0.0

    def self_times(self) -> "dict[int, float]":
        """Each span's duration minus the part its child spans cover.

        Children of one span never overlap (a thread has one open span
        at a time), so the covered part is the sum of their durations.
        """
        own = {s[0]: s[6] - s[5] for s in self.spans}
        for span_id, parent, *_rest, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """Dump the spans as JSON lines."""
        keys = ("id", "parent", "name", "layer", "lap", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class NullRecorder:
    """The untraced run's recorder: every call is a no-op."""

    enabled = False
    _NO_SPAN = contextlib.nullcontext()

    def span(self, name: str, layer: str, lap: object = None):
        return self._NO_SPAN


def span_cost_seconds(samples: int = 20000) -> float:
    """Mean cost of one empty span, for the overhead estimate."""
    recorder = Recorder()
    start = time.perf_counter()
    for _ in range(samples):
        with recorder.span("calibrate", "bench"):
            pass
    return (time.perf_counter() - start) / samples
