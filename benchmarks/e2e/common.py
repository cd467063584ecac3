"""Shared plumbing for the workloads: run context, statistics, bookkeeping."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.e2e.trace import NullRecorder, Recorder, span_cost_seconds

WORKERS = min(len(os.sched_getaffinity(0)), 4)
SETUP_REPEATS = 3
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
P95_MIN_SAMPLES = 200


@dataclass
class Context:
    """What a workload needs to know about this run."""

    seed: int
    seconds: float
    workdir: Path
    recorder: "Recorder | NullRecorder"
    quick: bool = False
    workers: int = WORKERS

    @property
    def traced(self) -> bool:
        return self.recorder.enabled

    def call(self, layer: str, lap: object, fn, *args, **kwargs):
        """Call into a layer's public function inside a span named after it."""
        with self.recorder.span(fn.__name__, layer, lap):
            return fn(*args, **kwargs)

    def setup_repeats(self) -> int:
        return 1 if self.quick else SETUP_REPEATS


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> bool:
        """Count one correctness check; a false one is a failed operation."""
        self.attempted += 1
        if not condition:
            self.failures.append(message)
        return bool(condition)

    def attempt(self, lap: object, fn, *args, **kwargs):
        """Run one counted operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - the boundary that counts failures
            self.failures.append(f"{lap}: {type(error).__name__}: {error}")
            return None


def keep_going(ctx: Context, start: float, done: int, outcome: Outcome) -> bool:
    """Whether the timed phase runs another lap.

    Laps repeat until ``--seconds`` of wall clock are used; at least two
    complete unless an operation has already failed.
    """
    if time.perf_counter() - start < ctx.seconds:
        return True
    return done < 2 and not outcome.failures


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def repeat_setup(ctx: Context, build, teardown=None):
    """Build the workload's state several times; keep the last.

    Returns ``(state, median build seconds)``. Earlier builds are torn
    down so only one is alive during the timed phase.
    """
    seconds = []
    state = None
    for index in range(ctx.setup_repeats()):
        if state is not None and teardown is not None:
            teardown(state)
        state, elapsed = timed(build, ctx, index)
        seconds.append(elapsed)
    return state, statistics.median(seconds)


def median_ms(samples) -> float:
    """Median of seconds samples, in milliseconds (0.0 when empty)."""
    samples = list(samples)
    return statistics.median(samples) * 1e3 if samples else 0.0


def percentile_ms(samples, q: float) -> float:
    """Nearest-rank percentile of seconds samples, in milliseconds."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] * 1e3


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def current_rss_mb() -> float:
    """Resident set right now, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / (1 << 20)


def snapshot_metrics(before: dict, after: dict) -> dict:
    """``graphs.snapshot_*`` from two ``snapshot_cache().stats()`` readings."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "graphs.snapshot_hits": hits,
        "graphs.snapshot_misses": misses,
        "graphs.snapshot_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "graphs.snapshot_bytes": after["bytes"],
        "graphs.snapshot_conversions": after["conversions"] - before["conversions"],
    }


def span_metrics(ctx: Context, lap_seconds: list, laps_traced: int) -> dict:
    """The ``bench.*`` validity metrics of a traced run."""
    recorder = ctx.recorder
    own = recorder.self_times()
    laps = [s for s in recorder.spans if s[2] == "lap"]
    lap_total = sum(s[6] - s[5] for s in laps)
    lap_self = sum(own[s[0]] for s in laps)
    lap_p50 = statistics.median(lap_seconds)
    spans_per_lap = len(recorder.spans) / max(1, laps_traced)
    cost = span_cost_seconds()
    return {
        "bench.spans": len(recorder.spans),
        "bench.span_cost_us": cost * 1e6,
        "bench.traced_lap_p50_ms": lap_p50 * 1e3,
        "bench.trace_overhead_frac": spans_per_lap * cost / lap_p50,
        "bench.lap_coverage_frac": 1.0 - lap_self / lap_total if lap_total else 0.0,
    }
