"""Process-wide incremental-maintenance policy, counters, and warm states.

One :class:`IncrementalEngine` per process, mirroring the snapshot
cache's deployment model (one interactive session per process). It owns:

* **enablement** — on by default, toggled with
  ``incremental_engine().configure(enabled=...)`` and restored by
  ``reset()``;
* **compaction policy** — a delta run longer than
  ``max(min_compact_ops, compact_fraction * base_edges)`` is cheaper to
  rebuild than to merge, so the cache compacts (full-rebuilds) instead;
* **counters** — ``delta_applied`` / ``compactions`` / ``fallback_full``
  plus per-algorithm warm/seed tallies, surfaced through
  ``Ringo.health()["incremental"]`` and mirrored to the obs metrics
  registry as ``incremental.*`` when tracing is armed;
* **warm algorithm states** — per-graph PageRank rank vectors, WCC
  labels, and triangle counts that the dynamic variants in
  :mod:`repro.incremental.algorithms` advance by delta instead of
  recomputing from scratch. They live in a weak map keyed by the graph
  itself (:class:`weakref.WeakKeyDictionary`), so a collected graph's
  states go with it and never answer for a new graph at its address.

The module deliberately imports neither :mod:`repro.algorithms` nor
:mod:`repro.graphs.snapshot` at module scope — both import *us* (the
cache for the delta path, the algorithms for dispatch), so the engine
stays at the bottom of the import graph.
"""

from __future__ import annotations

import threading
import weakref

from repro.incremental.delta import DeltaColumns, MutationLog, fold_window

#: PageRank stops when the L1 step change drops below ``tolerance``;
#: the standard power-iteration bound then caps the distance to the
#: fixed point at ``damping / (1 - damping) * tolerance``. Incremental
#: and batch runs each sit inside that ball, so they differ by at most
#: twice it — the ε the differential harness asserts.
PAGERANK_EPSILON_FACTOR = 2.0


def pagerank_epsilon(damping: float, tolerance: float) -> float:
    """The documented incremental-vs-batch PageRank L1 bound.

    >>> round(pagerank_epsilon(0.85, 1e-9) / 1e-8, 3)
    1.133
    """
    return PAGERANK_EPSILON_FACTOR * damping / (1.0 - damping) * tolerance


_DEFAULT_COMPACT_FRACTION = 0.1
_DEFAULT_MIN_COMPACT_OPS = 64


class _GraphState:
    """Warm per-graph algorithm states (versions + dense results)."""

    __slots__ = ("pagerank", "wcc", "triangles")

    def __init__(self) -> None:
        # pagerank: (params_key, version, node_ids, ranks)
        self.pagerank: "tuple | None" = None
        # wcc: (version, node_ids, labels)
        self.wcc: "tuple | None" = None
        # triangles: (version, node_ids, counts, sym_projection)
        self.triangles: "tuple | None" = None

    def versions(self) -> "list[int]":
        versions = []
        if self.pagerank is not None:
            versions.append(self.pagerank[1])
        if self.wcc is not None:
            versions.append(self.wcc[0])
        if self.triangles is not None:
            versions.append(self.triangles[0])
        return versions


class IncrementalEngine:
    """Enablement, compaction policy, counters, and warm states.

    >>> engine = IncrementalEngine()
    >>> engine.compact_threshold(10_000)
    1000
    >>> engine.record_fallback("demo")
    >>> engine.stats()["fallback_full"], engine.stats()["last_fallback_reason"]
    (1, 'demo')
    """

    def __init__(
        self,
        compact_fraction: float = _DEFAULT_COMPACT_FRACTION,
        min_compact_ops: int = _DEFAULT_MIN_COMPACT_OPS,
    ) -> None:
        self._lock = threading.Lock()
        self.enabled = True
        self.compact_fraction = float(compact_fraction)
        self.min_compact_ops = int(min_compact_ops)
        self._states = weakref.WeakKeyDictionary()  # graph -> _GraphState
        self._delta_applied = 0
        self._compactions = 0
        self._fallback_full = 0
        self._last_fallback_reason: "str | None" = None
        self._algo: dict[str, dict[str, int]] = {}
        # The last folded window, ``(log, v0, v1, (delta, rows))``:
        # one round's snapshot merge, WCC and triangle advances all ask
        # for the same window. Keyed by the log object itself, so a
        # re-anchored log (or a new graph reusing an id) never matches.
        self._last_window: "tuple | None" = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def configure(
        self,
        enabled: "bool | None" = None,
        compact_fraction: "float | None" = None,
        min_compact_ops: "int | None" = None,
    ) -> None:
        """Adjust the toggle and compaction policy in place."""
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if compact_fraction is not None:
                self.compact_fraction = float(compact_fraction)
            if min_compact_ops is not None:
                self.min_compact_ops = int(min_compact_ops)

    def reset(self) -> None:
        """Drop warm states and counters, return every knob to defaults."""
        with self._lock:
            self.enabled = True
            self.compact_fraction = _DEFAULT_COMPACT_FRACTION
            self.min_compact_ops = _DEFAULT_MIN_COMPACT_OPS
            self._states.clear()
            self._delta_applied = 0
            self._compactions = 0
            self._fallback_full = 0
            self._last_fallback_reason = None
            self._algo.clear()
            self._last_window = None

    def compact_threshold(self, base_edges: int) -> int:
        """Op-run length beyond which rebuilding beats merging."""
        return max(self.min_compact_ops, int(self.compact_fraction * base_edges))

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def record_delta_applied(self) -> None:
        """Count one stale snapshot refreshed by delta merge."""
        with self._lock:
            self._delta_applied += 1

    def record_compaction(self) -> None:
        """Count one overlay compacted into a fresh full build."""
        with self._lock:
            self._compactions += 1

    def record_fallback(self, reason: str) -> None:
        """Count one delta path abandoned for a full rebuild."""
        with self._lock:
            self._fallback_full += 1
            self._last_fallback_reason = reason

    def record_algo(self, name: str, mode: str) -> None:
        """Tally one dynamic-algorithm outcome (``warm`` / ``seed``)."""
        with self._lock:
            entry = self._algo.setdefault(name, {})
            entry[mode] = entry.get(mode, 0) + 1

    def stats(self) -> dict:
        """Counter snapshot for ``Ringo.health()["incremental"]``."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "compact_fraction": self.compact_fraction,
                "min_compact_ops": self.min_compact_ops,
                "delta_applied": self._delta_applied,
                "compactions": self._compactions,
                "fallback_full": self._fallback_full,
                "last_fallback_reason": self._last_fallback_reason,
                "graph_states": len(self._states),
                "algorithms": {
                    name: dict(entry) for name, entry in self._algo.items()
                },
            }

    # ------------------------------------------------------------------
    # Mutation-log lifecycle (called by the snapshot cache)
    # ------------------------------------------------------------------

    def ensure_log(self, graph, version: int) -> None:
        """Anchor a mutation log at ``version`` if none can serve it.

        A healthy log that has observed every mutation up to ``version``
        is kept as-is — re-anchoring would discard history other
        consumers (warm algorithm states, a second cache) still need.
        """
        log = graph._delta_log
        if log is None or not log.usable_at(version):
            graph._delta_log = MutationLog(version)
            self._last_window = None

    def trim_log(self, graph, base_version: int) -> None:
        """Drop ops no consumer can still ask for.

        The floor is the oldest version any consumer is anchored at:
        the cache's freshly stored base and every warm algorithm state.
        """
        log = graph._delta_log
        if log is None:
            return
        floor = base_version
        with self._lock:
            state = self._states.get(graph)
        if state is not None:
            for version in state.versions():
                floor = min(floor, version)
        log.drop_before(floor)

    def delta_between(
        self, graph, v0: int, v1: int
    ) -> "tuple[DeltaColumns, int] | None":
        """The folded net delta over ``(v0, v1]``, or ``None``.

        Returns ``(delta, op_count)``, the count in log rows; ``None``
        means the log cannot prove completeness over the window. The
        last answer is memoised, so every consumer of one window shares
        one fold; the delta's arrays are shared and must be treated as
        read-only.
        """
        log = graph._delta_log
        if log is None:
            return None
        memo = self._last_window
        if memo is not None and memo[0] is log and memo[1:3] == (v0, v1):
            return memo[3]
        window = log.slice(v0, v1)
        if window is None:
            return None
        folded = (fold_window(window, graph.is_directed), len(window.kinds))
        self._last_window = (log, v0, v1, folded)
        return folded

    # ------------------------------------------------------------------
    # Warm algorithm states
    # ------------------------------------------------------------------

    def state_for(self, graph) -> _GraphState:
        """The warm-state slot for ``graph`` (created on first use)."""
        with self._lock:
            return self._states.setdefault(graph, _GraphState())


_DEFAULT_ENGINE = IncrementalEngine()


def incremental_engine() -> IncrementalEngine:
    """The process-wide incremental engine."""
    return _DEFAULT_ENGINE
