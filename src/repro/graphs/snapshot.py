"""Versioned CSR snapshot cache — conversion reuse for the interactive loop.

Ringo's headline claim is *interactive* analytics: one dynamic graph,
many algorithm invocations (paper §2.2, §3, Fig 2). Each bulk kernel
runs over an immutable :class:`~repro.graphs.csr.CSRGraph` snapshot, and
before this cache every invocation paid the full O(V+E) re-snapshot even
when the graph had not changed. The cache memoises snapshots on
``(graph identity, graph version)``:

* the dynamic graph classes bump a monotonic ``version`` counter on
  every structural mutation (see :class:`repro.graphs.base.GraphBase`),
  so a stale snapshot is detected by one integer compare and rebuilt —
  no manual invalidation ever needed;
* entries live in a weak map keyed by the graph itself
  (:class:`weakref.WeakKeyDictionary`; graphs hash by identity), so
  caching a graph never keeps it alive, a collected graph's snapshot
  goes with it, and a new graph at a reused address never sees it;
* every build passes through the ``snapshot.build`` fault site, so
  :func:`repro.faults.inject_faults` can prove a failed conversion never
  leaves a partial entry behind.

The process-wide default cache is what
:func:`repro.algorithms.common.as_csr` consults, which is how all ~20
algorithm modules share snapshots without code changes at call sites.
``Ringo.health()`` reports its counters.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.analysis.sanitize import maybe_sanitize, maybe_sanitize_delta
from repro.exceptions import RingoError
from repro.faults import fault_point
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.incremental.delta import DeltaError, apply_delta, carry_projection
from repro.incremental.engine import incremental_engine
from repro.obs.metrics import count as _count
from repro.obs.spans import event as _obs_event
from repro.obs.spans import trace as _obs_trace


class _Entry:
    """One cached snapshot: version stamp, CSR, size."""

    __slots__ = ("version", "csr", "nbytes")

    def __init__(self, version: int, csr: CSRGraph, nbytes: int) -> None:
        self.version = version
        self.csr = csr
        self.nbytes = nbytes


class SnapshotCache:
    """Weak-map, version-checked cache of CSR snapshots.

    >>> from repro.graphs.directed import DirectedGraph
    >>> cache = SnapshotCache()
    >>> g = DirectedGraph(); _ = g.add_edge(1, 2)
    >>> cache.get(g) is cache.get(g)
    True
    >>> cache.stats()["hits"], cache.stats()["misses"]
    (1, 1)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries = weakref.WeakKeyDictionary()  # graph -> _Entry
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._conversions = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, graph: "DirectedGraph | UndirectedGraph") -> CSRGraph:
        """The CSR snapshot for ``graph`` at its current version.

        A hit costs one weak-map probe and one integer compare. On a
        miss (or a stale version) the snapshot is rebuilt and retained.
        """
        if not isinstance(graph, (DirectedGraph, UndirectedGraph)):
            raise RingoError(
                f"snapshot cache expects a dynamic graph, got {type(graph).__name__}"
            )
        version = graph.version
        with self._lock:
            cached = self._entries.get(graph)
            if cached is not None and cached.version == version:
                self._hits += 1
                _count("snapshot.hits_total")
                _obs_event("snapshot.hit", version=version)
                return cached.csr
        csr = None
        if cached is not None:
            # Delta maintenance: merge the mutation-log overlay into the
            # stale base instead of rebuilding from scratch. Any failure
            # (gap, poisoned log, injected fault, merge invariant) falls
            # through to the full build — never a wrong answer.
            csr = self._refresh_from_delta(graph, cached, version)
        refreshed = csr is not None
        if csr is None:
            csr = self._build(graph)
            # Under RINGO_SANITIZE=1 every conversion is invariant-checked
            # before it is served or cached; passing the pre-build version
            # also proves the graph did not mutate mid-conversion (the
            # cache-key coherence check).
            maybe_sanitize(csr, graph=graph, expected_version=version)
        entry = _Entry(version, csr, csr.memory_bytes())
        with self._lock:
            if cached is not None:
                self._invalidations += 1
                _count("snapshot.invalidations_total")
            else:
                self._misses += 1
                _count("snapshot.misses_total")
            self._entries[graph] = entry
        engine = incremental_engine()
        if engine.enabled:
            if not refreshed:
                # A stored full build is the new delta base: make sure a
                # usable mutation log is anchored at its version.
                engine.ensure_log(graph, version)
            engine.trim_log(graph, version)
        return csr

    def _refresh_from_delta(self, graph, entry, version: int) -> "CSRGraph | None":
        """Fold the mutation-log overlay into a stale base snapshot.

        Returns the merged CSR — bitwise what a full rebuild would have
        produced — or ``None`` to fall back to the full conversion,
        recording the reason. Runs include the ``incremental.delta.apply``
        and ``incremental.compact`` fault sites so chaos tests can prove
        a failed merge degrades to a rebuild instead of a wrong answer.
        """
        engine = incremental_engine()
        if not engine.enabled:
            return None
        try:
            fault_point("incremental.delta.apply")
            pair = engine.delta_between(graph, entry.version, version)
            if pair is None:
                log = graph._delta_log
                reason = (
                    "no mutation log"
                    if log is None
                    else (log.poison_reason or "log window unavailable")
                )
                engine.record_fallback(reason)
                _count("incremental.fallback_full")
                return None
            delta, op_count = pair
            if op_count > engine.compact_threshold(entry.csr.num_edges):
                # The overlay outgrew the configured fraction of the
                # base: compact it into a fresh full conversion.
                fault_point("incremental.compact")
                engine.record_compaction()
                _count("incremental.compactions")
                _obs_event(
                    "snapshot.compact", base=entry.version, ops=op_count
                )
                return None
            if delta.empty():
                # The run cancelled out (e.g. add then delete): restamp
                # the existing arrays under the new version.
                merged = entry.csr
            else:
                backing = graph._csr
                if backing is None:
                    merged = apply_delta(entry.csr, delta, graph.is_directed)
                else:
                    # ApplyOps already merged the window into the backing:
                    # wrap it as from_graph does (O(1)) and carry only the
                    # projection. A writer that moved the graph since
                    # ``version`` was read makes the wrap newer than the
                    # window, so that falls back to a full build.
                    if graph.version != version:
                        raise DeltaError("the graph moved during the refresh")
                    merged = carry_projection(
                        entry.csr, CSRGraph(*backing), delta, graph.is_directed
                    )
                self._verify_refresh(merged, graph)
            merged._delta_base_version = entry.version
            merged._delta_target_version = version
            maybe_sanitize_delta(
                merged, entry.csr, delta, graph=graph, expected_version=version
            )
            engine.record_delta_applied()
            _count("incremental.delta_applied")
            _obs_event(
                "snapshot.delta_refresh",
                base=entry.version, target=version, ops=op_count,
            )
            return merged
        except Exception as err:  # noqa: BLE001 — any failure must degrade
            engine.record_fallback(f"{type(err).__name__}: {err}")
            _count("incremental.fallback_full")
            _obs_event("snapshot.delta_fallback", error=type(err).__name__)
            return None

    @staticmethod
    def _verify_refresh(merged: CSRGraph, graph) -> None:
        """Always-on cheap guards on a merged view (vs the live graph)."""
        if not np.array_equal(merged.node_ids, np.sort(graph.node_array())):
            raise DeltaError("merged node set disagrees with the graph")
        if graph.is_directed:
            expected = graph.num_edges
        else:
            # Symmetric storage: each edge twice, self-loops once.
            expected = 2 * graph.num_edges - merged.num_self_loops()
        if merged.num_edges != expected:
            raise DeltaError(
                f"merged edge count {merged.num_edges} != expected {expected}"
            )

    def _build(self, graph) -> CSRGraph:
        with _obs_trace(
            "snapshot.build", graph=type(graph).__name__, version=graph.version
        ) as span:
            fault_point("snapshot.build")
            with self._lock:
                self._conversions += 1
            _count("snapshot.builds_total")
            csr = CSRGraph.from_graph(graph)
            span.set_tag("nodes", csr.num_nodes)
            span.set_tag("edges", csr.num_edges)
            return csr

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------

    def invalidate(self, graph) -> bool:
        """Manually drop one graph's cached snapshot; True if present."""
        with self._lock:
            return self._entries.pop(graph, None) is not None

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every cached snapshot (optionally zero the counters)."""
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self._hits = 0
                self._misses = 0
                self._invalidations = 0
                self._conversions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot for ``Ringo.health()`` and the benchmarks.

        ``conversions`` counts actual ``CSRGraph.from_graph`` builds the
        cache performed; on an unchanged graph a warm pass must add
        hits, never conversions.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": sum(entry.nbytes for entry in self._entries.values()),
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "conversions": self._conversions,
            }


# The process-wide cache: one interactive session per process is the
# paper's deployment model, and module-level algorithm entry points
# (``alg.pagerank(graph)``) have no session to hang a cache off.
_DEFAULT_CACHE = SnapshotCache()


def snapshot_cache() -> SnapshotCache:
    """The process-wide snapshot cache (what :func:`csr_snapshot` uses)."""
    return _DEFAULT_CACHE


def csr_snapshot(
    graph: "DirectedGraph | UndirectedGraph", pool=None
) -> CSRGraph:
    """Cached CSR snapshot of a dynamic graph via the process-wide cache.

    ``pool`` is accepted and ignored: the build is one serial numpy
    gather. The keyword stays only because the repo benchmark
    (``benchmarks/e2e/wl_analytics.py``) still passes it.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph(); _ = g.add_edge(1, 2)
    >>> csr_snapshot(g) is csr_snapshot(g)
    True
    >>> _ = g.add_edge(2, 3)  # mutation bumps g.version -> rebuild
    >>> csr_snapshot(g).num_edges
    2
    """
    return _DEFAULT_CACHE.get(graph)
