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
* entries hold the graph **weakly** (keyed by ``id(graph)`` with a
  ``weakref`` cleanup callback), so caching a graph never prevents it
  from being garbage-collected, and a collected graph's snapshot is
  dropped with it;
* admission is **byte-budgeted**: a snapshot larger than the configured
  ``max_bytes`` ceiling (counting all cached snapshots) is still
  returned to the caller but not retained, so the cache cannot blow the
  memory headroom an operator granted it;
* every build passes through the ``snapshot.build`` fault site, so
  :func:`repro.faults.inject_faults` can prove a failed conversion never
  leaves a partial entry behind.

The process-wide default cache is what
:func:`repro.algorithms.common.as_csr` consults, which is how all ~20
algorithm modules share snapshots without code changes at call sites.
``snapshot_cache().configure(enabled=..., max_bytes=...)`` toggles and
budgets it for the process, and ``Ringo.health()`` reports its counters.
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
    """One cached snapshot: weak graph ref, version stamp, CSR, size."""

    __slots__ = ("ref", "version", "csr", "nbytes")

    def __init__(self, ref, version: int, csr: CSRGraph, nbytes: int) -> None:
        self.ref = ref
        self.version = version
        self.csr = csr
        self.nbytes = nbytes


class SnapshotCache:
    """Weakref-keyed, version-checked cache of CSR snapshots.

    ``max_bytes`` caps the total bytes of retained snapshots (``None``
    means unlimited); an over-budget snapshot is built and returned but
    not cached, recorded under ``rejected``. ``enabled=False`` turns the
    cache into a pass-through that still counts conversions.

    >>> from repro.graphs.directed import DirectedGraph
    >>> cache = SnapshotCache()
    >>> g = DirectedGraph(); _ = g.add_edge(1, 2)
    >>> cache.get(g) is cache.get(g)
    True
    >>> cache.stats()["hits"], cache.stats()["misses"]
    (1, 1)
    """

    def __init__(self, enabled: bool = True, max_bytes: "int | None" = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise RingoError(
                f"snapshot cache max_bytes must be positive, got {max_bytes}"
            )
        self._lock = threading.Lock()
        self._entries: dict[int, _Entry] = {}
        # Keys of collected graphs. GC runs a weakref callback on whatever
        # allocation triggers it, possibly inside this cache's or the
        # metrics registry's locked sections, so it only queues the key
        # (``list.append`` is atomic and takes no lock).
        self._collected_keys: list[int] = []
        self.enabled = enabled
        self.max_bytes = max_bytes
        self._cached_bytes = 0
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._rejected = 0
        self._collected = 0
        self._conversions = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, graph: "DirectedGraph | UndirectedGraph") -> CSRGraph:
        """The CSR snapshot for ``graph`` at its current version.

        A hit costs one dict probe and one integer compare. On a miss
        (or a stale version) the snapshot is rebuilt and retained if it
        passes byte admission.
        """
        if not isinstance(graph, (DirectedGraph, UndirectedGraph)):
            raise RingoError(
                f"snapshot cache expects a dynamic graph, got {type(graph).__name__}"
            )
        key = id(graph)
        version = graph.version
        stale = False
        stale_entry = None
        if self.enabled:
            with self._lock:
                self._drop_collected()
                entry = self._entries.get(key)
                if entry is not None:
                    if entry.version == version:
                        self._hits += 1
                        _count("snapshot.hits_total")
                        _obs_event("snapshot.hit", version=version)
                        return entry.csr
                    stale = True
                    stale_entry = entry
        csr = None
        refreshed = False
        if stale:
            # Delta maintenance: merge the mutation-log overlay into the
            # stale base instead of rebuilding from scratch. Any failure
            # (gap, poisoned log, injected fault, merge invariant) falls
            # through to the full build — never a wrong answer.
            csr = self._refresh_from_delta(graph, stale_entry, version)
            refreshed = csr is not None
        if csr is None:
            csr = self._build(graph)
            # Under RINGO_SANITIZE=1 every conversion is invariant-checked
            # before it is served or cached; passing the pre-build version
            # also proves the graph did not mutate mid-conversion (the
            # cache-key coherence check).
            maybe_sanitize(csr, graph=graph, expected_version=version)
        if not self.enabled:
            return csr
        nbytes = csr.memory_bytes()
        with self._lock:
            # Re-read under the lock: a racing thread may have stored.
            entry = self._entries.get(key)
            replaced = entry.nbytes if entry is not None else 0
            if stale:
                self._invalidations += 1
                _count("snapshot.invalidations_total")
            else:
                self._misses += 1
                _count("snapshot.misses_total")
            if (
                self.max_bytes is not None
                and self._cached_bytes - replaced + nbytes > self.max_bytes
            ):
                self._rejected += 1
                _count("snapshot.evictions_total")
                _obs_event("snapshot.evict", reason="over_budget", bytes=nbytes)
                if entry is not None:
                    # The retained snapshot is stale; drop it too.
                    del self._entries[key]
                    self._cached_bytes -= replaced
                return csr
            ref = weakref.ref(graph, lambda _, k=key: self._collected_keys.append(k))
            self._entries[key] = _Entry(ref, version, csr, nbytes)
            self._cached_bytes += nbytes - replaced
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

    def _drop_collected(self) -> None:
        """Drop collected graphs' entries (lock held): before a lookup, so
        a dead graph's entry never answers for a new graph reusing its
        id, and before reporting."""
        while self._collected_keys:
            entry = self._entries.pop(self._collected_keys.pop(), None)
            if entry is not None:
                self._cached_bytes -= entry.nbytes
                self._collected += 1
                _count("snapshot.evictions_total")
                _obs_event("snapshot.evict", reason="collected", bytes=entry.nbytes)

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------

    def configure(
        self,
        enabled: "bool | None" = None,
        max_bytes: "int | None | str" = "unchanged",
    ) -> None:
        """Adjust the toggle and/or the byte ceiling in place."""
        if enabled is not None:
            self.enabled = bool(enabled)
        if max_bytes != "unchanged":
            if max_bytes is not None and max_bytes <= 0:
                raise RingoError(
                    f"snapshot cache max_bytes must be positive, got {max_bytes}"
                )
            self.max_bytes = max_bytes

    def invalidate(self, graph) -> bool:
        """Manually drop one graph's cached snapshot; True if present."""
        with self._lock:
            entry = self._entries.pop(id(graph), None)
            if entry is None:
                return False
            self._cached_bytes -= entry.nbytes
        return True

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every cached snapshot (optionally zero the counters)."""
        with self._lock:
            self._entries.clear()
            self._cached_bytes = 0
            if reset_stats:
                self._hits = 0
                self._misses = 0
                self._invalidations = 0
                self._rejected = 0
                self._collected = 0
                self._conversions = 0

    def __len__(self) -> int:
        with self._lock:
            self._drop_collected()
            return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot for ``Ringo.health()`` and the benchmarks.

        ``conversions`` counts actual ``CSRGraph.from_graph`` builds the
        cache performed; on an unchanged graph a warm pass must add
        hits, never conversions.
        """
        with self._lock:
            self._drop_collected()
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "bytes": self._cached_bytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "rejected": self._rejected,
                "collected": self._collected,
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
