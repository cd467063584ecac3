"""Per-graph mutation logs and the CSR delta-merge kernel.

The dynamic graph classes append one record per structural mutation to
an attached :class:`MutationLog` (see ``GraphBase._record_delta``).
When the snapshot cache finds a stale entry it slices the log between
the cached version and the live version, consolidates the op run into a
net :class:`EdgeDelta`, and calls :func:`apply_delta` to merge it into
the cached CSR. The merge touches only the rows the delta names: each
orientation goes through :func:`~repro.graphs.base.merge_rows`, one
:meth:`~repro.graphs.base.Rows.merged` for the deletes (old dense ids)
and one for the adds (new dense ids), with the old → new remap in
between only when the node set changed. No full-length edge keys are
formed and nothing is re-sorted. A base that already caches its
undirected projection hands it on the same way: the changed pairs that
flip in the projection are merged into its rows.

That structural merge is for graphs on their node hash table. A
CSR-backed graph merged each batch into its backing when ``ApplyOps``
applied it (the same kernel), so its refreshed snapshot is a wrap of the
backing and :func:`carry_projection` only hands the projection on.

Correctness hinges on the *net* form of the delta:

* an edge appears in at most one of ``edges_added`` / ``edges_deleted``
  (an add cancels a pending delete and vice versa), so every net-deleted
  edge exists in the base and every net-added edge is absent from it;
* ``del_node`` is recorded as explicit per-incident-edge deletes
  followed by the node delete, so a net-deleted node never has a
  surviving edge and the merge needs no implicit cascade;
* the log poisons itself on anything it cannot replay (bulk adjacency
  installs, version gaps, overflow), and a poisoned or gapped slice
  makes the cache fall back to a full rebuild — degraded performance,
  never a wrong answer.

:func:`apply_delta` produces a snapshot that is **bitwise identical** to
``CSRGraph.from_graph`` on the mutated graph (the property the
trace-differential harness pins down), including the undirected
representation detail that the out- and in-orientations share one
physical array pair; a carried projection is likewise identical to a
fresh ``undirected_projection()`` of the merged snapshot.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.exceptions import GraphError, RingoError
from repro.graphs.base import Remap, Rows, both_ways, merge_rows
from repro.graphs.csr import CSRGraph

#: A log that outgrows this many retained ops poisons itself — the
#: consumer has stopped draining it and unbounded growth would quietly
#: become a leak attached to the graph object.
MAX_LOG_OPS = 1 << 20

class DeltaError(RingoError):
    """A delta could not be applied to its base snapshot.

    Raised by :func:`apply_delta` when an invariant fails (a dangling
    delete, a duplicate add, a node-set mismatch). The snapshot cache
    treats it as a signal to fall back to a full rebuild.
    """


class MutationLog:
    """Version-stamped structural mutation log attached to one graph.

    Records are ``(version, kind, a, b)`` tuples appended by the graph
    mutators after each version bump. The log is *contiguous*: a record
    must carry the current ``contiguous_until`` version (several records
    may share one bump — ``del_node`` emits one per incident edge) or
    advance it by exactly one; any larger jump means a mutation went
    unrecorded and the log poisons itself.

    ``slice(v0, v1)`` returns the ops in ``(v0, v1]`` only when the log
    can prove it observed every mutation in that window; otherwise it
    returns ``None`` and the caller rebuilds from scratch.
    """

    __slots__ = (
        "_lock", "start_version", "contiguous_until", "_ops",
        "poison_reason",
    )

    def __init__(self, version: int) -> None:
        self._lock = threading.Lock()
        self.start_version = int(version)
        self.contiguous_until = int(version)
        self._ops: list[tuple[int, str, int, int]] = []
        self.poison_reason: "str | None" = None

    def record(self, version: int, kind: str, a: int, b: int) -> None:
        """Append one mutation record (called by the graph mutators)."""
        self.record_many(version, [(kind, int(a), int(b))])

    def record_many(self, version: int, records: "list[tuple[str, int, int]]") -> None:
        """Append ``(kind, a, b)`` records that all carry ``version``.

        A batch applied as one net change (``ApplyOps``) records it here
        at its single version bump.
        """
        with self._lock:
            if self.poison_reason is not None:
                return
            if version == self.contiguous_until + 1:
                self.contiguous_until = version
            elif version != self.contiguous_until:
                self.poison_reason = (
                    f"version gap: recorded v{version} after v{self.contiguous_until}"
                )
                self._ops.clear()
                return
            self._ops.extend((version, kind, a, b) for kind, a, b in records)
            if len(self._ops) > MAX_LOG_OPS:
                self.poison_reason = f"log overflow past {MAX_LOG_OPS} ops"
                self._ops.clear()

    def poison(self, reason: str) -> None:
        """Mark the log unusable (bulk install, unrecordable mutation)."""
        with self._lock:
            if self.poison_reason is None:
                self.poison_reason = reason
            self._ops.clear()

    def usable_at(self, version: int) -> bool:
        """Whether the log can serve slices ending at ``version``."""
        with self._lock:
            return (
                self.poison_reason is None and self.contiguous_until == version
            )

    def slice(self, v0: int, v1: int) -> "list[tuple[str, int, int]] | None":
        """The ``(kind, a, b)`` ops in ``(v0, v1]``, or ``None``.

        ``None`` means the log cannot prove completeness over the window
        (poisoned, anchored after ``v0``, or not yet caught up to
        ``v1``) and the caller must rebuild.
        """
        with self._lock:
            if (
                self.poison_reason is not None
                or v0 < self.start_version
                or self.contiguous_until < v1
            ):
                return None
            return [
                (kind, a, b)
                for version, kind, a, b in self._ops
                if v0 < version <= v1
            ]

    def drop_before(self, floor: int) -> None:
        """Discard ops at or below ``floor`` (no consumer needs them)."""
        with self._lock:
            if floor <= self.start_version:
                return
            self.start_version = min(floor, self.contiguous_until)
            self._ops = [op for op in self._ops if op[0] > floor]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ops)


class DeltaColumns(NamedTuple):
    """An :class:`EdgeDelta` as int64 columns: node ids ascending, edge
    pairs ascending by ``(first, second)``."""

    nodes_added: np.ndarray
    nodes_deleted: np.ndarray
    add_src: np.ndarray
    add_dst: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray


def _sorted_nodes(nodes: "set[int]") -> np.ndarray:
    return np.sort(np.fromiter(nodes, dtype=np.int64, count=len(nodes)))


def _sorted_pairs(pairs: "set[tuple[int, int]]") -> tuple[np.ndarray, np.ndarray]:
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    first, second = flat[0::2], flat[1::2]
    order = np.lexsort((second, first))
    return first[order], second[order]


class EdgeDelta:
    """The net effect of an op run: node and edge add/delete sets.

    Edge keys are ``(src, dst)`` original-id pairs for directed graphs
    and ``(min, max)`` pairs for undirected ones. The consolidation
    guarantees the add and delete sets are disjoint.
    """

    __slots__ = (
        "nodes_added", "nodes_deleted", "edges_added", "edges_deleted", "_columns",
    )

    def __init__(self) -> None:
        self.nodes_added: set[int] = set()
        self.nodes_deleted: set[int] = set()
        self.edges_added: set[tuple[int, int]] = set()
        self.edges_deleted: set[tuple[int, int]] = set()
        self._columns: "DeltaColumns | None" = None

    def columns(self) -> DeltaColumns:
        """The sets as sorted int64 columns, converted on first use.

        Every consumer of one window (the snapshot merge, the WCC and
        triangle advances) shares the one conversion, so the sets must
        not change once this has been called.

        >>> delta = consolidate([("add_edge", 3, 1), ("add_edge", 1, 2)], directed=True)
        >>> columns = delta.columns()
        >>> columns.add_src.tolist(), columns.add_dst.tolist()
        ([1, 3], [2, 1])
        >>> delta.columns() is columns
        True
        """
        if self._columns is None:
            self._columns = DeltaColumns(
                _sorted_nodes(self.nodes_added),
                _sorted_nodes(self.nodes_deleted),
                *_sorted_pairs(self.edges_added),
                *_sorted_pairs(self.edges_deleted),
            )
        return self._columns

    def empty(self) -> bool:
        """True when the run cancelled out to a structural no-op."""
        return not (
            self.nodes_added or self.nodes_deleted
            or self.edges_added or self.edges_deleted
        )

    def size(self) -> int:
        """Total number of net node/edge changes."""
        return (
            len(self.nodes_added) + len(self.nodes_deleted)
            + len(self.edges_added) + len(self.edges_deleted)
        )


def consolidate(ops, directed: bool) -> EdgeDelta:
    """Fold an ordered op run into its net :class:`EdgeDelta`.

    Later ops cancel earlier ones: re-adding a deleted edge removes it
    from the delete set instead of entering the add set (the edge exists
    in both base and target, so the merge must not touch it), and
    deleting a node added within the window erases it entirely.

    >>> delta = consolidate(
    ...     [("add_edge", 1, 2), ("del_edge", 1, 2), ("del_edge", 3, 4)],
    ...     directed=True,
    ... )
    >>> delta.edges_added, delta.edges_deleted
    (set(), {(3, 4)})
    """
    delta = EdgeDelta()
    for kind, a, b in ops:
        if kind == "add_node":
            if a in delta.nodes_deleted:
                delta.nodes_deleted.discard(a)
            else:
                delta.nodes_added.add(a)
        elif kind == "del_node":
            if a in delta.nodes_added:
                delta.nodes_added.discard(a)
            else:
                delta.nodes_deleted.add(a)
        elif kind in ("add_edge", "del_edge"):
            key = (a, b) if directed or a <= b else (b, a)
            if kind == "add_edge":
                if key in delta.edges_deleted:
                    delta.edges_deleted.discard(key)
                else:
                    delta.edges_added.add(key)
            else:
                if key in delta.edges_added:
                    delta.edges_added.discard(key)
                else:
                    delta.edges_deleted.add(key)
        else:
            raise DeltaError(f"unknown mutation kind {kind!r}")
    return delta


def _exact_positions(
    haystack: np.ndarray, needles: np.ndarray, what: str
) -> np.ndarray:
    """Positions of ``needles`` in sorted ``haystack``; all must match."""
    positions = np.searchsorted(haystack, needles)
    if len(needles):
        if positions.max(initial=0) >= len(haystack) or np.any(
            haystack[np.minimum(positions, len(haystack) - 1)] != needles
        ):
            raise DeltaError(f"dangling {what}: key not present in base")
    return positions


def lookup(haystack: np.ndarray, needles: np.ndarray):
    """``(positions, found)`` of ``needles`` in the sorted ``haystack``.

    ``positions`` is only meaningful where ``found`` is true.

    >>> positions, found = lookup(np.array([2, 5, 9]), np.array([5, 7, 9]))
    >>> positions[found].tolist(), found.tolist()
    ([1, 2], [True, False, True])
    """
    if len(haystack) == 0:
        return (
            np.zeros(len(needles), dtype=np.int64),
            np.zeros(len(needles), dtype=bool),
        )
    positions = np.minimum(np.searchsorted(haystack, needles), len(haystack) - 1)
    return positions, haystack[positions] == needles


def _merge_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    deletes: "tuple[np.ndarray, np.ndarray]",
    adds: "tuple[np.ndarray, np.ndarray]",
    remap: "Remap | None",
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.graphs.base.merge_rows`, its failures as :class:`DeltaError`."""
    try:
        return merge_rows(indptr, indices, deletes, adds, remap)
    except GraphError as err:
        raise DeltaError(str(err)) from None


def _holds_arcs(csr: CSRGraph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Whether ``csr`` has each out-arc ``src[i] -> dst[i]`` (original ids)."""
    at_src, has_src = lookup(csr.node_ids, src)
    at_dst, has_dst = lookup(csr.node_ids, dst)
    both = has_src & has_dst
    held = np.zeros(len(src), dtype=bool)
    rows = Rows(np.arange(csr.num_nodes), csr.out_indptr, csr.out_indices)
    held[both] = rows.contain(at_src[both], at_dst[both])
    return held


def _carry_projection(
    old: CSRGraph,
    merged: CSRGraph,
    columns: DeltaColumns,
    directed: bool,
    remap: "Remap | None",
) -> CSRGraph:
    """The base's undirected projection advanced to ``merged``'s edges.

    Only the changed non-loop pairs can change the projection, and a
    pair ``{lo, hi}`` is a projection edge while either of its arcs is
    an edge. A changed arc was an edge exactly when it was deleted and
    is one exactly when it was added. A directed pair with one changed
    arc also has the reverse arc, which the delta leaves as it was:
    ``merged`` tells whether it is an edge. The pairs that flip are
    merged into the old projection's rows, both ways.
    """
    src = np.concatenate([columns.add_src, columns.del_src])
    dst = np.concatenate([columns.add_dst, columns.del_dst])
    added = np.arange(len(src)) < len(columns.add_src)
    proper = src != dst
    src, dst, added = src[proper], dst[proper], added[proper]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    order = np.lexsort((hi, lo))
    src, dst, added, lo, hi = src[order], dst[order], added[order], lo[order], hi[order]
    first = np.ones(len(lo), dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    pair_start = np.flatnonzero(first)  # each pair has one or two arcs
    was = np.logical_or.reduceat(~added, pair_start)
    now = np.logical_or.reduceat(added, pair_start)
    if directed:
        lone = np.diff(np.append(pair_start, len(lo))) == 1
        reverse = _holds_arcs(merged, dst[pair_start[lone]], src[pair_start[lone]])
        was[lone] |= reverse
        now[lone] |= reverse
    lo, hi = lo[pair_start], hi[pair_start]
    gone, born = was & ~now, now & ~was
    old_ids = old.node_ids
    deletes = both_ways(
        np.searchsorted(old_ids, lo[gone]), np.searchsorted(old_ids, hi[gone])
    )
    new_ids = merged.node_ids
    adds = both_ways(
        np.searchsorted(new_ids, lo[born]), np.searchsorted(new_ids, hi[born])
    )
    indptr, indices = _merge_rows(old.out_indptr, old.out_indices, deletes, adds, remap)
    projection = CSRGraph(new_ids, indptr, indices, indptr, indices)
    projection._is_projection = True
    return projection


def carry_projection(
    base: CSRGraph, merged: CSRGraph, delta: EdgeDelta, directed: bool
) -> CSRGraph:
    """``merged`` — ``base`` advanced by ``delta`` elsewhere — given the base's projection.

    A CSR-backed graph merged each batch into its backing as the batch
    was applied, so the refreshed snapshot is a wrap of that backing
    and the base's cached undirected projection is all that is left to
    advance. Such batches keep the node set; a window that changes it
    raises :class:`DeltaError`.

    >>> base = CSRGraph.from_edges([1, 2], [2, 3]); _ = base.undirected_projection()
    >>> delta = EdgeDelta(); delta.edges_added.add((3, 1))
    >>> merged = carry_projection(
    ...     base, CSRGraph.from_edges([1, 2, 3], [2, 3, 1]), delta, directed=True
    ... )
    >>> merged.undirected_projection().num_edges
    6
    """
    columns = delta.columns()
    if len(columns.nodes_added) or len(columns.nodes_deleted):
        raise DeltaError("a node-set change cannot have been merged into a backing")
    if base._undirected is not None:
        merged._undirected = _carry_projection(
            base._undirected, merged, columns, directed, None
        )
    return merged


def apply_delta(base: CSRGraph, delta: EdgeDelta, directed: bool) -> CSRGraph:
    """Merge a net delta into a base CSR; raises :class:`DeltaError`.

    The result matches ``CSRGraph.from_graph`` on the mutated graph
    array-for-array. Undirected bases expand each delta edge into both
    orientations and keep the from_graph property that out- and
    in-adjacency share one physical array pair. When the base already
    caches its undirected projection, the result carries that
    projection forward too (equal to a fresh symmetrisation), so the
    triangle and k-core family need not re-sort it. The snapshot cache
    calls it for graphs on their hash table only: a CSR-backed graph's
    window is already merged into its backing (:func:`carry_projection`).

    >>> base = CSRGraph.from_edges([1, 2], [2, 3])
    >>> delta = EdgeDelta(); delta.edges_added.add((3, 1))
    >>> apply_delta(base, delta, directed=True).num_edges
    3
    """
    columns = delta.columns()
    base_ids = base.node_ids
    del_dense = _exact_positions(base_ids, columns.nodes_deleted, "node delete")
    add_nodes = columns.nodes_added
    if len(add_nodes) and np.any(lookup(base_ids, add_nodes)[1]):
        raise DeltaError("added node already present in base")
    new_ids, remap = base_ids, None
    if len(del_dense) or len(add_nodes):
        alive = np.ones(len(base_ids), dtype=bool)
        alive[del_dense] = False
        new_ids = np.union1d(base_ids[alive], add_nodes)
        remap = Remap(alive, np.searchsorted(new_ids, base_ids), len(new_ids))

    deletes = (
        _exact_positions(base_ids, columns.del_src, "edge-delete endpoint"),
        _exact_positions(base_ids, columns.del_dst, "edge-delete endpoint"),
    )
    adds = (
        _exact_positions(new_ids, columns.add_src, "edge-add endpoint"),
        _exact_positions(new_ids, columns.add_dst, "edge-add endpoint"),
    )
    if directed:
        out_indptr, out_indices = _merge_rows(
            base.out_indptr, base.out_indices, deletes, adds, remap
        )
        in_indptr, in_indices = _merge_rows(
            base.in_indptr, base.in_indices, deletes[::-1], adds[::-1], remap
        )
        merged = CSRGraph(new_ids, out_indptr, out_indices, in_indptr, in_indices)
    else:
        # The symmetric representation stores {u, v} as (u, v) and
        # (v, u) — a self-loop once — in one shared orientation.
        indptr, indices = _merge_rows(
            base.out_indptr, base.out_indices,
            both_ways(*deletes), both_ways(*adds), remap,
        )
        merged = CSRGraph(new_ids, indptr, indices, indptr, indices)
    if base._undirected is not None:
        merged._undirected = _carry_projection(
            base._undirected, merged, columns, directed, remap
        )
    return merged
