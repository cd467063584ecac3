"""Per-graph mutation logs and the CSR delta-merge kernel.

The dynamic graph classes append one row per structural mutation to
the int64 columns of an attached :class:`MutationLog` (see
``GraphBase._record_delta``). When the snapshot cache finds a stale
entry it slices the log between the cached version and the live
version, folds the window into its net :class:`DeltaColumns` with one
sort (:func:`fold_window`), and calls :func:`apply_delta` to merge it
into the cached CSR. The merge is :meth:`CSRGraph.merged
<repro.graphs.csr.CSRGraph.merged>` and touches only the rows the delta
names: one :meth:`~repro.graphs.base.Rows.merged` per orientation for
the deletes (old dense ids) and one for the adds (new dense ids), with
the old → new remap in between only when the node set changed. No
full-length edge keys are formed and nothing is re-sorted. A base that
already caches its undirected projection hands it on the same way: the
changed pairs that flip in the projection are merged into its rows.

That structural merge is for graphs on their node hash table. A
CSR-backed graph merged each batch into its own CSR when ``ApplyOps``
applied it (the same merge), so its refreshed snapshot is a wrap of that
CSR and :func:`carry_projection` only hands the projection on.

Correctness hinges on the *net* form of the delta:

* an edge appears in at most one of the added / deleted columns (an
  add cancels a pending delete and vice versa), so every net-deleted
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
from array import array
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from repro.exceptions import GraphError, RingoError
from repro.graphs.base import Remap, Rows, lookup
from repro.graphs.csr import CSRGraph

#: A log that outgrows this many retained rows poisons itself — the
#: consumer has stopped draining it and unbounded growth would quietly
#: become a leak attached to the graph object.
MAX_LOG_OPS = 1 << 20

#: The mutation kinds, node kinds first. A kind's code is its index
#: here, in a log row and in ``ApplyOps`` batch resolution alike.
KINDS = ("add_node", "del_node", "add_edge", "del_edge")
ADD_NODE, DEL_NODE, ADD_EDGE, DEL_EDGE = range(len(KINDS))
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}


class DeltaError(RingoError):
    """A delta could not be applied to its base snapshot.

    Raised by :func:`apply_delta` when an invariant fails (a dangling
    delete, a duplicate add, a node-set mismatch). The snapshot cache
    treats it as a signal to fall back to a full rebuild.
    """


def _code(kind: str) -> int:
    try:
        return KIND_CODES[kind]
    except KeyError:
        raise DeltaError(f"unknown mutation kind {kind!r}") from None


class MutationLog:
    """Version-stamped structural mutation log attached to one graph.

    Four flat int64 columns, one row per mutation: the version, the
    kind's index in :data:`KINDS`, and the operands ``a`` and ``b``
    (``-1`` where a node op has none), appended by the graph mutators
    after each version bump. The log is *contiguous*: rows must carry
    the current ``contiguous_until`` version (several may share one
    bump) or advance it by exactly one; any larger jump means a mutation
    went unrecorded and the log poisons itself. The version column
    therefore ascends, and windows are found by bisecting it.

    ``slice(v0, v1)`` returns the rows in ``(v0, v1]`` only when the log
    can prove it observed every mutation in that window; otherwise it
    returns ``None`` and the caller rebuilds from scratch.
    """

    __slots__ = (
        "_lock", "start_version", "contiguous_until", "_columns",
        "poison_reason",
    )

    def __init__(self, version: int) -> None:
        self._lock = threading.Lock()
        self.start_version = int(version)
        self.contiguous_until = int(version)
        # version, kind code, a, b
        self._columns = tuple(array("q") for _ in range(4))
        self.poison_reason: "str | None" = None

    def record(self, version: int, kind: str, a: int = -1, b: int = -1) -> None:
        """Append one mutation row (called by the single-op mutators)."""
        code = _code(kind)
        with self._lock:
            if not self._advance(version):
                return
            versions, kinds, column_a, column_b = self._columns
            try:
                versions.append(version)
                kinds.append(code)
                column_a.append(a)
                column_b.append(b)
            except OverflowError:
                return self._poison(f"unrecordable operands {a!r}, {b!r}")
            self._check_size()

    def record_many(self, version: int, runs) -> None:
        """Append runs of rows that all carry ``version``, in one extend.

        Each run is ``(kind, a, b)``; ``a`` and ``b`` are int64 arrays of
        one length or scalars broadcast against them, so a ``del_node``
        records its incident edges straight from its adjacency rows and
        an ``ApplyOps`` batch its net change straight from its columns.
        """
        try:
            runs = [
                np.broadcast_arrays(*(
                    np.asarray(value, dtype=np.int64)
                    for value in (version, _code(kind), a, b)
                ))
                for kind, a, b in runs
            ]
        except OverflowError:
            return self.poison(f"unrecordable operands at v{version}")
        with self._lock:
            if not self._advance(version):
                return
            for run in runs:
                for column, values in zip(self._columns, run):
                    column.frombytes(values.tobytes())
            self._check_size()

    def _advance(self, version: int) -> bool:
        """Whether rows at ``version`` may be appended (lock held)."""
        if self.poison_reason is not None:
            return False
        if version == self.contiguous_until + 1:
            self.contiguous_until = version
        elif version != self.contiguous_until:
            self._poison(
                f"version gap: recorded v{version} after v{self.contiguous_until}"
            )
            return False
        return True

    def _check_size(self) -> None:
        if len(self._columns[0]) > MAX_LOG_OPS:
            self._poison(f"log overflow past {MAX_LOG_OPS} ops")

    def _poison(self, reason: str) -> None:
        if self.poison_reason is None:
            self.poison_reason = reason
        for column in self._columns:
            del column[:]

    def poison(self, reason: str) -> None:
        """Mark the log unusable (bulk install, unrecordable mutation)."""
        with self._lock:
            self._poison(reason)

    def usable_at(self, version: int) -> bool:
        """Whether the log can serve slices ending at ``version``."""
        with self._lock:
            return (
                self.poison_reason is None and self.contiguous_until == version
            )

    def slice(self, v0: int, v1: int) -> "LogWindow | None":
        """The rows in ``(v0, v1]`` as a :class:`LogWindow`, or ``None``.

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
            versions = self._columns[0]
            lo, hi = bisect_right(versions, v0), bisect_right(versions, v1)
            return LogWindow(*(
                np.frombuffer(column[lo:hi], dtype=np.int64)
                for column in self._columns[1:]
            ))

    def drop_before(self, floor: int) -> None:
        """Discard rows at or below ``floor`` (no consumer needs them)."""
        with self._lock:
            if floor <= self.start_version:
                return
            self.start_version = min(floor, self.contiguous_until)
            cut = bisect_right(self._columns[0], floor)
            for column in self._columns:
                del column[:cut]

    def __len__(self) -> int:
        with self._lock:
            return len(self._columns[0])


class LogWindow(NamedTuple):
    """The rows of one log window in log order: kind codes and operands."""

    kinds: np.ndarray
    a: np.ndarray
    b: np.ndarray


class DeltaColumns(NamedTuple):
    """The net effect of a log window as int64 columns: node ids
    ascending, edge pairs ascending by ``(first, second)``.

    Edge pairs are ``(src, dst)`` original ids for directed graphs and
    ``(min, max)`` for undirected ones. :func:`fold_window` guarantees
    the added and deleted sets are disjoint.
    """

    nodes_added: np.ndarray
    nodes_deleted: np.ndarray
    add_src: np.ndarray
    add_dst: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray

    def empty(self) -> bool:
        """True when the window cancelled out to a structural no-op."""
        return not any(len(column) for column in self)


def _net(added: np.ndarray, *keys: np.ndarray):
    """``(net_added, net_deleted)`` key columns of an op stream, ascending.

    ``keys`` hold each op's key (first column primary) in log order and
    ``added`` whether it is an add. The mutators record only ops that
    took effect, so the ops on one key alternate between add and delete
    and its net effect is read off its first and last: both adds —
    absent before, present after; both deletes — the reverse; anything
    else cancels.
    """
    order = np.lexsort(keys[::-1])  # stable: a key's ops stay in log order
    added = added[order]
    keys = [key[order] for key in keys]
    # bounds[i]: op i starts a key's run; bounds[i + 1]: op i ends it.
    bounds = np.zeros(len(added) + 1, dtype=bool)
    bounds[[0, -1]] = True
    for key in keys:
        bounds[1:-1] |= key[1:] != key[:-1]
    first, last = bounds[:-1], bounds[1:]
    first_added, last_added = added[first], added[last]
    net_added = first_added & last_added
    net_deleted = ~(first_added | last_added)
    keys = [key[last] for key in keys]
    return [key[net_added] for key in keys], [key[net_deleted] for key in keys]


def fold_window(window: LogWindow, directed: bool) -> DeltaColumns:
    """Fold a log window into its net :class:`DeltaColumns`.

    Later ops cancel earlier ones: re-adding a deleted edge leaves it in
    neither column (it exists in both base and target, so the merge must
    not touch it), and deleting a node added within the window erases
    it. Undirected edge keys are normalised to ``(min, max)`` first.

    >>> log = MutationLog(0)
    >>> log.record(1, "add_edge", 1, 2); log.record(2, "del_edge", 1, 2)
    >>> log.record(3, "del_edge", 3, 4); log.record(4, "add_edge", 3, 1)
    >>> delta = fold_window(log.slice(0, 4), directed=True)
    >>> delta.add_src.tolist(), delta.add_dst.tolist()
    ([3], [1])
    >>> delta.del_src.tolist(), delta.del_dst.tolist()
    ([3], [4])
    """
    kinds, a, b = window
    node = kinds < ADD_EDGE
    (nodes_added,), (nodes_deleted,) = _net(kinds[node] == ADD_NODE, a[node])
    edge = ~node
    src, dst = a[edge], b[edge]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    (add_src, add_dst), (del_src, del_dst) = _net(kinds[edge] == ADD_EDGE, src, dst)
    return DeltaColumns(nodes_added, nodes_deleted, add_src, add_dst, del_src, del_dst)


def _exact_positions(
    haystack: np.ndarray, needles: np.ndarray, what: str
) -> np.ndarray:
    """Positions of ``needles`` in sorted ``haystack``; all must match."""
    positions, found = lookup(haystack, needles)
    if not found.all():
        raise DeltaError(f"dangling {what}: key not present in base")
    return positions


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
    old_ids, new_ids = old.node_ids, merged.node_ids
    deletes = np.searchsorted(old_ids, lo[gone]), np.searchsorted(old_ids, hi[gone])
    adds = np.searchsorted(new_ids, lo[born]), np.searchsorted(new_ids, hi[born])
    projection = old.merged(deletes, adds, False, remap)
    projection._is_projection = True
    return projection


def carry_projection(
    base: CSRGraph, merged: CSRGraph, delta: DeltaColumns, directed: bool
) -> CSRGraph:
    """``merged`` — ``base`` advanced by ``delta`` elsewhere — given the base's projection.

    A CSR-backed graph merged each batch into its own CSR as the batch
    was applied, so the refreshed snapshot is a wrap of that CSR and
    the base's cached undirected projection is all that is left to
    advance. Such batches keep the node set; a window that changes it
    raises :class:`DeltaError`.

    >>> base = CSRGraph.from_edges([1, 2], [2, 3]); _ = base.undirected_projection()
    >>> log = MutationLog(0); log.record(1, "add_edge", 3, 1)
    >>> delta = fold_window(log.slice(0, 1), directed=True)
    >>> merged = carry_projection(
    ...     base, CSRGraph.from_edges([1, 2, 3], [2, 3, 1]), delta, directed=True
    ... )
    >>> merged.undirected_projection().num_edges
    6
    """
    if len(delta.nodes_added) or len(delta.nodes_deleted):
        raise DeltaError("a node-set change cannot have been merged into a graph's CSR")
    if base._undirected is not None:
        try:
            merged._undirected = _carry_projection(
                base._undirected, merged, delta, directed, None
            )
        except GraphError as err:
            raise DeltaError(str(err)) from None
    return merged


def apply_delta(base: CSRGraph, columns: DeltaColumns, directed: bool) -> CSRGraph:
    """Merge a net delta into a base CSR; raises :class:`DeltaError`.

    The result matches ``CSRGraph.from_graph`` on the mutated graph
    array-for-array: :meth:`CSRGraph.merged
    <repro.graphs.csr.CSRGraph.merged>` expands each undirected delta
    edge into both orientations of the one shared array pair. When the
    base already caches its undirected projection, the result carries
    that projection forward too (equal to a fresh symmetrisation), so
    the triangle and k-core family need not re-sort it. The snapshot cache
    calls it for graphs on their hash table only: a CSR-backed graph's
    window is already merged into its own CSR (:func:`carry_projection`).

    >>> base = CSRGraph.from_edges([1, 2], [2, 3])
    >>> log = MutationLog(0); log.record(1, "add_edge", 3, 1)
    >>> apply_delta(base, fold_window(log.slice(0, 1), True), directed=True).num_edges
    3
    """
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
        remap = Remap(alive, np.searchsorted(new_ids, base_ids), new_ids)

    deletes = (
        _exact_positions(base_ids, columns.del_src, "edge-delete endpoint"),
        _exact_positions(base_ids, columns.del_dst, "edge-delete endpoint"),
    )
    adds = (
        _exact_positions(new_ids, columns.add_src, "edge-add endpoint"),
        _exact_positions(new_ids, columns.add_dst, "edge-add endpoint"),
    )
    try:
        merged = base.merged(deletes, adds, directed, remap)
        if base._undirected is not None:
            merged._undirected = _carry_projection(
                base._undirected, merged, columns, directed, remap
            )
    except GraphError as err:
        raise DeltaError(str(err)) from None
    return merged
