"""Shared machinery for Ringo graph objects (paper §2.2).

"Ringo supports dynamic graphs by representing a graph as a hash table of
nodes. Each node maintains sorted adjacency vector[s] of neighboring
nodes." The Python dict plays the node hash table; adjacency vectors are
sorted numpy int64 arrays, so membership is a binary search and edge
deletion is linear in the node degree — the trade-off against CSR the
paper describes (and the A2 ablation measures).

The paper chose the hash table *for dynamism*, and only a mutation needs
it. A graph built in bulk (the sort-first converter, restores) is born
holding a frozen CSR instead: a :class:`CSRBacking` of read-only arrays
that every read answers from and that the snapshot cache wraps without
copying. An ``ApplyOps`` batch that keeps the node set is merged into
the backing's rows (:func:`merge_rows`, one delete and one insert per
orientation) and installed as the next frozen backing, so such a graph
stays CSR-backed under batch churn and its next snapshot is again a
wrap. Any other structural mutation — a batch that adds, removes or
re-creates a node, or a single-op mutator — materialises the hash table
from the backing once and drops it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.exceptions import ConversionError, GraphError, NodeNotFoundError
from repro.obs.spans import trace
from repro.util.keys import sorted_codes

EMPTY_ADJACENCY = np.empty(0, dtype=np.int64)


def sorted_insert(array: np.ndarray, value: int) -> tuple[np.ndarray, bool]:
    """Insert ``value`` into a sorted array unless present.

    Returns ``(new_array, inserted)``; the input array is never mutated.
    O(degree), as the paper notes for adjacency updates.
    """
    position = int(np.searchsorted(array, value))
    if position < len(array) and array[position] == value:
        return array, False
    return np.insert(array, position, value), True


def sorted_remove(array: np.ndarray, value: int) -> tuple[np.ndarray, bool]:
    """Remove ``value`` from a sorted array if present.

    Returns ``(new_array, removed)``; the input array is never mutated.
    """
    position = int(np.searchsorted(array, value))
    if position < len(array) and array[position] == value:
        return np.delete(array, position), True
    return array, False


def sorted_contains(array: np.ndarray, value: int) -> bool:
    """Binary-search membership test on a sorted adjacency vector."""
    position = int(np.searchsorted(array, value))
    return bool(position < len(array) and array[position] == value)


def gather_adjacency(
    vectors: "list[np.ndarray]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(degrees, indptr, concatenated)`` of a list of adjacency vectors.

    The one bulk read of the node hash table that every graph→CSR and
    graph→table conversion shares: one ``len`` per vector, a prefix sum,
    and a single ``np.concatenate`` copying each vector once.
    """
    degrees = np.fromiter(map(len, vectors), dtype=np.int64, count=len(vectors))
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    if not vectors:
        return degrees, indptr, np.empty(0, dtype=np.int64)
    return degrees, indptr, np.concatenate(vectors)


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values: a sort and a neighbour mask, no hashing pass."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


# Edge keys ``row * m + col`` fit an int64 while ``m * m < 2**63``.
MAX_KEYED_NODES = 3_037_000_499


def dense_labels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``distinct(values)`` and each value's index in it.

    The codes come from :func:`repro.util.keys.sorted_codes`: node ids
    whose range spans at most ``len(values)`` (a bulk build's usual
    input) are coded by value with no sort, a few distinct ids against a
    sampled dictionary, and any others by one argsort. A range with gaps
    is compacted by a running count of the ids present.
    """
    codes, ids = sorted_codes(values)
    present = np.zeros(len(ids), dtype=bool)
    present[codes] = True
    if present.all():
        return ids, codes
    return ids[present], (np.cumsum(present) - 1)[codes]


def edge_keys(rows: np.ndarray, cols: np.ndarray, m: int) -> np.ndarray:
    """Sortable int64 edge keys ``row * m + col`` of dense labels below ``m``."""
    if m > MAX_KEYED_NODES:
        raise ConversionError(f"{m} nodes: int64 edge keys pair at most {MAX_KEYED_NODES}")
    return np.asarray(rows, dtype=np.int64) * m + cols


def keyed_rows(keys: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """``(out_rows, out_cols, in_rows, in_cols)`` of sorted edge keys.

    The in-rows split one sort of the transposed keys.
    """
    out_rows, out_cols = np.divmod(keys, m)
    in_rows, in_cols = np.divmod(np.sort(edge_keys(out_cols, out_rows, m)), m)
    return out_rows, out_cols, in_rows, in_cols


def row_pointer(rows: np.ndarray, m: int) -> np.ndarray:
    """CSR row pointer over ``m`` rows of sorted row labels."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))


def segment_lower_bound(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """First position in each sorted ``values[start:end]`` holding >= its target.

    One vectorised binary search over many rows of a gathered adjacency
    array at once: a numpy step per halving of the longest row, compared
    by value, so node ids of any int64 magnitude work (a ``row * 2**32 +
    col`` key would collide past 2**32). A row without such a value
    answers its ``end``.
    """
    lo = np.array(starts, dtype=np.int64)
    hi = np.array(ends, dtype=np.int64)
    last = len(values) - 1
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        right = active & (values[np.minimum(mid, last)] < targets)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
        active = lo < hi
    return lo


def _holds(
    values: np.ndarray, positions: np.ndarray, ends: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Whether each lower-bound position inside its row holds its target."""
    if not len(values):
        return np.zeros(len(positions), dtype=bool)
    return (positions < ends) & (values[np.minimum(positions, len(values) - 1)] == targets)


class Rows(NamedTuple):
    """Sorted adjacency rows of some nodes, gathered into one array.

    ``ids`` are ascending node ids (a node not in the graph has an empty
    row); row ``i`` is ``values[indptr[i]:indptr[i + 1]]``. A batch
    reads the rows it touches once, checks edges against them, and
    merges its net change into them as arrays.
    """

    ids: np.ndarray
    indptr: np.ndarray
    values: np.ndarray

    @classmethod
    def gather(cls, ids: np.ndarray, vectors: "list[np.ndarray]") -> "Rows":
        """Rows from one vector per id (in ``ids`` order)."""
        _, indptr, values = gather_adjacency(vectors)
        return cls(ids, indptr, values)

    def contain(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Whether row-owner ``rows[i]`` (an id in ``ids``) holds ``cols[i]``."""
        index = np.searchsorted(self.ids, rows)
        ends = self.indptr[index + 1]
        positions = segment_lower_bound(self.values, self.indptr[index], ends, cols)
        return _holds(self.values, positions, ends, cols)

    def merged(
        self,
        del_rows: np.ndarray,
        del_cols: np.ndarray,
        add_rows: np.ndarray,
        add_cols: np.ndarray,
    ) -> "Rows":
        """The rows after deleting, then inserting, the given entries.

        Row owners are ids in ``ids``. Every deleted entry must be
        present and no added one may be (:class:`GraphError` otherwise).
        One ``np.delete`` and one ``np.insert`` over all rows together,
        however many rows and entries.
        """
        ids, indptr, values = self
        degrees = np.diff(indptr)
        if len(del_rows):
            rows = np.searchsorted(ids, del_rows)
            ends = indptr[rows + 1]
            positions = segment_lower_bound(values, indptr[rows], ends, del_cols)
            if not _holds(values, positions, ends, del_cols).all():
                raise GraphError("batch delete of an entry its row does not hold")
            values = np.delete(values, positions)
            degrees = degrees - np.bincount(rows, minlength=len(ids))
            indptr = np.concatenate(([0], np.cumsum(degrees)))
        if len(add_rows):
            order = np.lexsort((add_cols, add_rows))
            rows = np.searchsorted(ids, add_rows[order])
            add_cols = add_cols[order]
            ends = indptr[rows + 1]
            positions = segment_lower_bound(values, indptr[rows], ends, add_cols)
            if _holds(values, positions, ends, add_cols).any():
                raise GraphError("batch insert of an entry its row already holds")
            # np.insert places equal positions in the order given: by column.
            values = np.insert(values, positions, add_cols)
            degrees = degrees + np.bincount(rows, minlength=len(ids))
            indptr = np.concatenate(([0], np.cumsum(degrees)))
        return Rows(ids, indptr, values)

    def copies(self) -> "Iterator[tuple[int, np.ndarray]]":
        """``(node, row)`` pairs, each row its own copy.

        A view would keep the whole gathered array alive for as long as
        its row lives.
        """
        indptr = self.indptr.tolist()
        values = self.values
        rows = [values[start:end].copy() for start, end in zip(indptr, indptr[1:])]
        return zip(self.ids.tolist(), rows)


def both_ways(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries ``(r, c)`` and their mirrors ``(c, r)``; a loop appears once."""
    mirror = rows != cols
    return (
        np.concatenate([rows, cols[mirror]]),
        np.concatenate([cols, rows[mirror]]),
    )


class Remap(NamedTuple):
    """How old dense ids move when a change alters the node set."""

    alive: np.ndarray       # old dense id survives the change
    old_to_new: np.ndarray  # its new dense id (meaningful where alive)
    count: int              # new node count


_NO_ENTRIES = np.empty(0, dtype=np.int64)


def merge_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    deletes: "tuple[np.ndarray, np.ndarray]",
    adds: "tuple[np.ndarray, np.ndarray]",
    remap: "Remap | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One CSR orientation after deleting, remapping and inserting entries.

    The one row-merge kernel: a graph merging a batch into its backing
    and the snapshot cache merging a delta into a stale snapshot both
    call it. ``deletes`` are ``(rows, cols)`` in old dense ids, ``adds``
    in new ones; ``remap`` is ``None`` when the node set is unchanged.
    Each step is a :meth:`Rows.merged` over the touched rows only: one
    ``np.delete``, one ``np.insert``, and — only with a remap — one
    gather over the kept entries. Every row stays sorted because the
    remap is monotone and the deleted nodes' rows are empty by then.
    Returns fresh arrays; raises :class:`GraphError` when a delete is
    not held, a deleted node keeps an entry, or an add is already held.

    >>> indptr, indices = merge_rows(
    ...     np.array([0, 1, 2]), np.array([1, 0]),
    ...     (np.array([0]), np.array([1])), (np.array([1]), np.array([1])),
    ... )
    >>> indptr.tolist(), indices.tolist()
    ([0, 0, 2], [0, 1])
    """
    rows = Rows(np.arange(len(indptr) - 1), indptr, indices)
    try:
        rows = rows.merged(*deletes, _NO_ENTRIES, _NO_ENTRIES)
    except GraphError:
        raise GraphError("dangling delete: key not present in base") from None
    if remap is not None:
        degrees = np.diff(rows.indptr)
        if degrees[~remap.alive].any():
            raise GraphError("a deleted node still has retained edges")
        new_degrees = np.zeros(remap.count, dtype=np.int64)
        new_degrees[remap.old_to_new[remap.alive]] = degrees[remap.alive]
        rows = Rows(
            np.arange(remap.count),
            np.concatenate(([0], np.cumsum(new_degrees))),
            remap.old_to_new[rows.values],
        )
    try:
        rows = rows.merged(_NO_ENTRIES, _NO_ENTRIES, *adds)
    except GraphError:
        raise GraphError("merged edge keys are not strictly increasing") from None
    return rows.indptr, rows.values


class NetChange(NamedTuple):
    """The net structural effect of one op batch, resolved against a graph.

    Built by :func:`repro.incremental.ingest.resolve_ops`, which has
    already checked every op, and handed to the graph's ``_apply_net``.
    Edge pairs are ``(src, dst)`` for directed graphs and ``(min, max)``
    for undirected ones. Net-deleted edges were present before the batch
    and net-added ones were absent, so the two sets are disjoint.
    """

    #: Present before, absent after: their records are dropped.
    removed_nodes: np.ndarray
    #: Appended to the node table in this order. New nodes, and nodes a
    #: ``del_node`` removed that a later op created again: sequential
    #: re-insertion would have moved those to the end.
    placed_nodes: np.ndarray
    #: The placed nodes that were absent before the batch.
    added_nodes: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray
    add_src: np.ndarray
    add_dst: np.ndarray
    #: Every node an applied ``del_node`` removed, and every pair an
    #: applied ``del_edge`` removed, re-created later or not: the
    #: attribute stores of a :class:`~repro.graphs.network.Network`
    #: forget those, as the single-op mutators do.
    deleted_nodes: np.ndarray
    deleted_src: np.ndarray
    deleted_dst: np.ndarray
    #: The rows the change touches, read before it: the out-rows of
    #: every source above (undirected: the rows of both endpoints),
    #: and possibly of nodes it leaves absent, whose rows go unused.
    out_rows: Rows

    def structural(self) -> bool:
        """Whether the node or edge set changes (the version must step)."""
        return bool(
            len(self.removed_nodes) or len(self.added_nodes)
            or len(self.del_src) or len(self.add_src)
        )


def readonly(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (callers must not mutate adjacency)."""
    view = array.view()
    view.flags.writeable = False
    return view


class CSRBacking(NamedTuple):
    """The frozen CSR a bulk-built graph answers its reads from.

    ``node_ids`` is sorted ascending and doubles as the graph's node
    order; the indices are dense positions into it and every row is
    sorted. All five arrays are read-only, so graphs, copies and CSR
    snapshots can share them. An undirected backing stores its one
    symmetric orientation as both ``out`` and ``in``.
    """

    node_ids: np.ndarray
    out_indptr: np.ndarray
    out_indices: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray

    def index(self, node_id) -> int:
        """Dense index of ``node_id``, or -1 when it is not a node."""
        ids = self.node_ids
        try:
            position = int(np.searchsorted(ids, node_id))
        except (TypeError, ValueError, OverflowError):
            return -1  # not an id at all, as a dict lookup would say
        if position < len(ids) and ids[position] == node_id:
            return position
        return -1

    def indices_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Dense index of each id in an int64 array, -1 where it is not a node."""
        ids = self.node_ids
        if not len(ids):
            return np.full(len(node_ids), -1, dtype=np.int64)
        positions = np.minimum(np.searchsorted(ids, node_ids), len(ids) - 1)
        return np.where(ids[positions] == node_ids, positions, -1)

    def out_row(self, index: int) -> np.ndarray:
        """Dense out-neighbours of the node at ``index`` (a view)."""
        return self.out_indices[self.out_indptr[index]:self.out_indptr[index + 1]]

    def in_row(self, index: int) -> np.ndarray:
        """Dense in-neighbours of the node at ``index`` (a view)."""
        return self.in_indices[self.in_indptr[index]:self.in_indptr[index + 1]]

    def has_arc(self, src: int, dst: int) -> bool:
        """Whether the out-row of ``src`` holds ``dst`` (original ids)."""
        row = self.index(src)
        col = self.index(dst)
        return row >= 0 and col >= 0 and sorted_contains(self.out_row(row), col)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every out-arc as fresh ``(src, dst)`` arrays of original ids."""
        ids = self.node_ids
        return np.repeat(ids, np.diff(self.out_indptr)), ids[self.out_indices]

    def merged(self, change: NetChange, directed: bool) -> "CSRBacking":
        """A new backing: this one with a net change that keeps the node set.

        Every endpoint of the change is a node already, so its edges are
        dense ids by one ``searchsorted`` each; :func:`merge_rows` then
        merges them into both orientations (undirected: into the one
        symmetric orientation, both ways). This backing is untouched, so
        snapshots and copies that share its arrays stay valid.
        """
        ids = self.node_ids
        deletes = np.searchsorted(ids, change.del_src), np.searchsorted(ids, change.del_dst)
        adds = np.searchsorted(ids, change.add_src), np.searchsorted(ids, change.add_dst)
        if not directed:
            indptr, indices = map(readonly, merge_rows(
                self.out_indptr, self.out_indices, both_ways(*deletes), both_ways(*adds)
            ))
            return CSRBacking(ids, indptr, indices, indptr, indices)
        out_indptr, out_indices = merge_rows(
            self.out_indptr, self.out_indices, deletes, adds
        )
        in_indptr, in_indices = merge_rows(
            self.in_indptr, self.in_indices, deletes[::-1], adds[::-1]
        )
        return CSRBacking(
            ids, readonly(out_indptr), readonly(out_indices),
            readonly(in_indptr), readonly(in_indices),
        )

    def memory_bytes(self) -> int:
        """Bytes held by the distinct arrays (undirected ones share two)."""
        distinct = {id(array): array.nbytes for array in self}
        return sum(distinct.values())


class GraphBase:
    """Behaviour shared by the directed and undirected graph classes.

    Subclasses supply ``_nodes`` (the node hash table) and the edge
    bookkeeping; this base provides the derived queries algorithms use.
    While ``_csr`` holds a :class:`CSRBacking`, ``_nodes`` is ``None``
    and every read goes to the backing instead.

    Every structural mutation bumps :attr:`version`, a cheap monotonic
    counter. Snapshot consumers (the CSR cache in
    :mod:`repro.graphs.snapshot`) memoise on ``(graph, version)``, so an
    unchanged graph can be re-analysed without re-converting while any
    add/delete automatically invalidates stale snapshots.
    """

    _nodes: "dict | None"
    _csr: "CSRBacking | None" = None
    _version: int = 0
    # Attached by the snapshot cache when incremental maintenance is on
    # (repro.incremental.delta.MutationLog, one int64 row per mutation);
    # None costs one attribute load per mutation and nothing else.
    _delta_log = None

    @property
    def version(self) -> int:
        """Monotonic structure version; bumped by every mutating op.

        Two reads returning the same value guarantee no node or edge was
        added or removed in between — the contract the snapshot cache
        relies on. Attribute-only updates (e.g. ``Network`` attributes)
        do not change structure and do not bump it.
        """
        return self._version

    def _bump_version(self) -> None:
        """Record one structural mutation (invalidates cached snapshots)."""
        self._version += 1

    def _record_delta(self, kind: str, a: int = -1, b: int = -1) -> None:
        """Append one mutation row to the attached delta log, if any.

        Called by the single-op mutators *after* their version bump so
        the row carries the version the mutation produced. Inert (one
        attribute load, one ``None`` check) unless the snapshot cache
        attached a log for incremental maintenance.
        """
        log = self._delta_log
        if log is not None:
            log.record(self._version, kind, a, b)

    def _record_runs(self, *runs) -> None:
        """Append ``(kind, a, b)`` runs of rows (int64 arrays, scalars
        broadcast) to the attached log in one extend, if there is one."""
        log = self._delta_log
        if log is not None:
            log.record_many(self._version, runs)

    def _record_net(self, change: NetChange) -> None:
        """Append a batch's net change, deletes first, at one version."""
        self._record_runs(
            ("del_edge", change.del_src, change.del_dst),
            ("del_node", change.removed_nodes, -1),
            ("add_node", change.added_nodes, -1),
            ("add_edge", change.add_src, change.add_dst),
        )

    def _poison_delta(self, reason: str) -> None:
        """Mark the attached delta log unusable (bulk-install paths)."""
        log = self._delta_log
        if log is not None:
            log.poison(reason)

    # ------------------------------------------------------------------
    # The CSR backing
    # ------------------------------------------------------------------

    def _install_csr(self, backing: CSRBacking, num_edges: int) -> None:
        """Adopt a frozen CSR as the whole graph — bulk construction only.

        The caller guarantees sorted unique ``node_ids``, sorted rows
        and read-only arrays. One version bump, like any other bulk
        install, and a log attached to the old state cannot replay it.
        """
        self._csr = backing
        self._nodes = None
        self._num_edges = num_edges
        self._bump_version()
        self._poison_delta("bulk CSR install")

    def _merge_into_backing(self, change: NetChange) -> bool:
        """Apply a structural batch change to the backing; False if it cannot.

        A CSR-backed graph whose batch keeps its node set (nothing
        removed, nothing placed at the end of the node order) stays
        backed: the change is merged into the backing's rows and the
        result installed as the new frozen backing, with one version
        bump and one log append, like the record path. Any other batch,
        or a graph already on its hash table, returns False untouched.
        """
        backing = self._csr
        if backing is None or len(change.placed_nodes) or len(change.removed_nodes):
            return False
        self._csr = backing.merged(change, self.is_directed)
        self._num_edges += len(change.add_src) - len(change.del_src)
        self._bump_version()
        self._record_net(change)
        return True

    def _materialise(self, op: str) -> None:
        """Build the node hash table from the backing, then drop it.

        Called by the first mutator that will change structure (``op``
        names it). The graph's structure does not change here, so the
        version does not move: the cached snapshot and a mutation log
        anchored at this version both stay valid.
        """
        backing = self._csr
        with trace("graph.materialise", nodes=len(backing.node_ids), op=op):
            self._nodes = self._records_from(backing)
            self._csr = None

    def _records_from(self, backing: CSRBacking) -> dict:
        """The node hash table equivalent to ``backing`` (subclass hook)."""
        raise NotImplementedError

    def _out_vectors(self, node_ids: "list[int]") -> "list[np.ndarray]":
        """The sorted out-row of each listed node, empty when absent (hook)."""
        raise NotImplementedError

    def _has_nodes(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_node` over an int64 array (bool array)."""
        backing = self._csr
        if backing is not None:
            return backing.indices_of(node_ids) >= 0
        nodes = self._nodes
        return np.fromiter(
            (node in nodes for node in node_ids.tolist()), dtype=bool, count=len(node_ids)
        )

    def _out_rows(self, node_ids: np.ndarray) -> Rows:
        """The out-rows (undirected: rows) of ascending ``node_ids``, gathered.

        A CSR-backed graph slices them out of its backing in one
        vectorised gather; a materialised one concatenates its vectors.
        """
        backing = self._csr
        if backing is None:
            return Rows.gather(node_ids, self._out_vectors(node_ids.tolist()))
        dense = backing.indices_of(node_ids)
        known = dense >= 0
        dense = np.where(known, dense, 0)
        starts = backing.out_indptr[dense]
        lengths = np.where(known, backing.out_indptr[dense + 1] - starts, 0)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        flat = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Rows(node_ids, indptr, backing.node_ids[backing.out_indices[flat]])

    def _dense_index(self, backing: CSRBacking, node_id) -> int:
        """Dense index of ``node_id`` in ``backing``; raises if absent."""
        index = backing.index(node_id)
        if index < 0:
            raise NodeNotFoundError(node_id)
        return index

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node_id: int) -> bool:
        return self.has_node(node_id)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        backing = self._csr
        if backing is not None:
            return len(backing.node_ids)
        return len(self._nodes)

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` is present."""
        backing = self._csr
        if backing is not None:
            return backing.index(node_id) >= 0
        return node_id in self._nodes

    def nodes(self) -> Iterator[int]:
        """Iterate node ids: insertion order, or ascending when CSR-backed."""
        backing = self._csr
        if backing is not None:
            return iter(backing.node_ids.tolist())
        return iter(self._nodes)

    def node_array(self) -> np.ndarray:
        """All node ids as a fresh int64 array, in :meth:`nodes` order."""
        backing = self._csr
        if backing is not None:
            return backing.node_ids.copy()
        return np.fromiter(self._nodes.keys(), dtype=np.int64, count=len(self._nodes))

    def _require_node(self, node_id: int) -> None:
        if not self.has_node(node_id):
            raise NodeNotFoundError(node_id)

    def max_node_id(self) -> int:
        """Largest node id, or -1 for an empty graph."""
        backing = self._csr
        if backing is not None:
            return int(backing.node_ids[-1]) if len(backing.node_ids) else -1
        return max(self._nodes, default=-1)
