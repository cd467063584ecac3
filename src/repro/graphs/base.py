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
copying. The first mutation that changes structure materialises the
hash table from it once and drops it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.obs.spans import trace

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
    # (see repro.incremental.delta.MutationLog); None costs one attribute
    # load per mutation and nothing else.
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
        """Append one mutation to the attached delta log, if any.

        Called by the mutators *after* their version bump so the record
        carries the version the mutation produced. Inert (one attribute
        load, one ``None`` check) unless the snapshot cache attached a
        log for incremental maintenance.
        """
        log = self._delta_log
        if log is not None:
            log.record(self._version, kind, a, b)

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
