"""Compressed Sparse Row snapshot — the representation Ringo decided
*against* for its dynamic graphs (paper §2.2), used here for three
reasons:

* the A2 ablation benchmark measures the design trade-off the paper
  describes (CSR traversal speed vs prohibitive update cost);
* the bulk analytics kernels (PageRank, triangles) run fastest over a
  CSR snapshot, mirroring how Ringo's C++ loops stream over contiguous
  adjacency data; and
* it is also the bulk representation: a graph the sort-first converter
  builds is born holding a :class:`CSRGraph` over read-only arrays, and
  its snapshot wraps those five arrays without a copy. An ``ApplyOps``
  batch that keeps the node set is merged into a new one
  (:meth:`CSRGraph.merged`); the node hash table is built only when
  some other mutation first changes the graph.

A :class:`CSRGraph` is immutable. Node ids are densified to ``0..n-1``;
``node_ids[dense]`` recovers the original id and :meth:`dense_of` maps
the other way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graphs.base import (
    Remap,
    both_ways,
    dense_labels,
    distinct,
    edge_keys,
    gather_adjacency,
    keyed_rows,
    lookup,
    merge_rows,
    readonly,
    row_pointer,
    sorted_contains,
)

if TYPE_CHECKING:
    from repro.graphs.directed import DirectedGraph
    from repro.graphs.undirected import UndirectedGraph


class CSRGraph:
    """Immutable CSR snapshot of a directed graph (in- and out-adjacency).

    >>> csr = CSRGraph.from_edges([0, 0, 1], [1, 2, 2])
    >>> csr.out_neighbors(0).tolist()
    [1, 2]
    >>> csr.num_edges
    3
    """

    def __init__(
        self,
        node_ids: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
    ) -> None:
        self._node_ids = np.ascontiguousarray(node_ids, dtype=np.int64)
        self._out_indptr = np.ascontiguousarray(out_indptr, dtype=np.int64)
        self._out_indices = np.ascontiguousarray(out_indices, dtype=np.int64)
        self._in_indptr = np.ascontiguousarray(in_indptr, dtype=np.int64)
        self._in_indices = np.ascontiguousarray(in_indices, dtype=np.int64)
        # Derived kernel inputs, computed lazily and exactly once — the
        # snapshot is immutable, so every algorithm invocation on the
        # same CSR shares these instead of rebuilding them per call.
        self._out_degrees: np.ndarray | None = None
        self._in_degrees: np.ndarray | None = None
        self._edge_sources: np.ndarray | None = None
        self._num_self_loops: int | None = None
        self._undirected: "CSRGraph | None" = None
        # A projection answers its own undirected_projection() by this
        # flag, not by pointing at itself: a self-reference would make
        # every dropped projection wait for a gen-2 GC pass to be freed.
        self._is_projection = False
        self._degree_rank: "np.ndarray | None" = None
        self._forward: "tuple[np.ndarray, np.ndarray] | None" = None
        self._forward_edge_keys: "np.ndarray | None" = None
        self._triangle_counts: "np.ndarray | None" = None
        self._out_edge_keys: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        sources: "np.ndarray | list[int]",
        targets: "np.ndarray | list[int]",
        deduplicate: bool = True,
    ) -> "CSRGraph":
        """Build from parallel edge arrays of original node ids.

        Node set = union of endpoints; parallel edges are removed unless
        ``deduplicate=False``.
        """
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if len(sources) != len(targets):
            raise GraphError("edge arrays must have equal length")
        node_ids, labels = dense_labels(np.concatenate([sources, targets]))
        return cls._from_dense_edges(
            node_ids, labels[: len(sources)], labels[len(sources) :], deduplicate
        )

    @classmethod
    def _from_dense_edges(
        cls, node_ids: np.ndarray, dense_src, dense_dst, deduplicate: bool = False
    ) -> "CSRGraph":
        count = len(node_ids)
        keys = edge_keys(dense_src, dense_dst, count)
        keys = distinct(keys) if deduplicate else np.sort(keys)
        out_src, out_dst, in_dst, in_src = keyed_rows(keys, count)
        return cls(
            node_ids, row_pointer(out_src, count), out_dst, row_pointer(in_dst, count), in_src
        )

    @classmethod
    def from_graph(cls, graph: "DirectedGraph | UndirectedGraph") -> "CSRGraph":
        """Snapshot a dynamic graph (undirected edges become symmetric).

        A CSR-backed graph is wrapped: a new snapshot over the five
        read-only arrays of the graph's own CSR, O(1), with its derived
        arrays still to be computed (the graph's CSR never caches any). Otherwise one build path for all inputs — isolated
        nodes are included from the start, so no
        mismatch-detect-and-rebuild ever happens. The
        dynamic adjacency vectors are already sorted, so the build skips
        the edge-key sort: it gathers the vectors in node-id order
        (degrees, row pointers and one concatenate) and densifies them
        with one ``searchsorted`` per direction. Each row stays sorted
        because both the vectors and ``node_ids`` are.
        """
        csr = graph._csr
        if csr is not None:
            return cls(
                csr._node_ids, csr._out_indptr, csr._out_indices,
                csr._in_indptr, csr._in_indices,
            )
        node_ids = np.sort(graph.node_array())
        rows = [graph._nodes[node] for node in node_ids.tolist()]
        if graph.is_directed:
            _, out_indptr, out_dst = gather_adjacency([r.out_nbrs for r in rows])
            _, in_indptr, in_src = gather_adjacency([r.in_nbrs for r in rows])
            return cls(
                node_ids,
                out_indptr,
                np.searchsorted(node_ids, out_dst),
                in_indptr,
                np.searchsorted(node_ids, in_src),
            )
        _, indptr, nbrs = gather_adjacency(rows)
        indices = np.searchsorted(node_ids, nbrs)
        # Undirected adjacency is symmetric: out- and in-CSR share the
        # same physical arrays (the snapshot is immutable).
        return cls(node_ids, indptr, indices, indptr, indices)

    # ------------------------------------------------------------------
    # Queries (dense indices unless stated otherwise)
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._out_indices)

    @property
    def node_ids(self) -> np.ndarray:
        """Original node id per dense index (sorted ascending)."""
        return readonly(self._node_ids)

    @property
    def out_indptr(self) -> np.ndarray:
        """CSR row pointer for out-adjacency."""
        return readonly(self._out_indptr)

    @property
    def out_indices(self) -> np.ndarray:
        """CSR column indices for out-adjacency (dense ids)."""
        return readonly(self._out_indices)

    @property
    def in_indptr(self) -> np.ndarray:
        """CSR row pointer for in-adjacency."""
        return readonly(self._in_indptr)

    @property
    def in_indices(self) -> np.ndarray:
        """CSR column indices for in-adjacency (dense ids)."""
        return readonly(self._in_indices)

    def find(self, original_id) -> int:
        """Dense index of an original node id, or -1 when it is not a node.

        Binary search, no dict; anything that is not an id at all is not
        a node, as a dict lookup would say.
        """
        ids = self._node_ids
        try:
            position = int(np.searchsorted(ids, original_id))
        except (TypeError, ValueError, OverflowError):
            return -1
        if position < len(ids) and ids[position] == original_id:
            return position
        return -1

    def dense_of(self, original_id: int) -> int:
        """Dense index of an original node id; raises when it is not a node."""
        position = self.find(original_id)
        if position < 0:
            raise NodeNotFoundError(original_id)
        return position

    def dense_of_array(self, original_ids) -> np.ndarray:
        """Vectorised dense-id mapper: ``searchsorted`` over ``node_ids``.

        Accepts any array-like of original ids and returns the dense
        index of each; raises :class:`NodeNotFoundError` naming the first
        unknown id. This replaces per-id Python-dict lookups with one
        vectorised binary search, so bulk translations (personalisation
        vectors, link-prediction pairs) cost O(k log n) numpy work.

        >>> csr = CSRGraph.from_edges([10, 10], [20, 30])
        >>> csr.dense_of_array([30, 10]).tolist()
        [2, 0]
        """
        original_ids = np.ascontiguousarray(original_ids, dtype=np.int64)
        positions, found = lookup(self._node_ids, original_ids)
        if not found.all():
            raise NodeNotFoundError(int(original_ids[np.argmin(found)]))
        return positions

    def has_arc(self, src, dst) -> bool:
        """Whether the out-row of ``src`` holds ``dst`` (original ids)."""
        row = self.find(src)
        col = self.find(dst)
        return row >= 0 and col >= 0 and sorted_contains(
            self._out_indices[self._out_indptr[row]:self._out_indptr[row + 1]], col
        )

    def out_neighbors(self, dense: int) -> np.ndarray:
        """Out-neighbours (dense ids, sorted) of a dense node index."""
        return readonly(
            self._out_indices[self._out_indptr[dense]:self._out_indptr[dense + 1]]
        )

    def in_neighbors(self, dense: int) -> np.ndarray:
        """In-neighbours (dense ids, sorted) of a dense node index."""
        return readonly(
            self._in_indices[self._in_indptr[dense]:self._in_indptr[dense + 1]]
        )

    def out_degrees(self) -> np.ndarray:
        """Out-degree per dense node index (cached, read-only)."""
        if self._out_degrees is None:
            self._out_degrees = np.diff(self._out_indptr)
            self._out_degrees.flags.writeable = False
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        """In-degree per dense node index (cached, read-only)."""
        if self._in_degrees is None:
            self._in_degrees = np.diff(self._in_indptr)
            self._in_degrees.flags.writeable = False
        return self._in_degrees

    def edge_sources(self) -> np.ndarray:
        """Source dense id per out-edge, aligned with :attr:`out_indices`.

        The edge-list companion every scatter-add kernel (PageRank, HITS,
        Katz, ANF, …) needs; computed once per snapshot instead of a
        fresh ``np.repeat`` per algorithm invocation. Read-only.

        >>> CSRGraph.from_edges([0, 0, 1], [1, 2, 2]).edge_sources().tolist()
        [0, 0, 1]
        """
        if self._edge_sources is None:
            self._edge_sources = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), self.out_degrees()
            )
            self._edge_sources.flags.writeable = False
        return self._edge_sources

    def num_self_loops(self) -> int:
        """Number of self-loop edges in the snapshot (cached)."""
        if self._num_self_loops is None:
            self._num_self_loops = int(
                np.sum(self.edge_sources() == self._out_indices)
            )
        return self._num_self_loops

    def undirected_projection(self) -> "CSRGraph":
        """Symmetrised, loop-free CSR over the same node ids (cached).

        The shared input of the triangle/clustering/community family and
        of the k-core peel; one symmetrisation serves every such call on
        this snapshot. Each non-loop edge contributes the keys ``u*n + v``
        and ``v*n + u`` (:func:`~repro.graphs.base.edge_keys`); one sort
        and a neighbour-inequality mask deduplicate them, so ``divmod``
        gives rows sorted by source and then target, and one ``bincount``
        gives the row pointer. (Not plain ``np.unique``: on numpy 2.x it
        takes a hashing path, ~40x slower than the sort for these keys.)
        The edge set is symmetric, so the out- and in-CSR share the same
        arrays, as in :meth:`from_graph` for an undirected graph. A
        projection is its own projection, so chained calls (e.g. girth
        after triangles) share one object. A snapshot the incremental
        engine refreshed from a base that had its projection is born
        holding one, carried forward by the delta merge, not re-sorted.
        """
        if self._is_projection:
            return self
        if self._undirected is None:
            self._undirected = self._symmetrise()
        return self._undirected

    def _symmetrise(self) -> "CSRGraph":
        """A fresh projection, built as :meth:`undirected_projection` says.

        Uncached: the delta sanitizer compares a carried-forward
        projection against it.
        """
        count = self.num_nodes
        src = self.edge_sources()
        dst = self._out_indices
        keep = src != dst
        src, dst = src[keep], dst[keep]
        keys = distinct(
            np.concatenate([edge_keys(src, dst, count), edge_keys(dst, src, count)])
        )
        rows, indices = np.divmod(keys, count)
        indptr = row_pointer(rows, count)
        projection = CSRGraph(self._node_ids, indptr, indices, indptr, indices)
        projection._is_projection = True
        return projection

    def degree_rank(self) -> np.ndarray:
        """Each dense node's position in ascending ``(degree, id)`` order.

        The orientation of :meth:`forward_adjacency`, whose rows and
        columns are these ranks. Cached and read-only.

        >>> sym = CSRGraph.from_edges([0, 1, 2, 2], [1, 2, 0, 3]).undirected_projection()
        >>> sym.degree_rank().tolist()
        [1, 2, 3, 0]
        """
        if self._degree_rank is None:
            count = self.num_nodes
            rank = np.empty(count, dtype=np.int64)
            rank[np.lexsort((np.arange(count), self.out_degrees()))] = np.arange(count)
            rank.flags.writeable = False
            self._degree_rank = rank
        return self._degree_rank

    def forward_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank-ordered forward adjacency ``(indptr, indices)`` (cached).

        Nodes are relabelled by :meth:`degree_rank`, and row ``r`` holds
        the ranks of its neighbours above ``r``, ascending — the
        orientation that lets the triangle kernel close every triangle
        exactly once at its lowest-ranked vertex while hub work collapses
        to the O(m^1.5) bound. Because each row is rank-sorted, a forward
        edge needs only the row entries after it as wedge partners. One
        sort of the ``r*n + s`` keys builds it (see
        :meth:`forward_edge_keys`). Like the other derived arrays this is
        computed once per snapshot.

        Defined on a symmetric CSR such as the undirected projection,
        which stores each edge ``{u, v}`` as both arcs: the arcs with
        ``v > u`` (the tail of each sorted row) name every edge once,
        and each is keyed by its lower rank, then its higher.
        """
        if self._forward is None:
            count = self.num_nodes
            rank = self.degree_rank()
            src = self.edge_sources()
            dst = self._out_indices
            upper = dst > src
            a, b = rank[src[upper]], rank[dst[upper]]
            keys = np.sort(np.minimum(a, b) * count + np.maximum(a, b))
            rows, findices = np.divmod(keys, count)
            findptr = row_pointer(rows, count)
            for array in (keys, findptr, findices):
                array.flags.writeable = False
            self._forward_edge_keys = keys
            self._forward = (findptr, findices)
        return self._forward

    def forward_edge_keys(self) -> np.ndarray:
        """Each forward edge ``(r, s)`` as the sortable key ``r*n + s``.

        The binary-search side of the triangle kernel's wedge-closure
        test, in the rank labels of :meth:`forward_adjacency`; globally
        ascending. Built with the forward adjacency and cached with it.
        """
        self.forward_adjacency()
        return self._forward_edge_keys

    def triangle_counts(self, pool=None) -> np.ndarray:
        """Triangles through each dense node of the projection (cached).

        Filled by the first caller, on the undirected projection —
        :func:`~repro.algorithms.triangles.triangle_count_array` run over
        ``pool`` (inline without one), whose answer does not depend on
        the pool — and shared by every later triangle and clustering
        call on this snapshot. Read-only.

        >>> CSRGraph.from_edges([0, 1, 2, 2], [1, 2, 0, 3]).triangle_counts().tolist()
        [1, 1, 1, 0]
        """
        sym = self.undirected_projection()
        if sym._triangle_counts is None:
            from repro.algorithms.triangles import triangle_count_array

            counts = triangle_count_array(sym, pool=pool)
            counts.flags.writeable = False
            sym._triangle_counts = counts
        return sym._triangle_counts

    def out_edge_keys(self) -> np.ndarray:
        """Each out edge ``(src, dst)`` as the sortable key ``src*n + dst``.

        Globally ascending for a simple graph (rows are sorted and
        grouped by ascending source), which makes whole-edge-set
        membership a single vectorised binary search — the delta
        sanitizer's no-dangling-delete / added-edge-present checks and
        the incremental triangle advance. Cached like the other derived
        arrays; built from the row starts, so it does not also cache
        :meth:`edge_sources`.
        """
        if self._out_edge_keys is None:
            count = self.num_nodes
            row_keys = np.arange(count, dtype=np.int64) * count
            keys = np.repeat(row_keys, self.out_degrees()) + self._out_indices
            keys.flags.writeable = False
            self._out_edge_keys = keys
        return self._out_edge_keys

    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (Table 2 / A2 accounting).

        Each distinct array counts once: an undirected CSR stores its one
        symmetric orientation as both ``out`` and ``in``.
        """
        arrays = (
            self._node_ids, self._out_indptr, self._out_indices,
            self._in_indptr, self._in_indices,
        )
        return sum({id(array): array.nbytes for array in arrays}.values())

    def merged(
        self,
        deletes: "tuple[np.ndarray, np.ndarray]",
        adds: "tuple[np.ndarray, np.ndarray]",
        directed: bool,
        remap: "Remap | None" = None,
    ) -> "CSRGraph":
        """A new CSR: this one after deleting, remapping and inserting arcs.

        ``deletes`` are ``(src, dst)`` dense ids of this CSR, ``adds``
        dense ids after the ``remap`` (``None`` when the node set is
        unchanged). Each orientation goes through
        :func:`~repro.graphs.base.merge_rows` and touches only the rows
        the change names. Undirected, each pair is merged both ways into
        the one symmetric orientation, which the result stores as both
        ``out`` and ``in``. The arrays are fresh and read-only, and this
        CSR is untouched, so a graph's CSR merges into its next one
        while snapshots and copies keep sharing the old arrays. Raises
        :class:`GraphError` as ``merge_rows`` does.

        >>> csr = CSRGraph.from_edges([1, 2], [2, 3])
        >>> csr.merged((np.array([0]), np.array([1])), (np.array([2]), np.array([0])),
        ...            directed=True).out_indices.tolist()
        [2, 0]
        """
        node_ids = self._node_ids if remap is None else readonly(remap.node_ids)
        if not directed:
            indptr, indices = map(readonly, merge_rows(
                self._out_indptr, self._out_indices,
                both_ways(*deletes), both_ways(*adds), remap,
            ))
            return CSRGraph(node_ids, indptr, indices, indptr, indices)
        out = merge_rows(self._out_indptr, self._out_indices, deletes, adds, remap)
        into = merge_rows(
            self._in_indptr, self._in_indices, deletes[::-1], adds[::-1], remap
        )
        return CSRGraph(node_ids, *map(readonly, out + into))

    def __repr__(self) -> str:
        return f"CSRGraph({self.num_nodes} nodes, {self.num_edges} edges)"

    # ------------------------------------------------------------------
    # The §2.2 design discussion: CSR updates are O(E)
    # ------------------------------------------------------------------

    def with_edge_deleted(self, src: int, dst: int) -> "CSRGraph":
        """A new CSR with one edge removed — deliberately O(E).

        The paper rejects CSR for dynamic graphs because "deleting a
        single edge requires time linear in the total number of edges".
        This method exists so the A2 ablation can measure that cost; it
        rebuilds both index arrays.
        """
        dense_src = self.dense_of(src)
        dense_dst = self.dense_of(dst)
        span = slice(self._out_indptr[dense_src], self._out_indptr[dense_src + 1])
        local = np.searchsorted(self._out_indices[span], dense_dst)
        position = int(self._out_indptr[dense_src]) + int(local)
        if (
            position >= self._out_indptr[dense_src + 1]
            or self._out_indices[position] != dense_dst
        ):
            raise GraphError(f"edge ({src} -> {dst}) not in graph")
        all_src = self.edge_sources()
        keep = np.ones(self.num_edges, dtype=bool)
        keep[position] = False
        return CSRGraph._from_dense_edges(
            self._node_ids, all_src[keep], self._out_indices[keep]
        )
