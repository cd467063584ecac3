"""Directed graph — the paper's primary graph object (paper §2.2, §2.4).

"A directed graph in Ringo is represented as a node hash table, where
each node contains two sorted adjacency vectors providing its
in-neighbors and out-neighbors." Simple directed graph semantics (SNAP's
``TNGraph``): at most one edge per ordered pair, self-loops allowed.

A bulk-built graph holds both orientations as a frozen
:class:`~repro.graphs.csr.CSRGraph` instead. An ``ApplyOps`` batch that
keeps the node set is merged into it; any other structural mutation
builds the hash table first. See :mod:`repro.graphs.base`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graphs.base import (
    EMPTY_ADJACENCY,
    GraphBase,
    NetChange,
    Rows,
    distinct,
    gather_adjacency,
    readonly,
    sorted_contains,
    sorted_insert,
    sorted_remove,
)
from repro.graphs.csr import CSRGraph


class _NodeRecord:
    """Per-node storage: the two sorted adjacency vectors."""

    __slots__ = ("in_nbrs", "out_nbrs")

    def __init__(
        self, in_nbrs: np.ndarray = EMPTY_ADJACENCY,
        out_nbrs: np.ndarray = EMPTY_ADJACENCY,
    ) -> None:
        self.in_nbrs = in_nbrs
        self.out_nbrs = out_nbrs


class DirectedGraph(GraphBase):
    """A dynamic directed graph over int node ids.

    >>> graph = DirectedGraph()
    >>> graph.add_edge(1, 2)
    True
    >>> graph.has_edge(1, 2)
    True
    >>> graph.out_neighbors(1).tolist()
    [2]
    """

    def __init__(self) -> None:
        self._nodes: dict[int, _NodeRecord] = {}
        self._num_edges = 0
        self._version = 0

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def is_directed(self) -> bool:
        """True; this is the directed graph class."""
        return True

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._num_edges

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        csr = self._csr
        if csr is not None:
            return csr.has_arc(src, dst)
        record = self._nodes.get(src)
        return record is not None and sorted_contains(record.out_nbrs, dst)

    def out_neighbors(self, node_id: int) -> np.ndarray:
        """Sorted out-neighbour ids of ``node_id`` (read-only)."""
        csr = self._csr
        if csr is not None:
            return readonly(csr.node_ids[csr.out_neighbors(csr.dense_of(node_id))])
        self._require_node(node_id)
        return readonly(self._nodes[node_id].out_nbrs)

    def in_neighbors(self, node_id: int) -> np.ndarray:
        """Sorted in-neighbour ids of ``node_id`` (read-only)."""
        csr = self._csr
        if csr is not None:
            return readonly(csr.node_ids[csr.in_neighbors(csr.dense_of(node_id))])
        self._require_node(node_id)
        return readonly(self._nodes[node_id].in_nbrs)

    def out_degree(self, node_id: int) -> int:
        """Out-degree of ``node_id``."""
        csr = self._csr
        if csr is not None:
            return len(csr.out_neighbors(csr.dense_of(node_id)))
        self._require_node(node_id)
        return len(self._nodes[node_id].out_nbrs)

    def in_degree(self, node_id: int) -> int:
        """In-degree of ``node_id``."""
        csr = self._csr
        if csr is not None:
            return len(csr.in_neighbors(csr.dense_of(node_id)))
        self._require_node(node_id)
        return len(self._nodes[node_id].in_nbrs)

    def degree(self, node_id: int) -> int:
        """Total degree (in + out)."""
        return self.in_degree(node_id) + self.out_degree(node_id)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate directed edges as ``(src, dst)`` pairs."""
        if self._csr is not None:
            sources, targets = self.edge_arrays()
            yield from zip(sources.tolist(), targets.tolist())
            return
        for node_id, record in self._nodes.items():
            for dst in record.out_nbrs.tolist():
                yield node_id, dst

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as parallel ``(src, dst)`` int64 arrays.

        Bulk export used by graph→table conversion, serialization and
        checkpoints; edges come out grouped by source node.
        """
        csr = self._csr
        if csr is not None:
            return self._csr_edge_arrays(csr)
        # One read of the node table, so a node added by a concurrent
        # writer cannot give the ids and the rows different lengths.
        items = list(self._nodes.items())
        degrees, _, targets = gather_adjacency([record.out_nbrs for _, record in items])
        ids = np.fromiter((node for node, _ in items), dtype=np.int64, count=len(items))
        return np.repeat(ids, degrees), targets

    # ------------------------------------------------------------------
    # Mutation — the "dynamic graph" requirement of §2.2
    # ------------------------------------------------------------------

    def add_node(self, node_id: int) -> bool:
        """Add a node; returns False if it already existed."""
        node_id = int(node_id)
        if node_id < 0:
            raise GraphError(f"node ids must be non-negative, got {node_id}")
        if self._csr is not None:
            if self._csr.find(node_id) >= 0:
                return False
            self._materialise("add_node")
        elif node_id in self._nodes:
            return False
        self._nodes[node_id] = _NodeRecord()
        self._bump_version()
        self._record_delta("add_node", node_id)
        return True

    def add_edge(self, src: int, dst: int) -> bool:
        """Add the edge ``src -> dst`` (endpoints auto-created).

        Returns False if the edge already existed. O(degree) — the
        adjacency vectors stay sorted.
        """
        src = int(src)
        dst = int(dst)
        if self._csr is not None:
            if self._csr.has_arc(src, dst):
                return False
            self._materialise("add_edge")
        self.add_node(src)
        self.add_node(dst)
        src_record = self._nodes[src]
        out_nbrs, inserted = sorted_insert(src_record.out_nbrs, dst)
        if not inserted:
            return False
        src_record.out_nbrs = out_nbrs
        dst_record = self._nodes[dst]
        dst_record.in_nbrs, _ = sorted_insert(dst_record.in_nbrs, src)
        self._num_edges += 1
        self._bump_version()
        self._record_delta("add_edge", src, dst)
        return True

    def del_edge(self, src: int, dst: int) -> None:
        """Delete the edge ``src -> dst``; raises if absent. O(degree)."""
        if self._csr is not None:
            if not self._csr.has_arc(src, dst):
                raise EdgeNotFoundError(src, dst)
            self._materialise("del_edge")
        record = self._nodes.get(src)
        if record is None:
            raise EdgeNotFoundError(src, dst)
        out_nbrs, removed = sorted_remove(record.out_nbrs, dst)
        if not removed:
            raise EdgeNotFoundError(src, dst)
        record.out_nbrs = out_nbrs
        dst_record = self._nodes[dst]
        dst_record.in_nbrs, _ = sorted_remove(dst_record.in_nbrs, src)
        self._num_edges -= 1
        self._bump_version()
        self._record_delta("del_edge", src, dst)

    def del_node(self, node_id: int) -> None:
        """Delete a node and every incident edge; raises if absent."""
        self._require_node(node_id)
        if self._csr is not None:
            self._materialise("del_node")
        record = self._nodes[node_id]
        for nbr in record.out_nbrs.tolist():
            if nbr != node_id:
                nbr_record = self._nodes[nbr]
                nbr_record.in_nbrs, _ = sorted_remove(nbr_record.in_nbrs, node_id)
        for nbr in record.in_nbrs.tolist():
            if nbr != node_id:
                nbr_record = self._nodes[nbr]
                nbr_record.out_nbrs, _ = sorted_remove(nbr_record.out_nbrs, node_id)
        removed_edges = len(record.out_nbrs) + len(record.in_nbrs)
        if sorted_contains(record.out_nbrs, node_id):
            removed_edges -= 1  # the self-loop was counted from both sides
        self._num_edges -= removed_edges
        del self._nodes[node_id]
        self._bump_version()
        # Every incident edge as an explicit delete, so the merge never
        # reconstructs a cascade; the self-loop is an out-edge only.
        self._record_runs(
            ("del_edge", node_id, record.out_nbrs),
            ("del_edge", record.in_nbrs[record.in_nbrs != node_id], node_id),
            ("del_node", node_id, -1),
        )

    def _apply_net(self, change: NetChange) -> None:
        """Apply a resolved op batch's net change in one step.

        Both orientations are merged as arrays (one delete and one
        insert each over the touched rows; the out-rows come gathered
        with the change) before the node table is touched, so a failed
        guard leaves the graph as it was. One version bump and one log
        append, and neither when the batch nets out to no structural
        change. A CSR-backed graph whose node set the batch keeps merges
        it into its CSR instead and stays backed
        (``_merge_into_backing``).
        """
        if not change.structural() and not len(change.placed_nodes):
            return
        if self._merge_into_backing(change):
            return
        if self._csr is not None:
            self._materialise("apply_ops")
        nodes = self._nodes
        outs = change.out_rows.merged(
            change.del_src, change.del_dst, change.add_src, change.add_dst
        )
        in_ids = distinct(np.concatenate((change.del_dst, change.add_dst)))
        ins = Rows.gather(in_ids, self._in_vectors(in_ids.tolist())).merged(
            change.del_dst, change.del_src, change.add_dst, change.add_src
        )
        for node in change.removed_nodes.tolist():
            del nodes[node]
        for node in change.placed_nodes.tolist():
            record = nodes.pop(node, None)
            nodes[node] = _NodeRecord() if record is None else record
        # Rows of nodes the batch leaves absent are skipped (all empty).
        for node, row in outs.copies():
            record = nodes.get(node)
            if record is not None:
                record.out_nbrs = row
        for node, row in ins.copies():
            record = nodes.get(node)
            if record is not None:
                record.in_nbrs = row
        self._num_edges += len(change.add_src) - len(change.del_src)
        if change.structural():
            self._bump_version()
            self._record_net(change)

    def _out_vectors(self, node_ids: "list[int]") -> "list[np.ndarray]":
        """Out-rows of the listed nodes, empty for nodes not in the table."""
        get = self._nodes.get
        return [
            EMPTY_ADJACENCY if record is None else record.out_nbrs
            for record in map(get, node_ids)
        ]

    def _in_vectors(self, node_ids: "list[int]") -> "list[np.ndarray]":
        """In-rows of the listed nodes, empty for nodes not in the table."""
        get = self._nodes.get
        return [
            EMPTY_ADJACENCY if record is None else record.in_nbrs
            for record in map(get, node_ids)
        ]

    def _set_adjacency(
        self, node_id: int, in_nbrs: np.ndarray, out_nbrs: np.ndarray
    ) -> None:
        """Install pre-sorted adjacency vectors — bulk construction only.

        The sort-first converter (§2.4) computes whole neighbour vectors
        and installs them directly; it is responsible for sortedness,
        uniqueness, and the edge-count update via
        :meth:`_set_edge_count`.
        """
        self.add_node(node_id)
        record = self._nodes[node_id]
        record.in_nbrs = np.ascontiguousarray(in_nbrs, dtype=np.int64)
        record.out_nbrs = np.ascontiguousarray(out_nbrs, dtype=np.int64)
        self._bump_version()
        self._poison_delta("bulk adjacency install")

    def _set_edge_count(self, count: int) -> None:
        """Set the edge count after a bulk build."""
        self._num_edges = count
        self._bump_version()
        self._poison_delta("bulk edge-count install")

    def _records_from(self, csr: CSRGraph) -> dict:
        """One record per node, its vectors views of two gathered arrays."""
        ids = csr.node_ids
        in_src = ids[csr.in_indices]
        out_dst = ids[csr.out_indices]
        in_ptr = csr.in_indptr.tolist()
        out_ptr = csr.out_indptr.tolist()
        return {
            node: _NodeRecord(
                in_src[in_ptr[index]:in_ptr[index + 1]],
                out_dst[out_ptr[index]:out_ptr[index + 1]],
            )
            for index, node in enumerate(ids.tolist())
        }

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def reverse(self) -> "DirectedGraph":
        """New graph with every edge direction flipped (vectors swap)."""
        result = DirectedGraph()
        csr = self._csr
        if csr is not None:
            flipped = CSRGraph(
                csr.node_ids, csr.in_indptr, csr.in_indices, csr.out_indptr, csr.out_indices
            )
            result._install_csr(flipped, self._num_edges)
            return result
        for node_id, record in self._nodes.items():
            result._set_adjacency(node_id, record.out_nbrs.copy(), record.in_nbrs.copy())
        result._set_edge_count(self._num_edges)
        return result

    def to_undirected(self) -> "UndirectedGraph":
        """Undirected projection (edge directions dropped, dedup), sort-first."""
        from repro.convert.table_to_graph import graph_from_edge_arrays

        sources, targets = self.edge_arrays()
        return graph_from_edge_arrays(
            sources, targets, directed=False, nodes=self.node_array()
        )

    def copy(self) -> "DirectedGraph":
        """Deep copy (a CSR-backed graph shares its read-only arrays)."""
        result = DirectedGraph()
        csr = self._csr
        if csr is not None:
            result._install_csr(csr, self._num_edges)
            return result
        for node_id, record in self._nodes.items():
            result._set_adjacency(node_id, record.in_nbrs.copy(), record.out_nbrs.copy())
        result._set_edge_count(self._num_edges)
        return result

    def __repr__(self) -> str:
        return f"DirectedGraph({self.num_nodes} nodes, {self.num_edges} edges)"

    def memory_bytes(self) -> int:
        """Bytes held by adjacency vectors plus hash-table overhead.

        Table 2's "In-memory Graph Size" accounting: adjacency array bytes
        plus ~100 bytes per node for the dict slot and record object. A
        CSR-backed graph holds only its five arrays.
        """
        csr = self._csr
        if csr is not None:
            return csr.memory_bytes()
        total = 0
        for record in self._nodes.values():
            total += record.in_nbrs.nbytes + record.out_nbrs.nbytes
        return total + 100 * len(self._nodes)
