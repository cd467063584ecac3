"""Undirected graph (SNAP's ``TUNGraph`` analog).

Same hash-table-of-nodes design as :class:`DirectedGraph`, with one
sorted adjacency vector per node. Used by the triangle-counting and
clustering-coefficient algorithms, which the paper runs on the
undirected projections of its datasets.

A bulk-built graph holds its symmetric adjacency as a frozen
:class:`~repro.graphs.csr.CSRGraph` instead (both orientations the same
two arrays). An ``ApplyOps`` batch that keeps the node set is merged into
it; any other structural mutation builds the hash table first.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graphs.base import (
    EMPTY_ADJACENCY,
    GraphBase,
    NetChange,
    both_ways,
    gather_adjacency,
    readonly,
    sorted_contains,
    sorted_insert,
    sorted_remove,
)
from repro.graphs.csr import CSRGraph


class UndirectedGraph(GraphBase):
    """A dynamic undirected graph over int node ids.

    At most one edge per unordered pair; self-loops allowed (stored once).

    >>> graph = UndirectedGraph()
    >>> graph.add_edge(1, 2)
    True
    >>> graph.has_edge(2, 1)
    True
    """

    def __init__(self) -> None:
        self._nodes: dict[int, np.ndarray] = {}
        self._num_edges = 0
        self._version = 0

    @property
    def is_directed(self) -> bool:
        """False; this is the undirected graph class."""
        return False

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self._num_edges

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        csr = self._csr
        if csr is not None:
            return csr.has_arc(u, v)
        nbrs = self._nodes.get(u)
        return nbrs is not None and sorted_contains(nbrs, v)

    def neighbors(self, node_id: int) -> np.ndarray:
        """Sorted neighbour ids (read-only)."""
        csr = self._csr
        if csr is not None:
            return readonly(csr.node_ids[csr.out_neighbors(csr.dense_of(node_id))])
        self._require_node(node_id)
        return readonly(self._nodes[node_id])

    def degree(self, node_id: int) -> int:
        """Degree of ``node_id`` (a self-loop contributes one)."""
        csr = self._csr
        if csr is not None:
            return len(csr.out_neighbors(csr.dense_of(node_id)))
        self._require_node(node_id)
        return len(self._nodes[node_id])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(min, max)`` pairs."""
        if self._csr is not None:
            sources, targets = self.edge_arrays()
            yield from zip(sources.tolist(), targets.tolist())
            return
        for node_id, nbrs in self._nodes.items():
            start = int(np.searchsorted(nbrs, node_id))
            for nbr in nbrs[start:].tolist():
                yield node_id, nbr

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges once each as parallel ``(u, v)`` arrays with u <= v."""
        csr = self._csr
        if csr is not None:
            sources, targets = self._csr_edge_arrays(csr)
        else:
            # One read of the node table, as in DirectedGraph.edge_arrays.
            items = list(self._nodes.items())
            degrees, _, targets = gather_adjacency([nbrs for _, nbrs in items])
            ids = np.fromiter((node for node, _ in items), dtype=np.int64, count=len(items))
            sources = np.repeat(ids, degrees)
        upper = targets >= sources
        return sources[upper], targets[upper]

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
        self._nodes[node_id] = EMPTY_ADJACENCY
        self._bump_version()
        self._record_delta("add_node", node_id)
        return True

    def add_edge(self, u: int, v: int) -> bool:
        """Add the edge ``{u, v}`` (endpoints auto-created).

        Returns False if the edge already existed.
        """
        u = int(u)
        v = int(v)
        if self._csr is not None:
            if self._csr.has_arc(u, v):
                return False
            self._materialise("add_edge")
        self.add_node(u)
        self.add_node(v)
        nbrs, inserted = sorted_insert(self._nodes[u], v)
        if not inserted:
            return False
        self._nodes[u] = nbrs
        if u != v:
            self._nodes[v], _ = sorted_insert(self._nodes[v], u)
        self._num_edges += 1
        self._bump_version()
        self._record_delta("add_edge", u, v)
        return True

    def del_edge(self, u: int, v: int) -> None:
        """Delete the edge ``{u, v}``; raises if absent."""
        if self._csr is not None:
            if not self._csr.has_arc(u, v):
                raise EdgeNotFoundError(u, v)
            self._materialise("del_edge")
        nbrs = self._nodes.get(u)
        if nbrs is None:
            raise EdgeNotFoundError(u, v)
        new_nbrs, removed = sorted_remove(nbrs, v)
        if not removed:
            raise EdgeNotFoundError(u, v)
        self._nodes[u] = new_nbrs
        if u != v:
            self._nodes[v], _ = sorted_remove(self._nodes[v], u)
        self._num_edges -= 1
        self._bump_version()
        self._record_delta("del_edge", u, v)

    def del_node(self, node_id: int) -> None:
        """Delete a node and its incident edges; raises if absent."""
        self._require_node(node_id)
        if self._csr is not None:
            self._materialise("del_node")
        nbrs = self._nodes[node_id]
        for nbr in nbrs.tolist():
            if nbr != node_id:
                self._nodes[nbr], _ = sorted_remove(self._nodes[nbr], node_id)
        self._num_edges -= len(nbrs)
        del self._nodes[node_id]
        self._bump_version()
        self._record_runs(("del_edge", node_id, nbrs), ("del_node", node_id, -1))

    def _apply_net(self, change: NetChange) -> None:
        """Apply a resolved op batch's net change in one step.

        As :meth:`DirectedGraph._apply_net`, over the one symmetric
        orientation: each edge ``{u, v}`` is entry ``v`` of row ``u``
        and entry ``u`` of row ``v`` (a self-loop once).
        """
        if not change.structural() and not len(change.placed_nodes):
            return
        if self._merge_into_backing(change):
            return
        if self._csr is not None:
            self._materialise("apply_ops")
        nodes = self._nodes
        rows = change.out_rows.merged(
            *both_ways(change.del_src, change.del_dst),
            *both_ways(change.add_src, change.add_dst),
        )
        for node in change.removed_nodes.tolist():
            del nodes[node]
        for node in change.placed_nodes.tolist():
            nbrs = nodes.pop(node, None)
            nodes[node] = EMPTY_ADJACENCY if nbrs is None else nbrs
        # Rows of nodes the batch leaves absent are skipped (all empty).
        for node, row in rows.copies():
            if node in nodes:
                nodes[node] = row
        self._num_edges += len(change.add_src) - len(change.del_src)
        if change.structural():
            self._bump_version()
            self._record_net(change)

    def _out_vectors(self, node_ids: "list[int]") -> "list[np.ndarray]":
        """Rows of the listed nodes, empty for nodes not in the table."""
        get = self._nodes.get
        return [get(node, EMPTY_ADJACENCY) for node in node_ids]

    def _set_adjacency(self, node_id: int, nbrs: np.ndarray) -> None:
        """Install a pre-sorted adjacency vector — bulk construction only."""
        self.add_node(node_id)
        self._nodes[node_id] = np.ascontiguousarray(nbrs, dtype=np.int64)
        self._bump_version()
        self._poison_delta("bulk adjacency install")

    def _set_edge_count(self, count: int) -> None:
        """Set the edge count after a bulk build."""
        self._num_edges = count
        self._bump_version()
        self._poison_delta("bulk edge-count install")

    def _records_from(self, csr: CSRGraph) -> dict:
        """One vector per node, each a view of one gathered array."""
        ids = csr.node_ids
        nbrs = ids[csr.out_indices]
        ptr = csr.out_indptr.tolist()
        return {
            node: nbrs[ptr[index]:ptr[index + 1]]
            for index, node in enumerate(ids.tolist())
        }

    def copy(self) -> "UndirectedGraph":
        """Deep copy (a CSR-backed graph shares its read-only arrays)."""
        result = UndirectedGraph()
        csr = self._csr
        if csr is not None:
            result._install_csr(csr, self._num_edges)
            return result
        for node_id, nbrs in self._nodes.items():
            result._set_adjacency(node_id, nbrs.copy())
        result._set_edge_count(self._num_edges)
        return result

    def __repr__(self) -> str:
        return f"UndirectedGraph({self.num_nodes} nodes, {self.num_edges} edges)"

    def memory_bytes(self) -> int:
        """Bytes held by adjacency vectors plus hash-table overhead."""
        csr = self._csr
        if csr is not None:
            return csr.memory_bytes()
        total = sum(nbrs.nbytes for nbrs in self._nodes.values())
        return total + 100 * len(self._nodes)
