"""Directed multigraph with explicit edge ids.

Event data often yields parallel edges (the same user answering the same
asker twice); before deduplicating into a simple
:class:`~repro.graphs.directed.DirectedGraph`, workflows can keep the
multiplicity here. Edges have dense ids so edge attributes and
edge-table conversions stay cheap.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import EdgeNotFoundError, GraphError
from repro.graphs.base import GraphBase


class DirectedMultigraph(GraphBase):
    """A directed graph allowing parallel edges, each with an edge id.

    >>> graph = DirectedMultigraph()
    >>> first = graph.add_edge(1, 2)
    >>> second = graph.add_edge(1, 2)
    >>> graph.num_edges
    2
    >>> graph.edge_endpoints(first)
    (1, 2)
    """

    def __init__(self) -> None:
        self._nodes: dict[int, tuple[list[int], list[int]]] = {}
        self._edge_src: list[int] = []
        self._edge_dst: list[int] = []
        self._deleted: set[int] = set()
        self._version = 0

    @property
    def is_directed(self) -> bool:
        """True; parallel directed edges are allowed."""
        return True

    @property
    def num_edges(self) -> int:
        """Number of live edges."""
        return len(self._edge_src) - len(self._deleted)

    def add_node(self, node_id: int) -> bool:
        """Add a node; returns False if it already existed."""
        node_id = int(node_id)
        if node_id < 0:
            raise GraphError(f"node ids must be non-negative, got {node_id}")
        if node_id in self._nodes:
            return False
        self._nodes[node_id] = ([], [])
        self._bump_version()
        return True

    def add_edge(self, src: int, dst: int) -> int:
        """Add an edge (endpoints auto-created); returns its edge id."""
        src = int(src)
        dst = int(dst)
        self.add_node(src)
        self.add_node(dst)
        edge_id = len(self._edge_src)
        self._edge_src.append(src)
        self._edge_dst.append(dst)
        self._nodes[src][1].append(edge_id)
        self._nodes[dst][0].append(edge_id)
        self._bump_version()
        return edge_id

    def del_edge(self, edge_id: int) -> None:
        """Delete an edge by id; raises if unknown or already deleted."""
        if not self.has_edge_id(edge_id):
            raise EdgeNotFoundError(-1, -1)
        self._deleted.add(edge_id)
        src = self._edge_src[edge_id]
        dst = self._edge_dst[edge_id]
        self._nodes[src][1].remove(edge_id)
        self._nodes[dst][0].remove(edge_id)
        self._bump_version()

    def has_edge_id(self, edge_id: int) -> bool:
        """Whether ``edge_id`` names a live edge."""
        return 0 <= edge_id < len(self._edge_src) and edge_id not in self._deleted

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """The ``(src, dst)`` endpoints of a live edge."""
        if not self.has_edge_id(edge_id):
            raise EdgeNotFoundError(-1, -1)
        return self._edge_src[edge_id], self._edge_dst[edge_id]

    def edge_count(self, src: int, dst: int) -> int:
        """Number of parallel ``src -> dst`` edges."""
        record = self._nodes.get(src)
        if record is None:
            return 0
        return sum(1 for eid in record[1] if self._edge_dst[eid] == dst)

    def out_degree(self, node_id: int) -> int:
        """Out-degree counting parallel edges."""
        self._require_node(node_id)
        return len(self._nodes[node_id][1])

    def in_degree(self, node_id: int) -> int:
        """In-degree counting parallel edges."""
        self._require_node(node_id)
        return len(self._nodes[node_id][0])

    def out_edges(self, node_id: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(edge_id, dst)`` for a node's outgoing edges."""
        self._require_node(node_id)
        for eid in self._nodes[node_id][1]:
            yield eid, self._edge_dst[eid]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate live edges as ``(edge_id, src, dst)``."""
        for eid in range(len(self._edge_src)):
            if eid not in self._deleted:
                yield eid, self._edge_src[eid], self._edge_dst[eid]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Live edges as parallel ``(src, dst)`` arrays."""
        if not self._deleted:
            return (
                np.asarray(self._edge_src, dtype=np.int64),
                np.asarray(self._edge_dst, dtype=np.int64),
            )
        live = [eid for eid in range(len(self._edge_src)) if eid not in self._deleted]
        src = np.asarray([self._edge_src[eid] for eid in live], dtype=np.int64)
        dst = np.asarray([self._edge_dst[eid] for eid in live], dtype=np.int64)
        return src, dst

    def to_simple(self) -> "DirectedGraph":
        """Collapse parallel edges into a simple :class:`DirectedGraph`."""
        from repro.convert.table_to_graph import graph_from_edge_arrays

        sources, targets = self.edge_arrays()
        return graph_from_edge_arrays(sources, targets, nodes=self.node_array())

    def __repr__(self) -> str:
        return f"DirectedMultigraph({self.num_nodes} nodes, {self.num_edges} edges)"
