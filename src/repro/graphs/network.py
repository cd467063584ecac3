"""Attributed network (SNAP's ``TNEANet`` analog, node/edge attributes).

Ringo's workflow writes algorithm results "back to tables" (Figure 2),
but SNAP also supports attributes directly on the graph; :class:`Network`
provides that: a :class:`DirectedGraph` plus named node and edge
attribute maps, so results like PageRank scores can live on the graph
between conversions.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs.base import NetChange
from repro.graphs.directed import DirectedGraph


class Network(DirectedGraph):
    """A directed graph carrying named node and edge attributes.

    >>> net = Network()
    >>> net.add_edge(1, 2)
    True
    >>> net.set_node_attr(1, "name", "ann")
    >>> net.node_attr(1, "name")
    'ann'
    """

    def __init__(self) -> None:
        super().__init__()
        self._node_attrs: dict[str, dict[int, object]] = {}
        self._edge_attrs: dict[str, dict[tuple[int, int], object]] = {}

    # ------------------------------------------------------------------
    # Node attributes
    # ------------------------------------------------------------------

    def set_node_attr(self, node_id: int, name: str, value: object) -> None:
        """Set attribute ``name`` on a node."""
        if not self.has_node(node_id):
            raise NodeNotFoundError(node_id)
        self._node_attrs.setdefault(name, {})[node_id] = value

    def node_attr(self, node_id: int, name: str, default: object = None) -> object:
        """Read attribute ``name`` from a node (``default`` if unset)."""
        if not self.has_node(node_id):
            raise NodeNotFoundError(node_id)
        return self._node_attrs.get(name, {}).get(node_id, default)

    def set_node_attrs(self, name: str, values: Mapping[int, object]) -> None:
        """Bulk-set a node attribute from a mapping (e.g. PageRank output)."""
        store = self._node_attrs.setdefault(name, {})
        for node_id, value in values.items():
            if not self.has_node(node_id):
                raise NodeNotFoundError(node_id)
            store[node_id] = value

    def node_attr_names(self) -> tuple[str, ...]:
        """Names of node attributes that have been set."""
        return tuple(self._node_attrs)

    def iter_node_attr(self, name: str) -> Iterator[tuple[int, object]]:
        """Iterate ``(node_id, value)`` for a node attribute."""
        if name not in self._node_attrs:
            raise GraphError(f"unknown node attribute {name!r}")
        return iter(self._node_attrs[name].items())

    # ------------------------------------------------------------------
    # Edge attributes
    # ------------------------------------------------------------------

    def set_edge_attr(self, src: int, dst: int, name: str, value: object) -> None:
        """Set attribute ``name`` on the edge ``src -> dst``."""
        if not self.has_edge(src, dst):
            raise EdgeNotFoundError(src, dst)
        self._edge_attrs.setdefault(name, {})[(src, dst)] = value

    def edge_attr(self, src: int, dst: int, name: str, default: object = None) -> object:
        """Read attribute ``name`` from an edge (``default`` if unset)."""
        if not self.has_edge(src, dst):
            raise EdgeNotFoundError(src, dst)
        return self._edge_attrs.get(name, {}).get((src, dst), default)

    def edge_attr_names(self) -> tuple[str, ...]:
        """Names of edge attributes that have been set."""
        return tuple(self._edge_attrs)

    # ------------------------------------------------------------------
    # Mutation overrides keep attribute maps consistent
    # ------------------------------------------------------------------

    def del_edge(self, src: int, dst: int) -> None:
        """Delete an edge and its attribute values."""
        super().del_edge(src, dst)
        for store in self._edge_attrs.values():
            store.pop((src, dst), None)

    def del_node(self, node_id: int) -> None:
        """Delete a node, its edges, and all their attribute values."""
        super().del_node(node_id)
        for store in self._node_attrs.values():
            store.pop(node_id, None)
        for store in self._edge_attrs.values():
            stale = [key for key in store if node_id in key]
            for key in stale:
                del store[key]

    def _apply_net(self, change: NetChange) -> None:
        """Apply a batch's net change, then forget what its ops deleted.

        The same attribute values the single-op mutators would drop: the
        node attributes of every deleted node, and the edge attributes of
        every edge a ``del_edge`` removed or that touches a deleted node.
        """
        super()._apply_net(change)
        gone = set(change.deleted_nodes.tolist())
        if gone:
            for store in self._node_attrs.values():
                for node_id in gone:
                    store.pop(node_id, None)
        pairs = list(zip(change.deleted_src.tolist(), change.deleted_dst.tolist()))
        for store in self._edge_attrs.values():
            for key in pairs:
                store.pop(key, None)
            if gone:
                stale = [key for key in store if key[0] in gone or key[1] in gone]
                for key in stale:
                    del store[key]

    def __repr__(self) -> str:
        return (
            f"Network({self.num_nodes} nodes, {self.num_edges} edges, "
            f"{len(self._node_attrs)} node attrs, {len(self._edge_attrs)} edge attrs)"
        )
