"""Minimum spanning tree / forest (Kruskal with union-find)."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.algorithms.sssp import _resolve_weight
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.graphs.undirected import UndirectedGraph


class UnionFind:
    """Disjoint sets with path compression and union by size.

    >>> uf = UnionFind()
    >>> uf.union(1, 2)
    True
    >>> uf.find(1) == uf.find(2)
    True
    """

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}

    def find(self, item: int) -> int:
        """Representative of ``item``'s set (item auto-registered)."""
        parent = self._parent
        if item not in parent:
            parent[item] = item
            self._size[item] = 1
            return item
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if already joined."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return True

    def connected(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)


def minimum_spanning_forest(
    graph, weight: "str | Callable[[int, int], float] | None" = None
) -> tuple[UndirectedGraph, float]:
    """Kruskal's MSF over the undirected projection.

    Returns ``(forest, total_weight)``; the forest spans every node (one
    tree per connected component).

    >>> from repro.graphs.undirected import UndirectedGraph as UG
    >>> g = UG()
    >>> for u, v in [(1, 2), (2, 3), (1, 3)]:
    ...     _ = g.add_edge(u, v)
    >>> forest, total = minimum_spanning_forest(g)
    >>> forest.num_edges, total
    (2, 2.0)
    """
    weight_fn = _resolve_weight(graph, weight)
    if graph.is_directed:
        undirected = graph.to_undirected()
    else:
        undirected = graph
    weighted_edges = sorted(
        ((weight_fn(u, v), u, v) for u, v in undirected.edges() if u != v),
        key=lambda edge: edge[0],
    )
    return _kruskal(weighted_edges, undirected.node_array())


def spanning_forest_from_edges(
    edges: Iterable[tuple[int, int, float]]
) -> tuple[UndirectedGraph, float]:
    """Kruskal over an explicit weighted edge list ``(u, v, w)``."""
    weighted_edges = sorted((w, u, v) for u, v, w in edges)
    return _kruskal(weighted_edges, [node for _, u, v in weighted_edges for node in (u, v)])


def _kruskal(weighted_edges, nodes) -> tuple[UndirectedGraph, float]:
    """Kruskal over sorted ``(w, u, v)``; the forest spans ``nodes``, built once."""
    union_find = UnionFind()
    total = 0.0
    chosen = []
    for edge_weight, u, v in weighted_edges:
        if u != v and union_find.union(u, v):
            chosen.append((u, v))
            total += edge_weight
    pairs = np.array(chosen, dtype=np.int64).reshape(-1, 2)
    forest = graph_from_edge_arrays(pairs[:, 0], pairs[:, 1], directed=False, nodes=nodes)
    return forest, total
