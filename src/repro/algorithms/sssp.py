"""Single-source shortest paths (paper §3, Table 6 — "SSSP").

Unweighted SSSP is BFS: :func:`dijkstra` without a weight returns the
hop levels of :func:`~repro.algorithms.bfs.bfs_level_array` as floats,
which is the configuration the Table 6 benchmark uses. Weights come
from a callable or an edge-attribute name on a
:class:`~repro.graphs.network.Network` and run the binary-heap Dijkstra;
Bellman–Ford also allows negative weights and detects negative cycles.
"""

from __future__ import annotations

import heapq
from typing import Callable, Mapping

import numpy as np

from repro.algorithms.bfs import UNREACHED, bfs_level_array
from repro.algorithms.common import NodeValues, as_csr
from repro.exceptions import AlgorithmError
from repro.graphs.network import Network

WeightFn = Callable[[int, int], float]


def _resolve_weight(graph, weight) -> WeightFn:
    if weight is None:
        return lambda src, dst: 1.0
    if callable(weight):
        return weight
    if isinstance(weight, str):
        if not isinstance(graph, Network):
            raise AlgorithmError(
                "edge-attribute weights need a Network; got "
                f"{type(graph).__name__}"
            )
        name = weight
        return lambda src, dst: float(graph.edge_attr(src, dst, name, default=1.0))
    raise AlgorithmError(f"cannot interpret weight {weight!r}")


def dijkstra(
    graph,
    source: int,
    weight: "str | WeightFn | None" = None,
) -> Mapping[int, float]:
    """Shortest-path distance from ``source`` to every reachable node.

    Edge weights must be non-negative (checked during relaxation).
    Without a weight every edge weighs 1 and the distances are BFS hop
    levels, keyed in ascending dense-id order rather than settle order.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(2, 3)
    >>> dijkstra(g, 1)
    {1: 0.0, 2: 1.0, 3: 2.0}
    """
    weight_fn = _resolve_weight(graph, weight)
    csr = as_csr(graph)
    source_dense = int(csr.dense_of_array([source])[0])
    node_ids = csr.node_ids
    if weight is None:
        levels = bfs_level_array(csr, source_dense)
        reached = levels != UNREACHED
        return NodeValues(node_ids[reached], levels[reached].astype(np.float64))
    distances: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source_dense)]
    settled = set()
    best = {source_dense: 0.0}
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        distances[int(node_ids[node])] = dist
        for nbr in csr.out_neighbors(node).tolist():
            if nbr in settled:
                continue
            edge_weight = weight_fn(int(node_ids[node]), int(node_ids[nbr]))
            if edge_weight < 0:
                raise AlgorithmError(
                    f"Dijkstra requires non-negative weights; edge "
                    f"({node_ids[node]} -> {node_ids[nbr]}) weighs {edge_weight}"
                )
            candidate = dist + edge_weight
            if candidate < best.get(nbr, float("inf")):
                best[nbr] = candidate
                heapq.heappush(heap, (candidate, nbr))
    return distances


def dijkstra_path(
    graph,
    source: int,
    target: int,
    weight: "str | WeightFn | None" = None,
) -> tuple[list[int], float]:
    """One shortest path and its length; raises if unreachable."""
    weight_fn = _resolve_weight(graph, weight)
    csr = as_csr(graph)
    source_dense, target_dense = csr.dense_of_array([source, target]).tolist()
    node_ids = csr.node_ids
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source_dense)]
    best = {source_dense: 0.0}
    settled = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target_dense:
            path = [node]
            while path[-1] != source_dense:
                path.append(parent[path[-1]])
            return [int(node_ids[n]) for n in reversed(path)], dist
        for nbr in csr.out_neighbors(node).tolist():
            edge_weight = weight_fn(int(node_ids[node]), int(node_ids[nbr]))
            if edge_weight < 0:
                raise AlgorithmError("Dijkstra requires non-negative weights")
            candidate = dist + edge_weight
            if candidate < best.get(nbr, float("inf")):
                best[nbr] = candidate
                parent[nbr] = node
                heapq.heappush(heap, (candidate, nbr))
    raise AlgorithmError(f"node {target} is unreachable from {source}")


def bellman_ford(
    graph,
    source: int,
    weight: "str | WeightFn | None" = None,
) -> dict[int, float]:
    """Shortest distances allowing negative weights.

    Raises :class:`AlgorithmError` when a negative cycle is reachable
    from ``source``.
    """
    weight_fn = _resolve_weight(graph, weight)
    csr = as_csr(graph)
    csr.dense_of_array([source])  # validate
    node_ids = csr.node_ids.tolist()
    edges = [
        (node_ids[src], node_ids[dst], weight_fn(node_ids[src], node_ids[dst]))
        for src in range(csr.num_nodes)
        for dst in csr.out_neighbors(src).tolist()
    ]
    distances = {source: 0.0}
    for _ in range(max(csr.num_nodes - 1, 0)):
        changed = False
        for src, dst, edge_weight in edges:
            if src in distances:
                candidate = distances[src] + edge_weight
                if candidate < distances.get(dst, float("inf")):
                    distances[dst] = candidate
                    changed = True
        if not changed:
            break
    else:
        for src, dst, edge_weight in edges:
            if src in distances and distances[src] + edge_weight < distances.get(dst, float("inf")):
                raise AlgorithmError("graph contains a negative cycle reachable from source")
    return distances
