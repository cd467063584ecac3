"""k-truss decomposition — the triangle-based relative of the k-core.

An edge belongs to the k-truss when it participates in at least k-2
triangles *within* the truss. Peeling proceeds like the core
decomposition but over edges and their triangle supports; the maximal k
for which an edge survives is its trussness. Denser and more cohesive
than the k-core, and built on the same sorted-adjacency intersections
as the triangle counter.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.triangles import _undirected_csr
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.util.validation import require


def edge_trussness(graph) -> dict[tuple[int, int], int]:
    """Trussness per undirected edge (as ``(min, max)`` original-id pairs).

    Edges in no triangle have trussness 2 (every edge is in the
    2-truss), matching the networkx convention where ``k_truss(G, k)``
    keeps edges with at least ``k - 2`` supports.

    >>> from repro.graphs.undirected import UndirectedGraph
    >>> g = UndirectedGraph()
    >>> for u, v in [(1, 2), (2, 3), (3, 1), (3, 4)]:
    ...     _ = g.add_edge(u, v)
    >>> trussness = edge_trussness(g)
    >>> trussness[(1, 2)], trussness[(3, 4)]
    (3, 2)
    """
    sym = _undirected_csr(graph)
    node_ids = sym.node_ids

    # Live adjacency as neighbour sets (edges are removed during peel).
    neighbors: list[set[int]] = [
        set(sym.out_neighbors(node).tolist()) for node in range(sym.num_nodes)
    ]
    support: dict[tuple[int, int], int] = {}
    for u in range(sym.num_nodes):
        for v in neighbors[u]:
            if v > u:
                support[(u, v)] = len(neighbors[u] & neighbors[v])

    trussness: dict[tuple[int, int], int] = {}
    k = 2
    remaining = set(support)
    while remaining:
        # Peel every edge whose support is below k - 2 at this level.
        queue = [edge for edge in remaining if support[edge] < k - 1]
        while queue:
            edge = queue.pop()
            if edge not in remaining:
                continue
            remaining.discard(edge)
            trussness[edge] = k
            u, v = edge
            common = neighbors[u] & neighbors[v]
            neighbors[u].discard(v)
            neighbors[v].discard(u)
            for w in common:
                for other in ((u, w) if u < w else (w, u), (v, w) if v < w else (w, v)):
                    if other in remaining:
                        support[other] -= 1
                        if support[other] < k - 1:
                            queue.append(other)
        if remaining:
            k += 1

    def original(edge: tuple[int, int]) -> tuple[int, int]:
        a = int(node_ids[edge[0]])
        b = int(node_ids[edge[1]])
        return (a, b) if a < b else (b, a)

    return {original(edge): level for edge, level in trussness.items()}


def k_truss(graph, k: int) -> "DirectedGraph | UndirectedGraph":
    """The maximal subgraph whose edges each have >= k-2 triangle supports.

    Matches networkx semantics: the result keeps edges with trussness
    >= k and drops nodes left isolated. ``k >= 2``.

    >>> from repro.algorithms.generators import complete_graph
    >>> k_truss(complete_graph(5), 5).num_nodes
    5
    """
    require(k >= 2, f"k must be at least 2, got {k}")
    trussness = edge_trussness(graph)
    sources, targets = graph.edge_arrays()
    # The truss is edge-defined: an edge stays when its undirected pair
    # does. Self-loops have no trussness and are never part of any truss.
    inside = np.fromiter(
        (
            trussness.get((min(u, v), max(u, v)), 0) >= k
            for u, v in zip(sources.tolist(), targets.tolist())
        ),
        dtype=bool,
        count=len(sources),
    )
    return graph_from_edge_arrays(
        sources[inside], targets[inside], directed=graph.is_directed
    )


def max_trussness(graph) -> int:
    """The largest k with a non-empty k-truss (2 for any graph with edges)."""
    trussness = edge_trussness(graph)
    return max(trussness.values(), default=0)
