"""Greedy colouring and bipartiteness testing."""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues
from repro.algorithms.triangles import _undirected_csr
from repro.exceptions import AlgorithmError

_STRATEGIES = ("degree", "id")


def greedy_coloring(graph, strategy: str = "degree") -> NodeValues:
    """Proper node colouring via greedy assignment.

    ``strategy`` orders the nodes: ``degree`` (largest first — the
    Welsh–Powell heuristic) or ``id`` (ascending original id). Colours
    are dense ints from 0; adjacent nodes always differ.

    >>> from repro.algorithms.generators import complete_graph
    >>> colors = greedy_coloring(complete_graph(4))
    >>> len(set(colors.values()))
    4
    """
    if strategy not in _STRATEGIES:
        raise AlgorithmError(f"unknown strategy {strategy!r}; use one of {_STRATEGIES}")
    csr = _undirected_csr(graph)
    count = csr.num_nodes
    if strategy == "degree":
        order = np.lexsort((np.arange(count), -csr.out_degrees()))
    else:
        order = np.arange(count)
    colors = np.full(count, -1, dtype=np.int64)
    for node in order.tolist():
        used = {int(colors[nbr]) for nbr in csr.out_neighbors(node).tolist()}
        color = 0
        while color in used:
            color += 1
        colors[node] = color
    return NodeValues(csr.node_ids, colors)


def chromatic_upper_bound(graph, strategy: str = "degree") -> int:
    """Colours used by :func:`greedy_coloring` (0 for the empty graph)."""
    colors = greedy_coloring(graph, strategy)
    return max(colors.values()) + 1 if colors else 0


def is_bipartite(graph) -> bool:
    """Whether the undirected projection is 2-colourable."""
    return bipartite_sides(graph) is not None


def bipartite_sides(graph) -> "tuple[set[int], set[int]] | None":
    """The two sides of a bipartition, or ``None`` if an odd cycle exists.

    A self-loop is a length-one odd cycle, so any looped graph returns
    ``None``. Isolated nodes land on the first side. BFS 2-colouring
    per component.
    """
    from repro.algorithms.common import as_csr

    original = as_csr(graph)
    if original.num_self_loops():
        return None
    csr = _undirected_csr(graph)
    count = csr.num_nodes
    side = np.full(count, -1, dtype=np.int64)
    for root in range(count):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for nbr in csr.out_neighbors(node).tolist():
                if side[nbr] == -1:
                    side[nbr] = 1 - side[node]
                    queue.append(nbr)
                elif side[nbr] == side[node]:
                    return None
    node_ids = csr.node_ids
    left = {int(node_ids[i]) for i in np.flatnonzero(side == 0)}
    right = {int(node_ids[i]) for i in np.flatnonzero(side == 1)}
    return left, right
