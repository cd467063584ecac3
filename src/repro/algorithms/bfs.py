"""Breadth-first search and unweighted shortest paths.

The frontier loop is vectorised over CSR: each level expands all frontier
nodes' adjacency slices at once (``repeat``/``concatenate``), which is
the numpy analogue of Ringo's parallel level-synchronous BFS.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import as_csr
from repro.exceptions import AlgorithmError
from repro.graphs.csr import CSRGraph

UNREACHED = -1


def _frontier_expand(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbours of the frontier, concatenated (duplicates included)."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = indptr[frontier]
    nonzero = counts > 0
    counts_nz = counts[nonzero]
    starts_nz = starts[nonzero]
    steps = np.ones(total, dtype=np.int64)
    run_starts = np.concatenate(([0], np.cumsum(counts_nz)[:-1]))
    prev_last = np.concatenate(([0], starts_nz[:-1] + counts_nz[:-1] - 1))
    steps[run_starts] = starts_nz - prev_last
    return indices[np.cumsum(steps)]


def bfs_levels(
    graph, source: int, direction: str = "out"
) -> dict[int, int]:
    """Hop distance from ``source`` to every reachable node.

    ``direction`` is ``out`` (follow edges), ``in`` (reverse), or
    ``both`` (treat edges as undirected).

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(2, 3)
    >>> bfs_levels(g, 1)
    {1: 0, 2: 1, 3: 2}
    """
    csr = as_csr(graph)
    source_dense = int(csr.dense_of_array([source])[0])
    levels = bfs_level_array(csr, source_dense, direction=direction)
    reached = levels != UNREACHED
    return dict(
        zip(
            csr.node_ids[reached].tolist(),
            levels[reached].tolist(),
        )
    )


def bfs_level_array(
    csr: CSRGraph, source_dense: int, direction: str = "out"
) -> np.ndarray:
    """Dense-index variant of :func:`bfs_levels` (-1 for unreached).

    Each level gathers the frontier's adjacency, drops the candidates
    already levelled, and dedupes the rest with one sort and a
    neighbour-inequality mask, so the sort covers only new nodes.
    """
    if direction not in ("out", "in", "both"):
        raise AlgorithmError(f"unknown BFS direction {direction!r}")
    levels = np.full(csr.num_nodes, UNREACHED, dtype=np.int64)
    levels[source_dense] = 0
    frontier = np.array([source_dense], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        candidates: list[np.ndarray] = []
        if direction in ("out", "both"):
            candidates.append(_frontier_expand(csr.out_indptr, csr.out_indices, frontier))
        if direction in ("in", "both"):
            candidates.append(_frontier_expand(csr.in_indptr, csr.in_indices, frontier))
        merged = np.concatenate(candidates) if len(candidates) > 1 else candidates[0]
        fresh = merged[levels[merged] == UNREACHED]
        if len(fresh) == 0:
            break
        fresh.sort()
        distinct = np.empty(len(fresh), dtype=bool)
        distinct[0] = True
        np.not_equal(fresh[1:], fresh[:-1], out=distinct[1:])
        frontier = fresh[distinct]
        levels[frontier] = level
    return levels


def shortest_path_length(graph, source: int, target: int) -> int:
    """Fewest hops from ``source`` to ``target``; raises if unreachable."""
    csr = as_csr(graph)
    source_dense, target_dense = csr.dense_of_array([source, target]).tolist()
    levels = bfs_level_array(csr, source_dense)
    if levels[target_dense] == UNREACHED:
        raise AlgorithmError(f"node {target} is unreachable from {source}")
    return int(levels[target_dense])


def shortest_path(graph, source: int, target: int) -> list[int]:
    """One shortest hop path from ``source`` to ``target`` (inclusive)."""
    csr = as_csr(graph)
    source_dense, target_dense = csr.dense_of_array([source, target]).tolist()
    levels = bfs_level_array(csr, source_dense)
    if levels[target_dense] == UNREACHED:
        raise AlgorithmError(f"node {target} is unreachable from {source}")
    # Walk backwards: a predecessor is any in-neighbour one level closer.
    path_dense = [target_dense]
    current = target_dense
    while current != source_dense:
        nbrs = csr.in_neighbors(current)
        closer = nbrs[levels[nbrs] == levels[current] - 1]
        current = int(closer[0])
        path_dense.append(current)
    return [int(csr.node_ids[dense]) for dense in reversed(path_dense)]


def reachable_set(graph, source: int, direction: str = "out") -> set[int]:
    """Original ids of all nodes reachable from ``source``."""
    return set(bfs_levels(graph, source, direction=direction))


def bfs_edges(graph, source: int):
    """Yield BFS tree edges ``(parent, child)`` in discovery order.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(2, 3)
    >>> list(bfs_edges(g, 1))
    [(1, 2), (2, 3)]
    """
    csr = as_csr(graph)
    node_ids = csr.node_ids
    source_dense = csr.dense_of(source)
    seen = {source_dense}
    queue = [source_dense]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for nbr in csr.out_neighbors(node).tolist():
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
                yield int(node_ids[node]), int(node_ids[nbr])


def dfs_preorder(graph, source: int) -> list[int]:
    """Nodes in depth-first preorder from ``source`` (iterative).

    Children are visited in ascending id order (the adjacency vectors
    are sorted), so the order is deterministic.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(1, 3); _ = g.add_edge(2, 4)
    >>> dfs_preorder(g, 1)
    [1, 2, 4, 3]
    """
    csr = as_csr(graph)
    node_ids = csr.node_ids
    source_dense = csr.dense_of(source)
    seen = {source_dense}
    order = [int(node_ids[source_dense])]
    stack = [(source_dense, 0)]
    while stack:
        node, cursor = stack[-1]
        nbrs = csr.out_neighbors(node)
        if cursor < len(nbrs):
            stack[-1] = (node, cursor + 1)
            child = int(nbrs[cursor])
            if child not in seen:
                seen.add(child)
                order.append(int(node_ids[child]))
                stack.append((child, 0))
        else:
            stack.pop()
    return order
