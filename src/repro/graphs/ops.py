"""Structural graph operations: subgraphs, degree filtering, renumbering.

These are the SNAP-style "graph manipulation" constructs Ringo exposes
alongside the analytics algorithms. Each derived graph is built in bulk
(paper §2.4): one mask over the input's edge arrays picks the edges,
and one sort-first build makes the result, which is CSR-backed and
iterates its nodes in ascending order like every bulk-built graph.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.exceptions import GraphError
from repro.graphs.base import distinct
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph


def subgraph(
    graph: "DirectedGraph | UndirectedGraph", nodes: Iterable[int]
) -> "DirectedGraph | UndirectedGraph":
    """Induced subgraph on ``nodes`` (ids kept; absent ids ignored).

    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(2, 3)
    >>> sub = subgraph(g, [1, 2])
    >>> sub.num_edges
    1
    """
    keep = graph.node_array()
    keep = keep[np.isin(keep, np.fromiter(nodes, dtype=np.int64))]
    sources, targets = graph.edge_arrays()
    inside = np.isin(sources, keep) & np.isin(targets, keep)
    return graph_from_edge_arrays(
        sources[inside], targets[inside], directed=graph.is_directed, nodes=keep
    )


def remove_self_loops(graph: "DirectedGraph | UndirectedGraph") -> int:
    """Delete all self-loops in place; returns how many were removed."""
    loops = [node for node in graph.nodes() if graph.has_edge(node, node)]
    for node in loops:
        graph.del_edge(node, node)
    return len(loops)


def filter_by_degree(
    graph: "DirectedGraph | UndirectedGraph", min_degree: int
) -> "DirectedGraph | UndirectedGraph":
    """Induced subgraph on nodes with total degree >= ``min_degree``."""
    keep = [node for node in graph.nodes() if graph.degree(node) >= min_degree]
    return subgraph(graph, keep)


def renumber(
    graph: "DirectedGraph | UndirectedGraph",
) -> tuple["DirectedGraph | UndirectedGraph", dict[int, int]]:
    """Relabel nodes to dense ``0..n-1``; returns ``(graph, old->new)``.

    Useful before exporting to array-indexed tools.
    """
    ids = np.sort(graph.node_array())
    sources, targets = (np.searchsorted(ids, ends) for ends in graph.edge_arrays())
    result = graph_from_edge_arrays(
        sources, targets, directed=graph.is_directed, nodes=np.arange(len(ids))
    )
    return result, dict(zip(ids.tolist(), range(len(ids))))


def ego_network(
    graph: "DirectedGraph | UndirectedGraph",
    center: int,
    radius: int = 1,
    direction: str = "both",
) -> "DirectedGraph | UndirectedGraph":
    """Induced subgraph on the center plus its ``radius``-hop neighbourhood.

    ``direction`` controls expansion on directed graphs: ``out``, ``in``,
    or ``both`` (default, the usual egonet convention).

    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(2, 3); _ = g.add_edge(3, 4)
    >>> sorted(ego_network(g, 2, radius=1).nodes())
    [1, 2, 3]
    """
    from repro.algorithms.bfs import bfs_levels
    from repro.util.validation import check_positive

    check_positive(radius, "radius")
    levels = bfs_levels(graph, center, direction=direction if graph.is_directed else "both")
    members = [node for node, level in levels.items() if level <= radius]
    return subgraph(graph, members)


def merge_graphs(
    left: "DirectedGraph | UndirectedGraph",
    right: "DirectedGraph | UndirectedGraph",
) -> "DirectedGraph | UndirectedGraph":
    """Union of two graphs of the same kind: all nodes, all edges."""
    if left.is_directed != right.is_directed:
        raise GraphError("cannot merge directed with undirected graphs")
    sources, targets = map(np.concatenate, zip(left.edge_arrays(), right.edge_arrays()))
    nodes = np.concatenate((left.node_array(), right.node_array()))
    return graph_from_edge_arrays(sources, targets, directed=left.is_directed, nodes=nodes)


def intersect_graphs(
    left: "DirectedGraph | UndirectedGraph",
    right: "DirectedGraph | UndirectedGraph",
) -> "DirectedGraph | UndirectedGraph":
    """Graph with the shared nodes and shared edges of both inputs."""
    if left.is_directed != right.is_directed:
        raise GraphError("cannot intersect directed with undirected graphs")
    nodes = left.node_array()
    nodes = nodes[np.isin(nodes, right.node_array())]
    sources, targets = left.edge_arrays()
    # The right graph's rows, compared by value: ids of any size work.
    shared = right._out_rows(distinct(sources)).contain(sources, targets)
    return graph_from_edge_arrays(
        sources[shared], targets[shared], directed=left.is_directed, nodes=nodes
    )


def degree_array(graph: "DirectedGraph | UndirectedGraph") -> np.ndarray:
    """Total degree per node, aligned with :meth:`GraphBase.node_array`."""
    return np.fromiter(
        (graph.degree(node) for node in graph.nodes()),
        dtype=np.int64,
        count=graph.num_nodes,
    )
