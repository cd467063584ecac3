"""Graph → table conversion (paper §2.4).

"This conversion can be easily performed in parallel by partitioning the
graph's nodes or edges among worker threads, pre-allocating the output
table, and assigning a corresponding partition in the output table to
each thread." Here the whole export is one serial numpy gather: the
graph's :meth:`edge_arrays` concatenates every adjacency vector once and
repeats each node id by its degree, so there is no per-node loop left
to partition among threads.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.obs.spans import trace
from repro.tables.schema import ColumnType, Schema
from repro.tables.strings import StringPool
from repro.tables.table import Table

SRC_COLUMN = "SrcId"
DST_COLUMN = "DstId"
NODE_COLUMN = "NodeId"
IN_DEGREE_COLUMN = "InDeg"
OUT_DEGREE_COLUMN = "OutDeg"
DEGREE_COLUMN = "Deg"


def to_edge_table(
    graph: "DirectedGraph | UndirectedGraph",
    string_pool: StringPool | None = None,
) -> Table:
    """Edge table (``SrcId``, ``DstId``) from a graph.

    Undirected edges appear once each (as ``u <= v`` pairs).

    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2)
    >>> to_edge_table(g).column("SrcId").tolist()
    [1]
    """
    with trace("convert.to_edge_table", nodes=graph.num_nodes) as span:
        sources, targets = graph.edge_arrays()
        span.set_tag("edges", len(sources))
    schema = Schema([(SRC_COLUMN, ColumnType.INT), (DST_COLUMN, ColumnType.INT)])
    return Table(
        schema, {SRC_COLUMN: sources, DST_COLUMN: targets}, pool=string_pool
    )


def to_node_table(
    graph: "DirectedGraph | UndirectedGraph",
    include_degrees: bool = False,
    string_pool: StringPool | None = None,
) -> Table:
    """Node table (``NodeId`` and optionally degree columns) from a graph."""
    with trace("convert.to_node_table", degrees=include_degrees) as span:
        nodes = graph.node_array()
        span.set_tag("nodes", len(nodes))
        columns: dict[str, np.ndarray] = {NODE_COLUMN: nodes}
        if include_degrees:
            if graph.is_directed:
                degree_of = {
                    IN_DEGREE_COLUMN: graph.in_degree,
                    OUT_DEGREE_COLUMN: graph.out_degree,
                }
            else:
                degree_of = {DEGREE_COLUMN: graph.degree}
            node_list = nodes.tolist()
            for name, degree in degree_of.items():
                columns[name] = np.fromiter(
                    map(degree, node_list), dtype=np.int64, count=len(node_list)
                )
        schema = Schema([(name, ColumnType.INT) for name in columns])
        return Table(schema, columns, pool=string_pool)
