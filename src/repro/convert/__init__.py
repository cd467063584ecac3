"""Conversions between tables and graphs (paper §2.4).

"Fast conversions between graph and table objects are essential for data
exploration tasks involving graphs."
"""

from repro.convert.attributes import (
    attach_node_attribute,
    network_from_tables,
    node_attribute_table,
    weighted_network_from_edges,
)
from repro.convert.cooccurrence import co_occurrence_graph, co_occurrence_pairs
from repro.convert.graph_to_table import to_edge_table, to_node_table
from repro.convert.hashmap_table import table_from_hashmap
from repro.convert.table_to_graph import (
    graph_from_edge_arrays,
    hash_accumulate_build,
    per_edge_build,
    sort_first_directed,
    sort_first_undirected,
    to_graph,
)

__all__ = [
    "attach_node_attribute",
    "co_occurrence_graph",
    "co_occurrence_pairs",
    "graph_from_edge_arrays",
    "network_from_tables",
    "node_attribute_table",
    "hash_accumulate_build",
    "per_edge_build",
    "sort_first_directed",
    "sort_first_undirected",
    "table_from_hashmap",
    "to_edge_table",
    "to_graph",
    "to_node_table",
    "weighted_network_from_edges",
]
