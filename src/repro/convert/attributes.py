"""Attribute flow between tables and networks (paper Figure 2).

"Results of graph operations are added back to tables" — and table
columns also flow onto graphs as node attributes. This module provides
both directions for :class:`~repro.graphs.network.Network`:

* :func:`network_from_tables` — build an attributed network from an
  edge table plus an optional node-attribute table,
* :func:`attach_node_attribute` — push one table column onto nodes,
* :func:`node_attribute_table` — pull node attributes back into a table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.convert.table_to_graph import _dedup_sorted_pairs, graph_from_edge_arrays
from repro.exceptions import ConversionError
from repro.graphs.network import Network
from repro.tables.schema import ColumnType, Schema
from repro.tables.strings import StringPool
from repro.tables.table import Table


def network_from_tables(
    edge_table: Table,
    src_col: str,
    dst_col: str,
    node_table: Table | None = None,
    node_key: str | None = None,
    node_attrs: Sequence[str] | None = None,
) -> Network:
    """Build a :class:`Network` from an edge table (+ node attributes).

    Edge endpoints come from two integer columns, exactly like
    :func:`repro.convert.table_to_graph.to_graph`. When ``node_table``
    is given, each listed attribute column is attached to the node named
    by ``node_key``; node ids in the node table that the edges never
    mention are added as isolated nodes.

    >>> edges = Table.from_columns({"a": [1], "b": [2]})
    >>> net = network_from_tables(edges, "a", "b")
    >>> net.num_edges
    1
    """
    for name in (src_col, dst_col):
        if edge_table.schema.require(name) is not ColumnType.INT:
            raise ConversionError(f"endpoint column {name!r} must be integer")
    nodes = None
    if node_table is not None:
        if node_key is None:
            raise ConversionError("node_key is required with a node table")
        if node_table.schema.require(node_key) is not ColumnType.INT:
            raise ConversionError(f"node key column {node_key!r} must be integer")
        nodes = node_table.column(node_key)
    network = _network_from(
        edge_table.column(src_col), edge_table.column(dst_col), nodes=nodes
    )
    if node_table is not None:
        attrs = list(node_attrs) if node_attrs is not None else [
            name for name in node_table.schema.names if name != node_key
        ]
        for attr in attrs:
            attach_node_attribute(network, node_table, node_key, attr)
    return network


def weighted_network_from_edges(
    table: Table,
    src_col: str,
    dst_col: str,
    weight_col: str | None = None,
    weight_attr: str = "weight",
) -> Network:
    """Collapse an event table into a weighted interaction network.

    Duplicate ``(src, dst)`` rows become one edge whose ``weight_attr``
    holds the row count — or the sum of ``weight_col`` when given. The
    natural build for "how often did u interact with v" graphs, ready
    for :func:`repro.algorithms.pagerank.pagerank_weighted`.

    >>> t = Table.from_columns({"a": [1, 1, 2], "b": [2, 2, 3]})
    >>> net = weighted_network_from_edges(t, "a", "b")
    >>> net.num_edges, net.edge_attr(1, 2, "weight")
    (2, 2.0)
    """
    for name in (src_col, dst_col):
        if table.schema.require(name) is not ColumnType.INT:
            raise ConversionError(f"endpoint column {name!r} must be integer")
    sources = table.column(src_col)
    targets = table.column(dst_col)
    if weight_col is not None:
        if table.schema.require(weight_col) is ColumnType.STRING:
            raise ConversionError(f"weight column {weight_col!r} must be numeric")
        weights = table.column(weight_col).astype(np.float64)
    else:
        weights = np.ones(table.num_rows, dtype=np.float64)
    if len(sources) == 0:
        return Network()
    # A stable sort groups each pair's rows in table order, so each sum
    # adds in the same order as a per-row accumulation would.
    order = np.lexsort((targets, sources))
    sources, targets = sources[order], targets[order]
    first = _dedup_sorted_pairs(sources, targets)
    totals = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    sources, targets = sources[first], targets[first]
    network = _network_from(sources, targets)
    network._edge_attrs[weight_attr] = dict(
        zip(zip(sources.tolist(), targets.tolist()), totals.tolist())
    )
    return network


def _network_from(sources: np.ndarray, targets: np.ndarray, nodes=None) -> Network:
    """A :class:`Network` adopting a sort-first build's CSR, as ``copy()`` does."""
    built = graph_from_edge_arrays(sources, targets, nodes=nodes)
    network = Network()
    if built._csr is not None:  # an empty build has no backing
        network._install_csr(built._csr, built.num_edges)
    return network


def attach_node_attribute(
    network: Network,
    table: Table,
    key_col: str,
    value_col: str,
    attr_name: str | None = None,
) -> int:
    """Push one table column onto node attributes; returns nodes touched.

    Rows whose key is not a node in the network are skipped (the table
    may describe a superset of the graph).
    """
    if table.schema.require(key_col) is not ColumnType.INT:
        raise ConversionError(f"key column {key_col!r} must be integer")
    attr_name = attr_name if attr_name is not None else value_col
    keys = table.column(key_col).tolist()
    values = table.values(value_col)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    touched = 0
    for node, value in zip(keys, values):
        if network.has_node(node):
            network.set_node_attr(node, attr_name, value)
            touched += 1
    return touched


def node_attribute_table(
    network: Network,
    attrs: Sequence[str] | None = None,
    node_col: str = "NodeId",
    default: float = 0.0,
    pool: StringPool | None = None,
) -> Table:
    """Pull node attributes back into a table (one row per node).

    Attribute columns are typed by inspecting their values: all-int →
    int, any-string → string, otherwise float with ``default`` filling
    unset numeric attributes.
    """
    names = list(attrs) if attrs is not None else list(network.node_attr_names())
    nodes = sorted(network.nodes())
    schema_cols: list[tuple[str, ColumnType]] = [(node_col, ColumnType.INT)]
    columns: dict[str, object] = {node_col: np.asarray(nodes, dtype=np.int64)}
    for attr in names:
        if attr == node_col:
            raise ConversionError(f"attribute name {attr!r} clashes with the node column")
        values = [network.node_attr(node, attr) for node in nodes]
        if any(isinstance(v, str) for v in values):
            rendered = ["" if v is None else str(v) for v in values]
            schema_cols.append((attr, ColumnType.STRING))
            columns[attr] = rendered
        elif all(isinstance(v, (int, np.integer)) for v in values if v is not None) and any(
            v is not None for v in values
        ):
            filled = [int(default) if v is None else int(v) for v in values]
            schema_cols.append((attr, ColumnType.INT))
            columns[attr] = np.asarray(filled, dtype=np.int64)
        else:
            filled = [default if v is None else float(v) for v in values]
            schema_cols.append((attr, ColumnType.FLOAT))
            columns[attr] = np.asarray(filled, dtype=np.float64)
    return Table.from_columns(columns, schema=Schema(schema_cols), pool=pool)
