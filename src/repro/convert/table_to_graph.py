"""Table → graph conversion (paper §2.4) — the "sort-first" algorithm.

"The algorithm builds a graph representation from a table by first making
copies of the source and destination columns, then sorting the column
copies, computing the number of neighbors for each node, and then copying
the neighbor vectors to the graph hash table."

The three phases map here as:

1. **sort** — one argsort over the source, destination and extra node
   columns yields the sorted ``node_ids`` and every endpoint's dense
   label. Each edge becomes one int64 key ``src_label * m + dst_label``,
   exact for any id magnitude; one sort and a neighbour mask order and
   deduplicate the keys, ``divmod`` splits them into out-adjacency runs,
   and one sort of the transposed keys gives the in-adjacency runs.
   numpy's sort is the stand-in for the paper's parallel sort.
2. **count** — a ``bincount`` of the run labels gives each node's
   neighbour count, so "there is no need to estimate the size of the
   hash table or neighbor vectors in advance".
3. **copy** — the paper copies each node's neighbour vector into the
   graph hash table. Here the split keys already are the dense neighbour
   columns, and the graph adopts ``node_ids``, the row pointers and
   those columns as a frozen :class:`~repro.graphs.csr.CSRGraph`.
   No per-node record is made: reads answer from the CSR, the snapshot
   cache wraps it without a copy, and the hash table is built only if
   the graph is mutated (EXPERIMENTS.md, A3).

Two alternative builders are kept as the baselines the paper says it
experimented against (benchmark A1): per-edge dynamic insertion, and
hash-accumulation with a final per-node sort.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConversionError
from repro.faults import fault_point
from repro.graphs.base import (
    dense_labels,
    distinct,
    edge_keys,
    keyed_rows,
    readonly,
    row_pointer,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.obs.spans import trace
from repro.tables.schema import ColumnType
from repro.tables.table import Table


def _as_edge_arrays(sources, targets) -> tuple[np.ndarray, np.ndarray]:
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if sources.ndim != 1 or targets.ndim != 1:
        raise ConversionError("edge arrays must be one-dimensional")
    if len(sources) != len(targets):
        raise ConversionError(
            f"edge arrays disagree on length: {len(sources)} vs {len(targets)}"
        )
    if len(sources) and (sources.min() < 0 or targets.min() < 0):
        raise ConversionError("node ids must be non-negative")
    return sources, targets


def _as_node_array(nodes) -> np.ndarray:
    """Extra node ids for a build (isolated nodes), validated."""
    if nodes is None:
        return np.empty(0, dtype=np.int64)
    nodes = np.ascontiguousarray(nodes, dtype=np.int64)
    if nodes.ndim != 1:
        raise ConversionError("node array must be one-dimensional")
    if len(nodes) and nodes.min() < 0:
        raise ConversionError("node ids must be non-negative")
    return nodes


def _dedup_sorted_pairs(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Keep-mask removing consecutive duplicate (primary, secondary) pairs.

    Arrays must already be sorted by (primary, secondary).
    """
    if len(primary) == 0:
        return np.empty(0, dtype=bool)
    keep = np.empty(len(primary), dtype=bool)
    keep[0] = True
    np.logical_or(
        primary[1:] != primary[:-1], secondary[1:] != secondary[:-1], out=keep[1:]
    )
    return keep


def _sort_first(graph_class, sources, targets, nodes):
    """The sort-first build of either graph class (see the module docstring)."""
    sources, targets = _as_edge_arrays(sources, targets)
    nodes = _as_node_array(nodes)
    fault_point("convert.sort_first")
    graph = graph_class()
    if len(sources) == 0 and len(nodes) == 0:
        return graph
    directed = graph.is_directed
    with trace("convert.sort_first", rows=len(sources), directed=directed) as span:
        # Phase 1: sort the edges as one key column and split it into
        # out-runs, and its sorted transpose into in-runs. An undirected
        # edge is keyed both ways, so its adjacency is its own transpose.
        with trace("convert.sort"):
            node_ids, labels = dense_labels(np.concatenate([sources, targets, nodes]))
            m, n = len(node_ids), len(sources)
            src, dst = labels[:n], labels[n : 2 * n]
            keys = edge_keys(src, dst, m)
            if not directed:
                keys = np.concatenate([keys, edge_keys(dst, src, m)[src != dst]])
            keys = distinct(keys)
            if directed:
                rows, cols, in_rows, in_cols = keyed_rows(keys, m)
            else:
                rows, cols = in_rows, in_cols = np.divmod(keys, m)

        # Phase 2: neighbour counts per row — exact sizes known up
        # front, no growth estimation needed.
        with trace("convert.count"):
            indptr = row_pointer(rows, m)
            in_indptr = row_pointer(in_rows, m) if directed else indptr

        # Phase 3: the split keys already are the dense neighbour columns;
        # with the node ids and the row pointers they are the graph's CSR.
        with trace("convert.copy", nodes=m):
            out = readonly(indptr), readonly(cols)
            into = (readonly(in_indptr), readonly(in_cols)) if directed else out
            csr = CSRGraph(readonly(node_ids), *out, *into)
        # Each non-loop undirected edge is keyed twice, each loop once.
        loops = 0 if directed else int(np.count_nonzero(rows == cols))
        graph._install_csr(csr, len(keys) if directed else (len(keys) + loops) // 2)
        span.set_tag("nodes", m)
        span.set_tag("edges", graph.num_edges)
    return graph


def sort_first_directed(
    sources: np.ndarray, targets: np.ndarray, nodes=None
) -> DirectedGraph:
    """Build a :class:`DirectedGraph` with the paper's sort-first algorithm.

    ``nodes`` adds ids that need not appear in any edge (isolated nodes).
    """
    return _sort_first(DirectedGraph, sources, targets, nodes)


def sort_first_undirected(
    sources: np.ndarray, targets: np.ndarray, nodes=None
) -> UndirectedGraph:
    """Sort-first build of an :class:`UndirectedGraph` (edges symmetrised)."""
    return _sort_first(UndirectedGraph, sources, targets, nodes)


def graph_from_edge_arrays(
    sources: np.ndarray, targets: np.ndarray, directed: bool = True, nodes=None
) -> "DirectedGraph | UndirectedGraph":
    """Canonical bulk construction entry point (sort-first).

    ``nodes`` lists ids to include even without edges, so a restore
    keeps its isolated nodes without mutating the new graph.
    """
    if directed:
        return sort_first_directed(sources, targets, nodes)
    return sort_first_undirected(sources, targets, nodes)


def to_graph(
    table: Table, src_col: str, dst_col: str, directed: bool = True
) -> "DirectedGraph | UndirectedGraph":
    """The paper's ``ringo.ToGraph(T, SrcCol, DstCol)``.

    Nodes are the distinct values of the two columns; each row is an
    edge. Key columns must be integer-typed (string keys should first be
    mapped to ids with :func:`repro.convert.ids.encode_id_columns` or a
    group-by).

    >>> table = Table.from_columns({"a": [1, 2], "b": [2, 3]})
    >>> to_graph(table, "a", "b").num_edges
    2
    """
    for name in (src_col, dst_col):
        if table.schema.require(name) is not ColumnType.INT:
            raise ConversionError(
                f"ToGraph requires integer node-id columns; {name!r} is "
                f"{table.schema[name].value}"
            )
    return graph_from_edge_arrays(
        table.column(src_col), table.column(dst_col), directed=directed
    )


# ----------------------------------------------------------------------
# Baseline builders (§2.4: "We experimented with several approaches")
# ----------------------------------------------------------------------


def per_edge_build(
    sources: np.ndarray, targets: np.ndarray, directed: bool = True
) -> "DirectedGraph | UndirectedGraph":
    """Baseline: one dynamic ``add_edge`` call per row.

    This is the natural dynamic-graph path; every insert pays a binary
    search plus an O(degree) vector shift, which is what the sort-first
    algorithm avoids. Benchmark A1 measures the gap.
    """
    sources, targets = _as_edge_arrays(sources, targets)
    graph = DirectedGraph() if directed else UndirectedGraph()
    for src, dst in zip(sources.tolist(), targets.tolist()):
        graph.add_edge(src, dst)
    return graph


def hash_accumulate_build(
    sources: np.ndarray, targets: np.ndarray, directed: bool = True
) -> "DirectedGraph | UndirectedGraph":
    """Baseline: accumulate neighbour lists in a hash table, sort at the end.

    Avoids per-insert shifting but pays Python-level appends and a final
    per-node sort+dedup; in the C++ original this is the approach needing
    thread-safe hash-table growth, which sort-first sidesteps.
    """
    sources, targets = _as_edge_arrays(sources, targets)
    out_lists: dict[int, list[int]] = {}
    in_lists: dict[int, list[int]] = {}
    for src, dst in zip(sources.tolist(), targets.tolist()):
        out_lists.setdefault(src, []).append(dst)
        in_lists.setdefault(dst, []).append(src)
        out_lists.setdefault(dst, [])
        in_lists.setdefault(src, [])
    if directed:
        graph = DirectedGraph()
        edge_count = 0
        for node in out_lists:
            out_nbrs = np.unique(np.asarray(out_lists[node], dtype=np.int64))
            in_nbrs = np.unique(np.asarray(in_lists[node], dtype=np.int64))
            graph._set_adjacency(node, in_nbrs, out_nbrs)
            edge_count += len(out_nbrs)
        graph._set_edge_count(edge_count)
        return graph
    undirected = UndirectedGraph()
    half_edges = 0
    loop_count = 0
    for node in out_lists:
        merged = np.unique(
            np.concatenate(
                [
                    np.asarray(out_lists[node], dtype=np.int64),
                    np.asarray(in_lists[node], dtype=np.int64),
                ]
            )
        )
        undirected._set_adjacency(node, merged)
        half_edges += len(merged)
        position = int(np.searchsorted(merged, node))
        if position < len(merged) and merged[position] == node:
            loop_count += 1
    undirected._set_edge_count((half_edges - loop_count) // 2 + loop_count)
    return undirected
