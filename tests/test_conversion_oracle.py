"""The adjacency gather against an oracle built from edge iteration.

``CSRGraph.from_graph``, ``edge_arrays`` and ``to_edge_table`` all read
the node hash table through one numpy gather. The oracle here never
touches it: it rebuilds each expected array from ``graph.edges()`` and
``graph.node_array()`` alone, one Python list per row, and the gathered
arrays must match it bitwise — values and dtypes.
"""

import numpy as np
import pytest

from repro.algorithms.generators import rmat
from repro.convert.graph_to_table import to_edge_table
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph


def _empty(directed):
    return DirectedGraph() if directed else UndirectedGraph()


def _isolated_node(directed):
    graph = _empty(directed)
    graph.add_node(7)
    return graph


def _self_loops(directed):
    # Inserted out of id order, so hash-table order differs from sorted.
    graph = _empty(directed)
    for u, v in [(5, 5), (5, 2), (2, 2), (9, 5), (2, 9)]:
        graph.add_edge(u, v)
    return graph


def _isolated_among_edges(directed):
    graph = _empty(directed)
    graph.add_node(40)
    for u, v in [(3, 1), (1, 4), (4, 3), (12, 3)]:
        graph.add_edge(u, v)
    graph.add_node(0)
    return graph


def _rmat(directed):
    graph = rmat(10, 4000, seed=5, directed=directed)
    graph.add_node(5000)
    return graph


GRAPHS = {
    "empty": _empty,
    "isolated-node": _isolated_node,
    "self-loops": _self_loops,
    "isolated-among-edges": _isolated_among_edges,
    "rmat-2^10": _rmat,
}


def _oracle_csr(graph):
    """Expected CSR arrays, from edge iteration and the node list only."""
    node_ids = np.sort(graph.node_array())
    dense = {node: index for index, node in enumerate(node_ids.tolist())}
    out_rows = [[] for _ in dense]
    in_rows = [[] for _ in dense]
    for src, dst in graph.edges():
        out_rows[dense[src]].append(dense[dst])
        if graph.is_directed:
            in_rows[dense[dst]].append(dense[src])
        elif src != dst:
            out_rows[dense[dst]].append(dense[src])

    def flatten(rows):
        indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
        indices = [value for row in rows for value in sorted(row)]
        return indptr.astype(np.int64), np.asarray(indices, dtype=np.int64)

    out_indptr, out_indices = flatten(out_rows)
    if not graph.is_directed:
        return [node_ids, out_indptr, out_indices, out_indptr, out_indices]
    return [node_ids, out_indptr, out_indices, *flatten(in_rows)]


def _assert_bitwise(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("case", sorted(GRAPHS))
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_gather_matches_oracle(directed, case):
    graph = GRAPHS[case](directed)

    csr = CSRGraph.from_graph(graph)
    got = [csr.node_ids, csr.out_indptr, csr.out_indices, csr.in_indptr, csr.in_indices]
    for array, expected in zip(got, _oracle_csr(graph)):
        _assert_bitwise(array, expected)

    pairs = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    sources, targets = graph.edge_arrays()
    _assert_bitwise(sources, pairs[:, 0].copy())
    _assert_bitwise(targets, pairs[:, 1].copy())
    assert len(sources) == graph.num_edges

    table = to_edge_table(graph)
    _assert_bitwise(table.column("SrcId"), sources)
    _assert_bitwise(table.column("DstId"), targets)
