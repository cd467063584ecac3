"""Both graph representations against an oracle built from edge iteration.

``CSRGraph.from_graph``, ``edge_arrays`` and ``to_edge_table`` read a
record-built graph through one numpy gather, and a CSR-backed graph (the
sort-first build) straight from its arrays. The oracle here never
touches either: it rebuilds each expected array from ``graph.edges()``
and ``graph.node_array()`` alone, one Python list per row, and the
arrays must match it bitwise — values and dtypes. Every case is built
twice, once per representation, and the twins must agree on every
public read, also after any sequence of mutations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.generators import rmat
from repro.convert.graph_to_table import to_edge_table
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.exceptions import RingoError
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


def _backed_twin(graph):
    """The same graph built in bulk: CSR-backed, isolated nodes included."""
    twin = graph_from_edge_arrays(
        *graph.edge_arrays(), directed=graph.is_directed, nodes=graph.node_array()
    )
    assert len(twin) == 0 or twin._csr is not None
    return twin


def _twins(case, directed):
    record = GRAPHS[case](directed)
    assert record._csr is None
    return {"record": record, "backed": _backed_twin(record)}


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


def _outcome(call):
    """``("ok", value)`` or ``("raises", error type)`` of ``call()``."""
    try:
        value = call()
    except RingoError as error:
        return "raises", type(error)
    if isinstance(value, np.ndarray):
        assert not value.flags.writeable
        return "ok", (value.dtype, value.tolist())
    return "ok", value


def _reads(graph):
    """Every public read of ``graph``, order-free where order is not defined.

    Node order is insertion order for a record-built graph and ascending
    for a CSR-backed one, so iteration results are compared sorted; the
    per-node reads are probed for every node and two ids that are not.
    """
    nodes = sorted(graph.nodes())
    probes = nodes + [max(nodes, default=0) + 1, 10_000]
    sources, targets = graph.edge_arrays()
    reads = {
        "len": len(graph),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "nodes": nodes,
        "node_array": sorted(graph.node_array().tolist()),
        "max_node_id": graph.max_node_id(),
        "edges": sorted(graph.edges()),
        "edge_arrays": sorted(zip(sources.tolist(), targets.tolist())),
        "contains": [node in graph for node in probes],
        "has_node": [graph.has_node(node) for node in probes],
        "has_edge": [graph.has_edge(u, v) for u in probes for v in probes],
    }
    names = (
        ["out_neighbors", "in_neighbors", "out_degree", "in_degree", "degree"]
        if graph.is_directed
        else ["neighbors", "degree"]
    )
    for name in names:
        method = getattr(graph, name)
        reads[name] = [_outcome(lambda node=node: method(node)) for node in probes]
    return reads


@pytest.mark.parametrize("case", sorted(GRAPHS))
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_twins_agree_on_every_read(directed, case):
    twins = _twins(case, directed)
    assert _reads(twins["backed"]) == _reads(twins["record"])
    assert twins["backed"].memory_bytes() <= twins["record"].memory_bytes()


def _assert_matches_oracle(graph):
    """``from_graph``, ``edge_arrays`` and the edge table, bitwise."""
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


@pytest.mark.parametrize("case", sorted(GRAPHS))
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_gather_matches_oracle(directed, case):
    for graph in _twins(case, directed).values():
        _assert_matches_oracle(graph)


_IDS = st.integers(min_value=0, max_value=9)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add_node", "add_edge", "del_edge", "del_node"]), _IDS, _IDS
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(
    directed=st.booleans(),
    edges=st.lists(st.tuples(_IDS, _IDS), max_size=20),
    isolated=st.lists(_IDS, max_size=3),
    ops=_OPS,
)
def test_twins_agree_after_every_mutation(directed, edges, isolated, ops):
    record = _empty(directed)
    for node in isolated:
        record.add_node(node)
    for u, v in edges:
        record.add_edge(u, v)
    backed = _backed_twin(record)
    for kind, a, b in ops:
        args = (a,) if kind in ("add_node", "del_node") else (a, b)
        results = [
            _outcome(lambda graph=graph: getattr(graph, kind)(*args))
            for graph in (record, backed)
        ]
        assert results[0] == results[1], (kind, args)
        assert _reads(backed) == _reads(record), (kind, args)
    _assert_matches_oracle(backed)
