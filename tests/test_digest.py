"""Graph and table digests hash the same bytes whatever order a graph keeps.

``graph_digest`` hashes the sorted ``(src, dst)`` edge image. A
CSR-backed graph already yields it in that order, so it is hashed as
it comes; only a graph on the node hash table is sorted. The reference
below is the earlier implementation, which lexsorted every graph's
edges: each graph in the matrix must digest to exactly its value.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import Ringo
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.recovery import digest as digest_module
from repro.recovery.digest import graph_digest, table_digest
from repro.tables.schema import ColumnType
from repro.tables.table import Table


def _reference_feed(hasher, label: str, data: bytes) -> None:
    hasher.update(label.encode("utf-8"))
    hasher.update(str(len(data)).encode("utf-8"))
    hasher.update(data)


def reference_graph_digest(graph) -> str:
    """The lexsort digest every graph digest must keep matching."""
    hasher = hashlib.sha256()
    sources, targets = graph.edge_arrays()
    edges = np.stack(
        [np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)]
    ).T
    if not graph.is_directed:
        edges = np.sort(edges, axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    _reference_feed(hasher, "directed", b"1" if graph.is_directed else b"0")
    _reference_feed(hasher, "nodes", np.sort(graph.node_array()).tobytes())
    _reference_feed(hasher, "edges", np.ascontiguousarray(edges[order]).tobytes())
    return hasher.hexdigest()


def reference_table_digest(table: Table) -> str:
    hasher = hashlib.sha256()
    schema = [[name, col_type.value] for name, col_type in table.schema]
    _reference_feed(hasher, "schema", json.dumps(schema).encode("utf-8"))
    _reference_feed(hasher, "row_ids", np.ascontiguousarray(table.row_ids).tobytes())
    for name, col_type in table.schema:
        if col_type is ColumnType.STRING:
            payload = json.dumps(list(table.values(name))).encode("utf-8")
        else:
            payload = np.ascontiguousarray(table.column(name)).tobytes()
        _reference_feed(hasher, f"col:{name}", payload)
    return hasher.hexdigest()


def _random_pairs(seed: int, num_nodes: int = 60, num_edges: int = 300):
    rng = np.random.default_rng(seed)
    ids = rng.choice(10**12, size=num_nodes, replace=False)
    return ids[rng.integers(0, num_nodes, num_edges)], ids[rng.integers(0, num_nodes, num_edges)]


# Edge lists of the matrix: (sources, targets, isolated nodes).
SHAPES = {
    "empty": ([], [], []),
    "isolated-only": ([], [], [7, 3]),
    "one-edge": ([5], [2], []),
    "self-loop": ([4], [4], []),
    "loops-and-isolated": ([1, 2, 3, 3, 2, 8], [2, 3, 1, 3, 2, 1], [9, 0]),
    "random": (*_random_pairs(3), [11]),
}


def _csr_backed(shape: str, directed: bool):
    sources, targets, isolated = SHAPES[shape]
    graph = graph_from_edge_arrays(
        np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64),
        directed=directed, nodes=isolated,
    )
    assert graph._csr is not None or not graph.num_nodes  # a bulk build backs any nodes
    return graph


def _hash_table(shape: str, directed: bool):
    """The same graph added edge by edge, newest node first in the table."""
    sources, targets, isolated = SHAPES[shape]
    graph = DirectedGraph() if directed else UndirectedGraph()
    for node in isolated:
        graph.add_node(int(node))
    for src, dst in reversed(list(zip(sources, targets))):
        graph.add_edge(int(src), int(dst))
    assert graph._csr is None
    return graph


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("build", [_csr_backed, _hash_table], ids=["csr", "hash-table"])
def test_matches_the_lexsort_reference(build, directed, shape):
    graph = build(shape, directed)
    assert graph_digest(graph) == reference_graph_digest(graph)


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_backing_and_hash_table_digest_alike(directed):
    backed = _csr_backed("random", directed)
    table = _hash_table("random", directed)
    sources, targets = table.edge_arrays()
    order = np.lexsort((targets, sources))
    assert not np.array_equal(order, np.arange(len(order)))  # the sorting path runs
    assert graph_digest(backed) == graph_digest(table)


class _Listed:
    """A directed graph stand-in that lists its edges in the order given."""

    is_directed = True

    def __init__(self, sources, targets):
        self._sources = np.asarray(sources, dtype=np.int64)
        self._targets = np.asarray(targets, dtype=np.int64)

    def edge_arrays(self):
        return self._sources.copy(), self._targets.copy()

    def node_array(self):
        return np.unique(np.concatenate([self._sources, self._targets]))


@pytest.mark.parametrize("sources, targets", [
    ([1, 1, 1, 2], [3, 2, 5, 1]),  # sources in order, one row's targets not
    ([2, 1, 1, 1], [1, 2, 3, 5]),  # targets in order, sources not
])
def test_edges_listed_out_of_order(sources, targets):
    listed = _Listed(sources, targets)
    assert graph_digest(listed) == reference_graph_digest(listed)
    assert graph_digest(listed) == graph_digest(_Listed([1, 1, 1, 2], [2, 3, 5, 1]))


def _session_graph(ringo, directed: bool):
    sources, targets = _random_pairs(5, num_nodes=40, num_edges=200)
    edges = ringo.TableFromColumns({"src": sources, "dst": targets})
    return ringo.ToGraph(edges, "src", "dst", directed=directed)


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_after_a_batch_merged_into_the_backing(directed):
    with Ringo(workers=1) as ringo:
        graph = _session_graph(ringo, directed)
        src, dst = next(iter(graph.edges()))
        nodes = graph.node_array()
        ops = [["del_edge", int(src), int(dst)], ["add_edge", int(nodes[0]), int(nodes[-1])]]
        ringo.ApplyOps(graph, ops)
        assert graph._csr is not None
        assert graph_digest(graph) == reference_graph_digest(graph)


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_after_a_batch_that_changes_the_node_set(directed):
    with Ringo(workers=1) as ringo:
        graph = _session_graph(ringo, directed)
        first = int(graph.node_array()[0])
        ringo.ApplyOps(graph, [["add_edge", 3, first], ["add_node", 1], ["add_edge", first, 2]])
        assert graph._csr is None
        assert graph_digest(graph) == reference_graph_digest(graph)


def test_weighted_network():
    with Ringo(workers=1) as ringo:
        sources, targets = _random_pairs(9, num_nodes=30, num_edges=150)
        events = ringo.TableFromColumns({"a": sources, "b": targets})
        network = ringo.ToWeightedNetwork(events, "a", "b")
        assert network.num_edges > 0
        assert graph_digest(network) == reference_graph_digest(network)


def test_table_digest_hashes_the_same_bytes():
    table = Table.from_columns({
        "id": [3, 1, 2], "score": [0.5, -1.0, 2.25], "name": ["b", "a", "c"],
    })
    assert table_digest(table) == reference_table_digest(table)
    assert table_digest(table.select("id > 1")) == reference_table_digest(table.select("id > 1"))


class _NoSortNumpy:
    """numpy, except that its sorts raise."""

    def __getattr__(self, name):
        if name in ("lexsort", "sort", "argsort"):
            raise AssertionError(f"np.{name} called on an ordered graph")
        return getattr(np, name)


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_a_csr_backed_graph_is_hashed_without_sorting(directed, monkeypatch):
    graph = _csr_backed("loops-and-isolated", directed)
    expected = reference_graph_digest(graph)
    monkeypatch.setattr(digest_module, "np", _NoSortNumpy())
    assert graph_digest(graph) == expected
