"""Batched ingest against the per-op loop it replaced.

``apply_graph_ops`` resolves a whole batch with one sort and applies its
net change as arrays. :func:`legacy_apply_graph_ops` below is the loop
it replaced — each op through the graph's public mutators, in order —
kept here as the reference. On random mutation traces and on hand-built
corner shapes, over ``DirectedGraph``, ``UndirectedGraph`` and
``Network``, CSR-backed and materialised, the two must leave the same
graph (node order included), report the same summary, and the batched
graph's next snapshot — refreshed through the delta path — must equal a
fresh ``CSRGraph.from_graph`` array for array. A CSR-backed graph whose
batch keeps its node set merges the batch into its backing and stays
backed; one whose batch adds or re-creates a node grows its hash table.
"""

import random

import numpy as np
import pytest

from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.network import Network
from repro.graphs import snapshot as snapshot_module
from repro.graphs.snapshot import csr_snapshot
from repro.graphs.undirected import UndirectedGraph
from repro.incremental.engine import incremental_engine
from repro.incremental.ingest import apply_graph_ops, validate_ops
from tests.helpers import apply_random_mutations

KINDS = ("directed", "undirected", "network")
UNIVERSE = 30


def legacy_apply_graph_ops(graph, ops) -> dict:
    """The per-op ingest loop, as it was before batching (reference)."""
    applied = 0
    skipped = 0
    for kind, *operands in validate_ops(ops):
        if kind == "add_node":
            if graph.add_node(operands[0]):
                applied += 1
            else:
                skipped += 1
        elif kind == "del_node":
            graph.del_node(operands[0])
            applied += 1
        elif kind == "add_edge":
            if graph.add_edge(operands[0], operands[1]):
                applied += 1
            else:
                skipped += 1
        else:  # del_edge
            graph.del_edge(operands[0], operands[1])
            applied += 1
    return {
        "applied": applied,
        "skipped": skipped,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
    }


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine = incremental_engine()
    engine.reset()
    yield engine
    engine.reset()


def make_graph(kind: str, backed: bool, pairs):
    """A graph of ``kind`` holding ``pairs``, CSR-backed or materialised."""
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    if kind == "network":
        graph = Network()
        if backed:
            bulk = graph_from_edge_arrays(src, dst, directed=True)
            graph._install_csr(bulk._csr, bulk.num_edges)
        else:
            for u, v in pairs:
                graph.add_edge(u, v)
        if pairs:
            for node in list(graph.nodes())[::3]:
                graph.set_node_attr(node, "tag", node * 10)
            for u, v in sorted(set(pairs))[::2]:
                graph.set_edge_attr(u, v, "w", u + v)
        return graph
    if backed:
        return graph_from_edge_arrays(src, dst, directed=kind == "directed")
    graph = DirectedGraph() if kind == "directed" else UndirectedGraph()
    for u, v in pairs:
        graph.add_edge(u, v)
    return graph


def adjacency(graph) -> list:
    """Node order plus every node's sorted rows, as plain lists."""
    if graph.is_directed:
        return [
            (node, graph.out_neighbors(node).tolist(), graph.in_neighbors(node).tolist())
            for node in graph.nodes()
        ]
    return [(node, graph.neighbors(node).tolist()) for node in graph.nodes()]


def assert_same(batched, legacy):
    assert adjacency(batched) == adjacency(legacy)
    assert batched.num_edges == legacy.num_edges
    if isinstance(legacy, Network):
        assert batched._node_attrs == legacy._node_attrs
        assert batched._edge_attrs == legacy._edge_attrs


def assert_snapshot_is_fresh(graph):
    got = csr_snapshot(graph)
    expected = CSRGraph.from_graph(graph)
    for name in ("node_ids", "out_indptr", "out_indices", "in_indptr", "in_indices"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def check_batch(batched, legacy, ops, engine):
    """Apply ``ops`` both ways; both must agree and the snapshot stay exact."""
    csr_snapshot(batched)  # the delta base: cached, with a log anchored
    before = engine.stats()
    version = batched.version
    summary = apply_graph_ops(batched, ops)
    reference = legacy_apply_graph_ops(legacy, ops)
    assert {key: summary[key] for key in reference} == reference
    assert summary["version"] == batched.version
    assert batched.version - version in (0, 1)
    assert_same(batched, legacy)
    assert_snapshot_is_fresh(batched)
    after = engine.stats()
    assert after["fallback_full"] == before["fallback_full"]
    if batched.version != version:
        assert after["delta_applied"] == before["delta_applied"] + 1


def twins(kind, backed, seed):
    """Three equal graphs: batched, legacy, and one the trace is drawn on."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(UNIVERSE), rng.randrange(UNIVERSE)) for _ in range(60)]
    return [make_graph(kind, backed, pairs) for _ in range(3)]


@pytest.mark.parametrize("backed", [False, True], ids=["materialised", "csr"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(8))
def test_random_traces_match_the_per_op_loop(kind, backed, seed, _fresh_engine):
    batched, legacy, source = twins(kind, backed, seed)
    rng = random.Random(1000 + seed)
    for _ in range(4):
        ops = apply_random_mutations(
            source, rng, count=rng.randrange(1, 30), universe=UNIVERSE
        )
        check_batch(batched, legacy, ops, _fresh_engine)


@pytest.mark.parametrize("backed", [False, True], ids=["materialised", "csr"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_a_bad_op_anywhere_changes_nothing(kind, backed, seed, _fresh_engine):
    batched, legacy, source = twins(kind, backed, seed)
    rng = random.Random(2000 + seed)
    ops = apply_random_mutations(source, rng, count=rng.randrange(1, 25), universe=UNIVERSE)
    position = rng.randrange(len(ops) + 1)
    bad = ["del_edge", 500, 501] if rng.random() < 0.5 else ["del_node", 777]
    ops.insert(position, bad)
    before = adjacency(batched)
    version = batched.version
    error = EdgeNotFoundError if bad[0] == "del_edge" else NodeNotFoundError
    with pytest.raises(error, match=f"op #{position}:"):
        apply_graph_ops(batched, ops)
    with pytest.raises(error):
        legacy_apply_graph_ops(legacy, ops)
    assert adjacency(batched) == before
    assert batched.version == version


HAND_SHAPES = {
    "delete-then-readd": [["del_edge", 1, 2], ["add_edge", 1, 2]],
    "add-existing-edge": [["add_edge", 2, 3], ["add_edge", 9, 9]],
    "self-loops": [["add_edge", 4, 4], ["add_edge", 4, 4], ["del_edge", 4, 4],
                   ["add_edge", 2, 2], ["del_node", 2]],
    "del-node-of-batch-edges": [["add_edge", 7, 8], ["add_edge", 8, 1],
                                ["add_edge", 3, 8], ["del_node", 8]],
    "recreate-deleted-node": [["del_node", 3], ["add_edge", 3, 9], ["add_edge", 1, 3],
                              ["add_node", 2], ["del_node", 1], ["add_node", 1]],
    "readd-edge-after-node-delete": [["del_node", 2], ["add_edge", 1, 2],
                                     ["add_edge", 2, 3], ["del_edge", 1, 2]],
    "nodes-only": [["add_node", 40], ["add_node", 1], ["del_node", 4], ["add_node", 4]],
    "empty": [],
    "huge-ids": [["add_edge", 2**40, 2**41 + 5], ["add_edge", 2**41 + 5, 1],
                 ["add_edge", 2**62, 2**40], ["del_edge", 2**41 + 5, 1]],
}


@pytest.mark.parametrize("backed", [False, True], ids=["materialised", "csr"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", sorted(HAND_SHAPES))
def test_hand_shapes(shape, kind, backed, _fresh_engine):
    pairs = [(1, 2), (2, 3), (3, 1), (3, 4)]
    batched, legacy = (make_graph(kind, backed, pairs) for _ in range(2))
    check_batch(batched, legacy, HAND_SHAPES[shape], _fresh_engine)


@pytest.mark.parametrize("backed", [False, True], ids=["materialised", "csr"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_batch_that_cancels_out_moves_nothing(kind, backed, _fresh_engine):
    ops = [["add_edge", 50, 51], ["del_edge", 1, 2], ["add_edge", 1, 2],
           ["del_edge", 50, 51], ["del_node", 50], ["del_node", 51]]
    graph = make_graph(kind, backed, [(1, 2), (2, 3)])
    base = csr_snapshot(graph)
    version = graph.version
    summary = apply_graph_ops(graph, ops)
    assert (summary["applied"], summary["skipped"]) == (6, 0)
    assert graph.version == version == summary["version"]
    assert csr_snapshot(graph) is base
    assert _fresh_engine.stats()["fallback_full"] == 0


@pytest.mark.parametrize("ops, error, position", [
    ([["add_edge", 1, 9], ["del_edge", 5, 6]], EdgeNotFoundError, 1),
    ([["del_node", 3], ["del_edge", 3, 1]], EdgeNotFoundError, 1),
    ([["del_node", 3], ["del_node", 3]], NodeNotFoundError, 1),
    ([["add_node", 1], ["add_edge", 1, -4]], GraphError, 1),
    ([["del_edge", 5, 6], ["del_node", 77]], EdgeNotFoundError, 0),
    ([["add_edge", 2**64, 1]], GraphError, 0),
])
def test_errors_name_the_first_bad_op(ops, error, position):
    graph = make_graph("directed", False, [(1, 2), (2, 3), (3, 1)])
    before = adjacency(graph)
    version = graph.version
    with pytest.raises(error, match=f"op #{position}"):
        apply_graph_ops(graph, ops)
    assert adjacency(graph) == before
    assert graph.version == version


def test_unsupported_graph_types_are_refused():
    from repro.graphs.multigraph import DirectedMultigraph

    with pytest.raises(GraphError, match="DirectedMultigraph"):
        apply_graph_ops(DirectedMultigraph(), [["add_node", 1]])


def test_merged_rows_are_copies_not_views():
    graph = make_graph("directed", False, [(1, 2), (1, 3), (2, 3)])
    apply_graph_ops(graph, [["add_edge", 1, 4], ["add_edge", 2, 4], ["del_edge", 1, 2]])
    for node in graph.nodes():
        record = graph._nodes[node]
        for row in (record.out_nbrs, record.in_nbrs):
            assert row.base is None or row.base.size == row.size


def edge_churn(graph, rng, count: int) -> list:
    """``count`` random edge ops among ``graph``'s nodes, applied to it.

    Adds (some already present, some self-loops) and deletes of present
    edges only, so a batch of them keeps the node set.
    """
    nodes = sorted(graph.nodes())
    ops: list = []
    for _ in range(count):
        if rng.random() < 0.4 and graph.num_edges:
            edges = sorted(graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            graph.del_edge(u, v)
            ops.append(["del_edge", u, v])
        else:
            u, v = rng.choice(nodes), rng.choice(nodes)
            graph.add_edge(u, v)
            ops.append(["add_edge", u, v])
    return ops


def forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return call


def assert_same_arrays(got, expected):
    for name in ("node_ids", "out_indptr", "out_indices", "in_indptr", "in_indices"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_node_set_preserving_batches_merge_into_the_backing(
    kind, seed, _fresh_engine, monkeypatch
):
    batched, legacy, source = twins(kind, True, seed)
    # The batch is merged once, into the backing: the graph never grows
    # its hash table, and the refresh runs no structural merge of its own.
    monkeypatch.setattr(batched, "_materialise", forbidden("_materialise"))
    monkeypatch.setattr(snapshot_module, "apply_delta", forbidden("apply_delta"))
    csr_snapshot(batched).undirected_projection()  # a base holding a projection
    rng = random.Random(3000 + seed)
    for _ in range(4):
        ops = edge_churn(source, rng, rng.randrange(1, 30))
        before = _fresh_engine.stats()
        version = batched.version
        summary = apply_graph_ops(batched, ops)
        reference = legacy_apply_graph_ops(legacy, ops)
        assert {key: summary[key] for key in reference} == reference
        assert batched._csr is not None
        assert_same(batched, legacy)
        snapshot = csr_snapshot(batched)
        assert_same_arrays(snapshot, CSRGraph.from_graph(batched))
        after = _fresh_engine.stats()
        assert after["fallback_full"] == before["fallback_full"]
        moved = batched.version != version
        assert after["delta_applied"] == before["delta_applied"] + moved
        assert_same_arrays(snapshot.undirected_projection(), snapshot._symmetrise())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ops", [
    [["add_edge", 1, 2], ["add_edge", 4, 9]],
    [["del_node", 3], ["add_edge", 3, 1], ["del_edge", 1, 2]],
], ids=["adds-a-node", "recreates-a-node"])
def test_node_set_changing_batches_still_materialise(kind, ops, _fresh_engine):
    pairs = [(1, 2), (2, 3), (3, 1), (3, 4)]
    batched, legacy = (make_graph(kind, True, pairs) for _ in range(2))
    check_batch(batched, legacy, ops, _fresh_engine)  # legacy node order included
    assert batched._csr is None
