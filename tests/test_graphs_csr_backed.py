"""CSR-backed graphs: what bulk builds hand out and what the first mutation does.

The sort-first converter ends holding a CSR, and the graph adopts it
instead of one record per node. These tests pin the contract around that
choice: the snapshot wraps the arrays without copying, no caller can
write through them, restores keep isolated nodes without mutating, and
the first structural mutation builds the node hash table exactly once,
traced, without moving the version — so the snapshot cache keeps
refreshing by delta afterwards.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.csr import CSRGraph
from repro.graphs.serialize import load_graph, save_graph
from repro.graphs.snapshot import csr_snapshot
from repro.incremental.engine import incremental_engine
from repro.obs import spans as spans_module
from repro.recovery.digest import graph_digest
from repro.recovery.ops import decode_graph_payload, encode_graph_payload


def _stored(csr):
    """The five arrays a CSR holds (its properties hand out read-only views)."""
    return [
        csr._node_ids, csr._out_indptr, csr._out_indices, csr._in_indptr, csr._in_indices
    ]


def _bulk(directed=True):
    return graph_from_edge_arrays(
        [1, 2, 3, 3], [2, 3, 1, 3], directed=directed, nodes=[9]
    )


@pytest.fixture
def fresh_engine():
    engine = incremental_engine()
    engine.reset()
    yield engine
    engine.reset()


@pytest.fixture
def tracer():
    previous = spans_module._TRACER
    spans_module._TRACER = None
    active = obs.enable()
    yield active
    obs.disable()
    spans_module._TRACER = previous


def _assert_snapshot_matches(graph):
    got = csr_snapshot(graph)
    expected = CSRGraph.from_graph(graph)
    for name in ("node_ids", "out_indptr", "out_indices", "in_indptr", "in_indices"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


@pytest.mark.parametrize("directed", [True, False])
class TestBackedReads:
    def test_bulk_build_is_backed_with_isolated_nodes(self, directed):
        graph = _bulk(directed)
        assert graph._csr is not None
        assert list(graph.nodes()) == [1, 2, 3, 9]
        assert 9 in graph and 4 not in graph
        assert graph.max_node_id() == 9
        assert graph.num_edges == 4

    def test_snapshot_wraps_the_arrays(self, directed):
        graph = _bulk(directed)
        first = CSRGraph.from_graph(graph)
        second = CSRGraph.from_graph(graph)
        assert first is not second  # derived arrays start empty each time
        for held, a, b in zip(_stored(graph._csr), _stored(first), _stored(second)):
            assert a is held and b is held

    def test_no_caller_can_write_through(self, directed):
        graph = _bulk(directed)
        assert isinstance(graph._csr, CSRGraph)
        assert all(not array.flags.writeable for array in _stored(graph._csr))
        node_array = graph.node_array()
        node_array[0] = 42  # a copy: the graph does not see it
        assert 42 not in graph
        reads = [graph.out_neighbors(3), graph.in_neighbors(3)] if directed else [
            graph.neighbors(3)
        ]
        for array in reads:
            with pytest.raises(ValueError):
                array[0] = 42
        csr = CSRGraph.from_graph(graph)
        with pytest.raises(ValueError):
            csr.out_indices[0] = 42

    def test_copy_and_reverse_share_the_backing(self, directed):
        graph = _bulk(directed)
        twin = graph.copy()
        assert twin._csr is graph._csr
        twin.add_edge(9, 1)
        assert graph._csr is not None and not graph.has_edge(9, 1)
        if directed:
            flipped = graph.reverse()
            assert sorted(flipped.edges()) == sorted((v, u) for u, v in graph.edges())

    def test_memory_is_the_arrays_alone(self, directed):
        graph = _bulk(directed)
        backed = graph.memory_bytes()
        assert CSRGraph.from_graph(graph).memory_bytes() == backed
        graph.add_node(10)
        graph.del_node(10)
        assert graph._csr is None
        assert backed < graph.memory_bytes()


@pytest.mark.parametrize("directed", [True, False])
class TestMaterialisation:
    def test_no_op_mutators_leave_it_backed(self, directed):
        graph = _bulk(directed)
        version = graph.version
        assert graph.add_node(9) is False
        assert graph.add_edge(3, 1) is False
        with pytest.raises(EdgeNotFoundError):
            graph.del_edge(2, 9)
        with pytest.raises(NodeNotFoundError):
            graph.del_node(4)
        assert graph._csr is not None
        assert graph.version == version

    def test_first_mutation_refreshes_by_delta(self, directed, fresh_engine):
        graph = _bulk(directed)
        base = csr_snapshot(graph)
        assert np.shares_memory(base.out_indices, graph._csr.out_indices)
        version = graph.version
        before = fresh_engine.stats()
        graph.add_edge(9, 2)
        assert graph._csr is None
        assert graph.version == version + 1  # materialising did not bump
        _assert_snapshot_matches(graph)
        after = fresh_engine.stats()
        assert after["delta_applied"] == before["delta_applied"] + 1
        assert after["fallback_full"] == before["fallback_full"]

    def test_materialises_once_traced(self, directed, tracer):
        graph = _bulk(directed)
        graph.del_edge(1, 2)
        graph.add_node(20)
        names = [r["name"] for r in tracer.ring_records()]
        assert names.count("graph.materialise") == 1
        (record,) = [
            r for r in tracer.ring_records() if r["name"] == "graph.materialise"
        ]
        assert record["tags"] == {"nodes": 4, "op": "del_edge"}


def test_readers_race_the_first_mutation():
    """Reads running while another thread materialises never fail or tear.

    One writer (the graph's contract: mutation is single-writer) adds an
    edge between two new nodes, so every read of the original nodes has
    one right answer before, during and after the hash table is built.
    """
    rng = np.random.default_rng(7)
    graph = graph_from_edge_arrays(
        rng.integers(0, 200, 2000), rng.integers(0, 200, 2000)
    )
    nodes = graph.node_array()[::7].tolist()
    expected = {node: graph.out_neighbors(node).tolist() for node in nodes}
    edge_count = graph.num_edges
    errors: list = []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                for node in nodes:
                    assert graph.out_neighbors(node).tolist() == expected[node]
                    assert graph.has_node(node)
                    for dst in expected[node][:2]:
                        assert graph.has_edge(node, dst)
                sources, _ = graph.edge_arrays()
                assert len(sources) - edge_count in (0, 1)
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        graph.add_edge(500, 501)
        time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert graph._csr is None and graph.has_edge(500, 501)


class TestRestoresStayBacked:
    @pytest.mark.parametrize("directed", [True, False])
    def test_npz_round_trip(self, directed, tmp_path):
        graph = _bulk(directed)
        graph.add_node(0)  # materialised, isolated node out of id order
        save_graph(graph, tmp_path / "g.npz")
        loaded = load_graph(tmp_path / "g.npz")
        assert loaded._csr is not None
        assert graph_digest(loaded) == graph_digest(graph)
        assert sorted(loaded.nodes()) == [0, 1, 2, 3, 9]

    @pytest.mark.parametrize("directed", [True, False])
    def test_payload_round_trip(self, directed):
        graph = _bulk(directed)
        restored = decode_graph_payload(encode_graph_payload(graph))
        assert restored._csr is not None
        assert graph_digest(restored) == graph_digest(graph)
        assert encode_graph_payload(restored) == encode_graph_payload(graph)
