"""The versioned CSR snapshot cache: reuse, invalidation, resilience.

Also the lifecycle of the incremental engine's warm states, which live
in the same kind of weak map keyed by the graph.
"""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms as alg
from repro.core.engine import Ringo
from repro.exceptions import InjectedFaultError
from repro.faults import inject_faults
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.snapshot import SnapshotCache, csr_snapshot, snapshot_cache
from repro.graphs.undirected import UndirectedGraph
from repro.incremental.algorithms import incremental_wcc
from repro.incremental.engine import IncrementalEngine, incremental_engine


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test sees the process-wide cache empty, counters zeroed."""
    cache = snapshot_cache()
    cache.clear(reset_stats=True)
    yield cache
    cache.clear(reset_stats=True)


@pytest.fixture
def private_engine(monkeypatch):
    """A fresh engine standing in for the process-wide one, so a test
    that wedges its lock cannot wedge the rest of the suite."""
    engine = IncrementalEngine()
    monkeypatch.setattr("repro.incremental.engine._DEFAULT_ENGINE", engine)
    return engine


def ring_graph(cls=DirectedGraph, n: int = 12, offset: int = 0):
    graph = cls()
    for i in range(n):
        graph.add_edge(offset + i, offset + (i + 1) % n)
    return graph


# ----------------------------------------------------------------------
# Conversion reuse
# ----------------------------------------------------------------------


def test_second_algorithm_call_converts_nothing(fresh_cache):
    graph = ring_graph()
    alg.pagerank(graph)
    alg.triangle_counts(graph)
    alg.bfs_levels(graph, 0)
    converted_once = fresh_cache.stats()["conversions"]
    assert converted_once == 1
    first = (alg.pagerank(graph), alg.triangle_counts(graph), alg.bfs_levels(graph, 0))
    assert fresh_cache.stats()["conversions"] == converted_once
    assert fresh_cache.stats()["hits"] >= 3
    second = (alg.pagerank(graph), alg.triangle_counts(graph), alg.bfs_levels(graph, 0))
    assert first == second


def test_same_object_returned_until_mutation(fresh_cache):
    graph = ring_graph(UndirectedGraph)
    snap = csr_snapshot(graph)
    assert csr_snapshot(graph) is snap
    graph.add_edge(0, 6)
    rebuilt = csr_snapshot(graph)
    assert rebuilt is not snap
    assert rebuilt.num_edges == snap.num_edges + 2  # symmetric edge
    assert fresh_cache.stats()["invalidations"] == 1


@pytest.mark.parametrize("cls", [DirectedGraph, UndirectedGraph])
def test_every_mutator_bumps_version_and_invalidates(cls, fresh_cache):
    graph = ring_graph(cls)
    mutations = [
        lambda g: g.add_node(100),
        lambda g: g.add_edge(100, 3),
        lambda g: g.del_edge(0, 1),
        lambda g: g.del_node(5),
    ]
    for mutate in mutations:
        before_version = graph.version
        snap = csr_snapshot(graph)
        mutate(graph)
        assert graph.version > before_version
        assert csr_snapshot(graph) is not snap
    # No-op mutations must NOT invalidate: the snapshot stays cached.
    snap = csr_snapshot(graph)
    version = graph.version
    assert not graph.add_node(100)  # already present
    assert graph.version == version
    assert csr_snapshot(graph) is snap


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add_edge", "del_edge", "add_node", "del_node"]),
                  st.integers(0, 7), st.integers(0, 7)),
        max_size=30,
    ),
    undirected=st.booleans(),
)
def test_cached_snapshot_always_matches_fresh_build(ops, undirected):
    """Property: after any op sequence, cache == freshly built CSR."""
    graph = (UndirectedGraph if undirected else DirectedGraph)()
    cache = SnapshotCache()
    for op, u, v in ops:
        if op == "add_edge":
            graph.add_edge(u, v)
        elif op == "del_edge" and graph.has_edge(u, v):
            graph.del_edge(u, v)
        elif op == "add_node":
            graph.add_node(u)
        elif op == "del_node" and graph.has_node(u):
            graph.del_node(u)
        cached = cache.get(graph)
        fresh = CSRGraph.from_graph(graph)
        assert np.array_equal(cached.node_ids, fresh.node_ids)
        assert np.array_equal(cached.out_indptr, fresh.out_indptr)
        assert np.array_equal(cached.out_indices, fresh.out_indices)
        assert np.array_equal(cached.in_indptr, fresh.in_indptr)
        assert np.array_equal(cached.in_indices, fresh.in_indices)


def test_cached_and_uncached_results_agree(fresh_cache):
    rng = np.random.default_rng(7)
    graph = DirectedGraph()
    for u, v in rng.integers(0, 40, size=(160, 2)).tolist():
        graph.add_edge(u, v)
    source = int(graph.node_array()[0])

    def run(target):
        return (
            alg.pagerank(target),
            alg.triangle_counts(target),
            alg.bfs_levels(target, source),
        )

    cached = run(graph)
    uncached = run(CSRGraph.from_graph(graph))  # bypasses the cache
    assert cached[1] == uncached[1] and cached[2] == uncached[2]
    assert cached[0].keys() == uncached[0].keys()
    assert all(abs(cached[0][k] - uncached[0][k]) < 1e-12 for k in cached[0])


# ----------------------------------------------------------------------
# Lifecycle: weak maps, faults
# ----------------------------------------------------------------------


def test_collected_graph_drops_its_entry():
    cache = SnapshotCache()
    graph = ring_graph()
    cache.get(graph)
    assert len(cache) == 1
    del graph
    gc.collect()
    assert len(cache) == 0
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["bytes"] == 0


def test_a_graph_collected_while_the_cache_lock_is_held_does_not_deadlock():
    # Garbage collection runs weakref callbacks on whatever allocation
    # triggers it, including one made inside the cache's own locked
    # sections (a traced hit bumps a metrics counter there).
    cache = SnapshotCache()
    graph = ring_graph()
    cache.get(graph)
    done = threading.Event()

    def drop_under_lock(holder):
        with cache._lock:
            holder.clear()  # the last reference: the callback runs here
        done.set()

    worker = threading.Thread(target=drop_under_lock, args=([graph],), daemon=True)
    del graph
    worker.start()
    assert done.wait(5.0), "the collected graph's cleanup deadlocked"
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["bytes"] == 0


def test_a_graph_collected_while_the_engine_lock_is_held_does_not_deadlock(
    private_engine, fresh_cache
):
    # The warm-state twin of the cache test above: dropping a graph's
    # last reference while the incremental engine's lock is held must
    # not run anything that waits for that lock.
    graph = ring_graph()
    assert incremental_wcc(graph) is not None
    assert private_engine.stats()["graph_states"] == 1
    done = threading.Event()

    def drop_under_lock(holder):
        with incremental_engine()._lock:
            holder.clear()  # the last reference
        done.set()

    worker = threading.Thread(target=drop_under_lock, args=([graph],), daemon=True)
    del graph
    worker.start()
    assert done.wait(5.0), "the collected graph's warm-state cleanup deadlocked"
    assert private_engine.stats()["graph_states"] == 0


def test_a_new_graph_at_a_collected_graphs_address_inherits_nothing(
    private_engine, fresh_cache
):
    # Each old graph leaves a snapshot and a warm WCC state at the same
    # version its successor will have, so anything keyed by address
    # would answer for the successor with the old graph's labels.
    reused = []
    for _ in range(20):
        old = [ring_graph() for _ in range(64)]
        for graph in old:
            incremental_wcc(graph)
        version = old[0].version
        dead = {id(graph) for graph in old}
        del old, graph
        gc.collect()
        new = [ring_graph(offset=100) for _ in range(64)]
        reused = [graph for graph in new if id(graph) in dead]
        if reused:
            break
    assert reused, "no collected graph's address was reused"
    assert len(fresh_cache) == 0
    assert private_engine.stats()["graph_states"] == 0
    for graph in reused:
        assert graph.version == version
        hits = fresh_cache.stats()["hits"]
        snap = csr_snapshot(graph)
        assert fresh_cache.stats()["hits"] == hits
        assert snap.node_ids.tolist() == list(range(100, 112))
        assert private_engine.state_for(graph).wcc is None
        expected = alg.weakly_connected_components(CSRGraph.from_graph(graph))
        assert dict(incremental_wcc(graph)) == dict(expected)


def test_dropped_projection_is_freed_without_gc(fresh_cache):
    """No reference cycle keeps a projection (and its derived arrays)
    alive once its snapshot is gone: plain reference counting frees it."""
    graph = ring_graph()
    for i in range(0, 12, 3):
        graph.add_edge(i, i + 2)
    gc.disable()
    try:
        sym = CSRGraph.from_graph(graph).undirected_projection()
        assert sym.triangle_counts().sum() > 0
        dropped = weakref.ref(sym)
        del sym
        assert dropped() is None

        alg.clustering_coefficients(graph)  # fills the cached snapshot's projection
        sym = csr_snapshot(graph).undirected_projection()
        assert sym._triangle_counts is not None
        cached = weakref.ref(sym)
        del sym
        assert cached() is not None
        fresh_cache.invalidate(graph)
        assert cached() is None
    finally:
        gc.enable()


def test_build_fault_leaves_no_partial_entry(fresh_cache):
    graph = ring_graph()
    with inject_faults({"snapshot.build": 1.0}) as plan:
        with pytest.raises(InjectedFaultError):
            alg.pagerank(graph)
    assert plan.triggered["snapshot.build"] == 1
    assert len(fresh_cache) == 0
    # Disarmed: the next call recovers and caches normally.
    ranks = alg.pagerank(graph)
    assert len(ranks) == graph.num_nodes
    assert len(fresh_cache) == 1


def test_manual_invalidate_and_clear():
    cache = SnapshotCache()
    graph = ring_graph()
    cache.get(graph)
    assert cache.invalidate(graph) is True
    assert cache.invalidate(graph) is False
    cache.get(graph)
    cache.clear()
    assert len(cache) == 0 and cache.stats()["misses"] == 2


# ----------------------------------------------------------------------
# Engine surface
# ----------------------------------------------------------------------


def test_engine_reports_cache_stats_and_timings(fresh_cache):
    with Ringo(workers=1) as ringo:
        table = ringo.TableFromColumns({"a": [1, 2, 3, 1], "b": [2, 3, 1, 3]})
        graph = ringo.ToGraph(table, "a", "b")
        ringo.GetPageRank(graph)
        before = ringo.health()["snapshot_cache"]
        ringo.GetPageRank(graph)
        ringo.GetTriangles(graph)
        health = ringo.health()
        assert health["snapshot_cache"]["conversions"] == before["conversions"]
        assert health["snapshot_cache"]["hits"] > before["hits"]
        timings = health["timings"]
        assert timings["GetPageRank"]["calls"] == 2
        assert timings["GetTriangles"]["calls"] == 1
        assert timings["ToGraph"]["seconds"] >= 0.0
        assert ringo.call_timings() == timings


def test_engine_snapshot_cache_budget(fresh_cache):
    with Ringo(workers=1) as ringo:
        table = ringo.TableFromColumns({"a": [1, 2], "b": [2, 3]})
        graph = ringo.ToGraph(table, "a", "b")

        def conversions():
            return ringo.health()["snapshot_cache"]["conversions"]

        # With the snapshot dropped before each call, the call converts
        # exactly once: nothing converts ahead of the algorithm's own
        # lookup.
        results = []
        for call in (ringo.GetPageRank, ringo.GetPageRank, ringo.GetColoring):
            fresh_cache.invalidate(graph)
            before = conversions()
            results.append(call(graph))
            assert conversions() == before + 1
        assert results[0] == results[1]
