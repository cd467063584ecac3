"""The versioned CSR snapshot cache: reuse, invalidation, resilience."""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithms as alg
from repro.core.engine import Ringo
from repro.exceptions import InjectedFaultError, RingoError
from repro.faults import inject_faults
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.snapshot import SnapshotCache, csr_snapshot, snapshot_cache
from repro.graphs.undirected import UndirectedGraph


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test sees the process-wide cache empty, counters zeroed."""
    cache = snapshot_cache()
    cache.configure(enabled=True, max_bytes=None)
    cache.clear(reset_stats=True)
    yield cache
    cache.configure(enabled=True, max_bytes=None)
    cache.clear(reset_stats=True)


def ring_graph(cls=DirectedGraph, n: int = 12):
    graph = cls()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
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
    cached = (
        alg.pagerank(graph),
        alg.triangle_counts(graph),
        alg.bfs_levels(graph, int(graph.node_array()[0])),
    )
    fresh_cache.configure(enabled=False)
    uncached = (
        alg.pagerank(graph),
        alg.triangle_counts(graph),
        alg.bfs_levels(graph, int(graph.node_array()[0])),
    )
    assert cached[1] == uncached[1] and cached[2] == uncached[2]
    assert cached[0].keys() == uncached[0].keys()
    assert all(abs(cached[0][k] - uncached[0][k]) < 1e-12 for k in cached[0])


# ----------------------------------------------------------------------
# Lifecycle: weakrefs, budgets, faults
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
    assert stats["collected"] == 1 and stats["bytes"] == 0


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
    assert len(cache) == 0 and cache.stats()["collected"] == 1


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


def test_byte_budget_rejects_but_still_serves():
    graph = ring_graph()
    reference = CSRGraph.from_graph(graph)
    cache = SnapshotCache(max_bytes=8)
    snap = cache.get(graph)
    assert np.array_equal(snap.out_indices, reference.out_indices)
    stats = cache.stats()
    assert stats["rejected"] == 1 and stats["entries"] == 0 and stats["bytes"] == 0
    # Every repeat stays correct, never cached, never crashes.
    assert np.array_equal(cache.get(graph).out_indptr, reference.out_indptr)
    with pytest.raises(RingoError):
        SnapshotCache(max_bytes=0)


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


def test_disabled_cache_is_pass_through(fresh_cache):
    fresh_cache.configure(enabled=False)
    graph = ring_graph()
    first = csr_snapshot(graph)
    second = csr_snapshot(graph)
    assert first is not second
    stats = fresh_cache.stats()
    assert stats["conversions"] == 2 and stats["entries"] == 0


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


def test_engine_snapshot_cache_toggle(fresh_cache):
    fresh_cache.configure(enabled=False)
    with Ringo(workers=1) as ringo:
        table = ringo.TableFromColumns({"a": [1, 2], "b": [2, 3]})
        graph = ringo.ToGraph(table, "a", "b")
        ringo.GetPageRank(graph)
        ringo.GetPageRank(graph)
        stats = ringo.health()["snapshot_cache"]
        assert stats["enabled"] is False and stats["conversions"] == 2


def test_engine_snapshot_cache_budget(fresh_cache):
    fresh_cache.configure(max_bytes=8)
    with Ringo(workers=1) as ringo:
        table = ringo.TableFromColumns({"a": [1, 2], "b": [2, 3]})
        graph = ringo.ToGraph(table, "a", "b")

        def conversions():
            return ringo.health()["snapshot_cache"]["conversions"]

        # A rejected snapshot is rebuilt on every call, but exactly once
        # per call: nothing converts ahead of the algorithm's own lookup.
        results = []
        for call in (ringo.GetPageRank, ringo.GetPageRank, ringo.GetColoring):
            before = conversions()
            results.append(call(graph))
            assert conversions() == before + 1
        assert results[0] == results[1]
        stats = ringo.health()["snapshot_cache"]
        assert stats["rejected"] >= 2 and stats["bytes"] == 0


def test_session_leaves_process_cache_settings_alone(fresh_cache):
    fresh_cache.configure(enabled=False, max_bytes=8)
    Ringo(workers=1).close()
    stats = fresh_cache.stats()
    assert stats["enabled"] is False and stats["max_bytes"] == 8
