"""Units for the delta layer: mutation log, window fold, merge, sanitizer.

The focused counterpart to the trace-differential harness — each
invariant the delta path depends on is pinned down in isolation: log
contiguity and self-poisoning, add/delete cancellation (and the
vectorised fold against a per-op set fold on random streams), the row merge
and the undirected projection it carries forward (including the
delete-path regressions: overlay-only edges, self-loops, node deletes
that cascade), the merged-view sanitizer's failure branches, and the
op-stream validators.
"""

import random

import numpy as np
import pytest

from repro.analysis.sanitize import sanitize_delta_view
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.exceptions import GraphError, SanitizerError
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.snapshot import csr_snapshot
from repro.graphs.undirected import UndirectedGraph
from repro.incremental.delta import (
    KINDS,
    DeltaColumns,
    DeltaError,
    MutationLog,
    apply_delta,
    fold_window,
)
from repro.incremental.engine import incremental_engine
from repro.incremental.ingest import apply_graph_ops, validate_ops
from tests.helpers import apply_random_mutations, build_directed, build_undirected


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine = incremental_engine()
    engine.reset()
    yield engine
    engine.reset()


def _rows(window):
    """A log window's rows as ``(kind, a, b)`` tuples."""
    return [
        (KINDS[kind], a, b)
        for kind, a, b in zip(*(column.tolist() for column in window))
    ]


def _fold(ops, directed):
    """Fold ``ops``, recorded one version each, as one window."""
    log = MutationLog(0)
    for version, (kind, *operands) in enumerate(ops, 1):
        log.record(version, kind, *operands)
    return fold_window(log.slice(0, len(ops)), directed)


def _pairs(first, second):
    return set(zip(first.tolist(), second.tolist()))


def _columns(nodes_added=(), nodes_deleted=(), added=(), deleted=()):
    """Delta columns built by hand, sorted as a fold leaves them."""
    def pairs(edges):
        return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T

    return DeltaColumns(
        np.array(sorted(nodes_added), dtype=np.int64),
        np.array(sorted(nodes_deleted), dtype=np.int64),
        *pairs(added),
        *pairs(deleted),
    )


class TestMutationLog:
    def test_contiguous_recording_and_slice(self):
        log = MutationLog(10)
        log.record(11, "add_edge", 1, 2)
        log.record(11, "add_edge", 2, 3)  # several records per bump is fine
        log.record(12, "del_edge", 1, 2)
        assert log.usable_at(12)
        assert _rows(log.slice(10, 12)) == [
            ("add_edge", 1, 2), ("add_edge", 2, 3), ("del_edge", 1, 2),
        ]
        assert _rows(log.slice(11, 12)) == [("del_edge", 1, 2)]

    def test_runs_share_one_version_and_broadcast(self):
        log = MutationLog(4)
        log.record_many(5, [
            ("del_edge", 7, np.array([1, 2])),
            ("del_edge", np.array([3]), 7),
            ("del_node", 7, -1),
        ])
        log.record(6, "add_node", 7)
        assert log.usable_at(6)
        assert _rows(log.slice(4, 5)) == [
            ("del_edge", 7, 1), ("del_edge", 7, 2), ("del_edge", 3, 7),
            ("del_node", 7, -1),
        ]
        assert _rows(log.slice(5, 6)) == [("add_node", 7, -1)]
        log.record_many(8, [("add_node", np.array([9]), -1)])  # skipped v7
        assert "gap" in log.poison_reason

    def test_version_gap_poisons(self):
        log = MutationLog(10)
        log.record(11, "add_edge", 1, 2)
        log.record(13, "add_edge", 2, 3)  # skipped v12: a mutation escaped
        assert log.poison_reason is not None
        assert "gap" in log.poison_reason
        assert log.slice(10, 13) is None
        assert not log.usable_at(13)

    def test_overflow_poisons(self, monkeypatch):
        monkeypatch.setattr("repro.incremental.delta.MAX_LOG_OPS", 5)
        log = MutationLog(0)
        for version in range(1, 8):
            log.record(version, "add_node", version, 0)
        assert log.poison_reason is not None
        assert "overflow" in log.poison_reason
        assert log.slice(0, 3) is None

    def test_slice_outside_window_is_none(self):
        log = MutationLog(10)
        log.record(11, "add_edge", 1, 2)
        assert log.slice(9, 11) is None  # anchored after v9
        assert log.slice(10, 12) is None  # not yet caught up to v12
        assert log.slice(10, 11) is not None

    def test_drop_before_narrows_the_window(self):
        log = MutationLog(0)
        for version in range(1, 6):
            log.record(version, "add_node", version, 0)
        log.drop_before(3)
        assert log.slice(0, 5) is None  # floor moved past v0
        assert _rows(log.slice(3, 5)) == [("add_node", 4, 0), ("add_node", 5, 0)]
        assert len(log) == 2

    @pytest.mark.parametrize("build", [build_directed, build_undirected])
    def test_ids_past_int64_poison_instead_of_raising(self, build):
        graph = build([(1, 2)])
        graph._delta_log = MutationLog(graph.version)
        graph.add_node(2**70)
        assert "unrecordable" in graph._delta_log.poison_reason
        graph._delta_log = MutationLog(graph.version)
        graph.del_node(2**70)
        assert "unrecordable" in graph._delta_log.poison_reason
        assert graph._delta_log.slice(graph.version - 1, graph.version) is None

    def test_explicit_poison_clears_ops(self):
        log = MutationLog(0)
        log.record(1, "add_edge", 1, 2)
        log.poison("bulk adjacency install")
        assert len(log) == 0
        assert log.slice(0, 1) is None


class TestConsolidate:
    def test_add_then_delete_cancels(self):
        delta = _fold(
            [("add_edge", 1, 2), ("del_edge", 1, 2)], directed=True
        )
        assert delta.empty()

    def test_delete_then_readd_cancels(self):
        delta = _fold(
            [("del_edge", 1, 2), ("add_edge", 1, 2)], directed=True
        )
        assert delta.empty()

    def test_node_add_then_delete_cancels(self):
        delta = _fold(
            [("add_node", 7, 0), ("del_node", 7, 0)], directed=True
        )
        assert delta.empty()

    def test_undirected_keys_normalise(self):
        delta = _fold(
            [("add_edge", 5, 2), ("del_edge", 2, 5)], directed=False
        )
        assert delta.empty()
        delta = _fold([("add_edge", 5, 2)], directed=False)
        assert _pairs(delta.add_src, delta.add_dst) == {(2, 5)}

    def test_unknown_kind_raises(self):
        # Rejected when recorded, before it reaches any window.
        with pytest.raises(DeltaError, match="unknown mutation kind"):
            _fold([("rename_edge", 1, 2)], directed=True)
        with pytest.raises(DeltaError, match="unknown mutation kind"):
            MutationLog(0).record_many(1, [("rename_edge", np.array([1]), 2)])

    def test_size_counts_all_sets(self):
        delta = _fold(
            [("add_node", 9, 0), ("del_edge", 1, 2), ("add_edge", 3, 4)],
            directed=True,
        )
        changes = [delta.nodes_added, delta.nodes_deleted, delta.add_src, delta.del_src]
        assert sum(map(len, changes)) == 3


def _set_fold(ops, directed):
    """Reference fold: one op at a time into node and edge sets.

    A later op cancels an earlier opposite one on the same key instead
    of entering its own set. Returns ``(nodes_added, nodes_deleted,
    edges_added, edges_deleted)``.
    """
    nodes_added, nodes_deleted = set(), set()
    edges_added, edges_deleted = set(), set()
    for kind, a, b in ops:
        if kind.endswith("_node"):
            key, adds, deletes = a, nodes_added, nodes_deleted
        else:
            key = (a, b) if directed or a <= b else (b, a)
            adds, deletes = edges_added, edges_deleted
        mine, opposite = (adds, deletes) if kind.startswith("add") else (deletes, adds)
        if key in opposite:
            opposite.discard(key)
        else:
            mine.add(key)
    return nodes_added, nodes_deleted, edges_added, edges_deleted


def _structure(graph):
    """``(nodes, edges)`` as sets, undirected edges as ``(min, max)``."""
    edges = graph.edges()
    if not graph.is_directed:
        edges = ((min(u, v), max(u, v)) for u, v in edges)
    return set(graph.nodes()), set(edges)


class TestFoldOracle:
    """The vectorised fold equals the per-op set fold on random valid streams."""

    UNIVERSE = 12

    def _stream(self, graph, rng):
        """Mutate ``graph`` with a logged stream; the state at each step."""
        graph._delta_log = MutationLog(graph.version)
        states = {graph.version: _structure(graph)}

        def step(mutate, *args):
            mutate(*args)
            states[graph.version] = _structure(graph)

        # Fixed corners first: a reversed undirected pair, a self-loop,
        # and a node deleted with its edges, then created again.
        step(graph.add_edge, 5, 2)
        step(graph.del_edge, *((5, 2) if graph.is_directed else (2, 5)))
        step(graph.add_edge, 2, 5)
        step(graph.add_edge, 3, 3)
        step(graph.add_edge, 3, 4)
        step(graph.del_node, 3)
        step(graph.add_node, 3)
        for _ in range(30):
            if rng.random() < 0.5:
                step(apply_random_mutations, graph, rng, 1, self.UNIVERSE)
                continue
            # A valid batch: drawn against a copy in the graph's state.
            ops = apply_random_mutations(
                graph.copy(), rng, rng.randint(1, 12), self.UNIVERSE
            )
            deleted = [op[1] for op in ops if op[0] == "del_node"]
            if deleted:
                ops.append(["add_node", deleted[0]])  # re-created in the batch
            step(apply_graph_ops, graph, ops)
        assert graph._delta_log.poison_reason is None
        return graph._delta_log, states

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("backed", [False, True], ids=["hashed", "backed"])
    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_fold_equals_set_fold(self, directed, backed, seed):
        rng = random.Random(seed)
        graph = _graph_for_windows(directed, backed, rng)
        log, states = self._stream(graph, rng)
        versions = sorted(states)
        windows = [(versions[0], versions[-1])] + [
            tuple(sorted(rng.sample(versions, 2))) for _ in range(40)
        ]
        for v0, v1 in windows:
            window = log.slice(v0, v1)
            delta = fold_window(window, directed)
            got = (
                set(delta.nodes_added.tolist()), set(delta.nodes_deleted.tolist()),
                _pairs(delta.add_src, delta.add_dst), _pairs(delta.del_src, delta.del_dst),
            )
            assert got == _set_fold(_rows(window), directed), (v0, v1)
            (nodes0, edges0), (nodes1, edges1) = states[v0], states[v1]
            assert got == (nodes1 - nodes0, nodes0 - nodes1, edges1 - edges0, edges0 - edges1)
            for column in (delta.nodes_added, delta.nodes_deleted):
                assert np.all(np.diff(column) > 0)
            for first, second in ((delta.add_src, delta.add_dst), (delta.del_src, delta.del_dst)):
                assert np.all((np.diff(first) > 0) | ((np.diff(first) == 0) & (np.diff(second) > 0)))


class TestApplyDelta:
    def test_matches_from_graph_directed(self):
        graph = build_directed([(1, 2), (2, 3), (3, 1)])
        base = CSRGraph.from_graph(graph)
        graph.add_edge(3, 4)
        graph.del_edge(1, 2)
        delta = _fold(
            [("add_edge", 3, 4), ("del_edge", 1, 2)], directed=True
        )._replace(nodes_added=np.array([4]))
        merged = apply_delta(base, delta, directed=True)
        expected = CSRGraph.from_graph(graph)
        assert np.array_equal(merged.node_ids, expected.node_ids)
        assert np.array_equal(merged.out_indptr, expected.out_indptr)
        assert np.array_equal(merged.out_indices, expected.out_indices)
        assert np.array_equal(merged.in_indptr, expected.in_indptr)
        assert np.array_equal(merged.in_indices, expected.in_indices)

    def test_undirected_merge_shares_orientations(self):
        graph = build_undirected([(1, 2), (2, 3)])
        base = CSRGraph.from_graph(graph)
        delta = _columns(added=[(1, 3)])
        merged = apply_delta(base, delta, directed=False)
        # from_graph's undirected representation detail is preserved:
        # both orientations carry the same symmetric adjacency.
        assert np.array_equal(merged.out_indptr, merged.in_indptr)
        assert np.array_equal(merged.out_indices, merged.in_indices)
        graph.add_edge(1, 3)
        expected = CSRGraph.from_graph(graph)
        assert np.array_equal(merged.out_indices, expected.out_indices)

    def test_dangling_edge_delete_raises(self):
        base = CSRGraph.from_edges([1, 2], [2, 3])
        delta = _columns(deleted=[(1, 3)])
        with pytest.raises(DeltaError, match="dangling"):
            apply_delta(base, delta, directed=True)

    def test_duplicate_node_add_raises(self):
        base = CSRGraph.from_edges([1], [2])
        delta = _columns(nodes_added=[2])
        with pytest.raises(DeltaError, match="already present"):
            apply_delta(base, delta, directed=True)

    def test_deleted_node_with_retained_edges_raises(self):
        base = CSRGraph.from_edges([1, 2], [2, 3])
        delta = _columns(nodes_deleted=[2])  # node delete without its edge deletes
        with pytest.raises(DeltaError):
            apply_delta(base, delta, directed=True)


def _assert_same_arrays(got, expected):
    for name in ("node_ids", "out_indptr", "out_indices", "in_indptr", "in_indices"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name


def _graph_for_windows(directed: bool, backed: bool, rng: random.Random):
    """A graph with a hub row, self-loops and room for an emptied row."""
    pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(70)]
    pairs += [(0, node) for node in range(1, 30)]  # node 0 is a hub
    pairs += [(5, 5), (7, 7), (31, 32)]
    if not backed:
        return (build_directed if directed else build_undirected)(pairs)
    src, dst = np.array(pairs, dtype=np.int64).T
    return graph_from_edge_arrays(src, dst, directed=directed)


class TestRowMergeEqualsRebuild:
    """Every delta refresh equals a full rebuild, and so does its projection."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("backed", [False, True], ids=["hashed", "backed"])
    @pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
    def test_refresh_and_carried_projection(self, directed, backed, seed, _fresh_engine):
        _fresh_engine.configure(min_compact_ops=100_000)  # every window merges
        rng = random.Random(seed)
        graph = _graph_for_windows(directed, backed, rng)
        csr_snapshot(graph).undirected_projection()
        windows = 8
        for window in range(windows):
            apply_random_mutations(graph, rng, 10, universe=34)
            if window == 3 and graph.has_node(31):
                # Empty a row but keep its node.
                for u, v in list(graph.edges()):
                    if 31 in (u, v):
                        graph.del_edge(u, v)
            if window == 5:
                graph.add_edge(0, 33)  # hub row and a new node
            got = csr_snapshot(graph)
            carried = got._undirected
            assert carried is not None, "the base's projection was not carried"
            expected = CSRGraph.from_graph(graph)
            _assert_same_arrays(got, expected)
            _assert_same_arrays(carried, expected.undirected_projection())
            assert np.shares_memory(carried.out_indices, carried.in_indices)
            assert got.undirected_projection() is carried
        stats = _fresh_engine.stats()
        assert stats["delta_applied"] == windows
        assert stats["fallback_full"] == 0

    def test_base_without_projection_builds_none(self):
        graph = build_undirected([(1, 2), (2, 3)])
        base = CSRGraph.from_graph(graph)
        delta = _fold([("add_edge", 1, 3)], directed=False)
        assert apply_delta(base, delta, directed=False)._undirected is None


def _assert_snapshot_matches(graph):
    got = csr_snapshot(graph)
    _assert_same_arrays(got, CSRGraph.from_graph(graph))
    return got


class TestDeletePathRegressions:
    """Invalidation corners on the live cache path (both graph kinds)."""

    @pytest.mark.parametrize("build", [build_directed, build_undirected])
    def test_overlay_only_edge_delete_restamps(self, build, _fresh_engine):
        graph = build([(1, 2), (2, 3)])
        base = csr_snapshot(graph)
        graph.add_edge(5, 6)
        graph.del_edge(5, 6)
        graph.add_node(5)
        graph.del_node(5)
        graph.add_node(6)
        graph.del_node(6)
        # The run cancelled to a structural no-op: the cache restamps
        # the existing arrays instead of rebuilding or merging.
        assert _assert_snapshot_matches(graph) is base
        assert _fresh_engine.stats()["delta_applied"] == 1

    @pytest.mark.parametrize("build", [build_directed, build_undirected])
    def test_self_loop_add_and_delete(self, build, _fresh_engine):
        graph = build([(1, 2), (2, 3)])
        csr_snapshot(graph)
        graph.add_edge(2, 2)
        got = _assert_snapshot_matches(graph)
        assert got.num_self_loops() == 1
        graph.del_edge(2, 2)
        _assert_snapshot_matches(graph)
        assert _fresh_engine.stats()["delta_applied"] == 2
        assert _fresh_engine.stats()["fallback_full"] == 0

    @pytest.mark.parametrize("build", [build_directed, build_undirected])
    def test_del_node_with_self_loop(self, build, _fresh_engine):
        graph = build([(1, 2), (2, 3), (3, 1)])
        graph.add_edge(2, 2)
        csr_snapshot(graph)
        graph.del_node(2)  # cascades the loop and both incident edges
        _assert_snapshot_matches(graph)
        assert _fresh_engine.stats()["delta_applied"] == 1
        assert _fresh_engine.stats()["fallback_full"] == 0

    def test_multi_edge_churn_on_one_pair(self, _fresh_engine):
        graph = build_directed([(1, 2), (2, 1), (2, 3)])
        csr_snapshot(graph)
        for _ in range(3):  # repeated del/re-add of the same pair
            graph.del_edge(1, 2)
            graph.add_edge(1, 2)
        graph.del_edge(2, 1)
        _assert_snapshot_matches(graph)
        assert _fresh_engine.stats()["fallback_full"] == 0


class TestWindowMemo:
    """One round's snapshot merge, WCC and triangles share one window."""

    def _count_consolidations(self, monkeypatch):
        import repro.incremental.engine as engine_module

        calls = []
        real = engine_module.fold_window

        def counting(window, directed):
            calls.append(len(window.kinds))
            return real(window, directed)

        monkeypatch.setattr(engine_module, "fold_window", counting)
        return calls

    @pytest.mark.parametrize("build", [build_directed, build_undirected])
    def test_one_round_consolidates_once(self, build, monkeypatch, _fresh_engine):
        from repro.algorithms.components import weakly_connected_components
        from repro.algorithms.pagerank import pagerank
        from repro.algorithms.triangles import triangle_counts

        def ask():
            pagerank(graph)
            weakly_connected_components(graph)
            triangle_counts(graph)

        calls = self._count_consolidations(monkeypatch)
        graph = build([(1, 2), (2, 3), (3, 1), (3, 4)])
        ask()
        for ops in (
            [("add_edge", 4, 1), ("del_edge", 2, 3), ("add_node", 9)],
            [("add_edge", 2, 3), ("del_edge", 3, 4)],
        ):
            calls.clear()
            for kind, *args in ops:
                getattr(graph, kind)(*args)
            ask()
            assert calls == [len(ops)]
        stats = _fresh_engine.stats()
        assert stats["delta_applied"] == 2
        assert stats["algorithms"]["wcc"]["warm"] == 2
        assert stats["algorithms"]["triangles"]["warm"] == 2

    def test_reanchored_log_and_reset_drop_the_memo(self, monkeypatch, _fresh_engine):
        calls = self._count_consolidations(monkeypatch)
        graph = build_directed([(1, 2)])
        _fresh_engine.ensure_log(graph, graph.version)
        v0 = graph.version
        graph.add_edge(2, 3)
        first = _fresh_engine.delta_between(graph, v0, graph.version)
        assert _fresh_engine.delta_between(graph, v0, graph.version) is first
        assert len(calls) == 1
        _fresh_engine.reset()
        assert _fresh_engine.delta_between(graph, v0, graph.version) is not first
        assert len(calls) == 2
        graph._delta_log.poison("bulk install")
        _fresh_engine.ensure_log(graph, graph.version)
        assert _fresh_engine.delta_between(graph, v0, graph.version) is None


class TestSanitizeDeltaView:
    def _merged(self):
        graph = build_directed([(1, 2), (2, 3)])
        base = CSRGraph.from_graph(graph)
        delta = _columns(added=[(3, 1)])
        merged = apply_delta(base, delta, directed=True)
        merged._delta_base_version = graph.version
        merged._delta_target_version = graph.version + 1
        return merged, base, delta

    def test_valid_merge_passes(self):
        merged, base, delta = self._merged()
        summary = sanitize_delta_view(
            merged, base, delta, expected_version=merged._delta_target_version
        )
        assert summary["delta_checked"]

    def test_watermark_mismatch_fails(self):
        merged, base, delta = self._merged()
        with pytest.raises(SanitizerError, match="delta.watermark"):
            sanitize_delta_view(
                merged, base, delta,
                expected_version=merged._delta_target_version + 1,
            )

    def test_node_count_mismatch_fails(self):
        merged, base, delta = self._merged()
        # Claims a node the merge never added.
        delta = delta._replace(nodes_added=np.array([99]))
        with pytest.raises(SanitizerError, match="delta.node-count"):
            sanitize_delta_view(merged, base, delta)

    def test_dangling_delete_fails(self):
        merged, base, delta = self._merged()
        # (1, 2) is still present in the merged view.
        delta = _columns(added=[(3, 1)], deleted=[(1, 2)])
        with pytest.raises(SanitizerError, match="delta.dangling-delete"):
            sanitize_delta_view(merged, base, delta)

    def test_missing_add_fails(self):
        merged, base, delta = self._merged()
        # (2, 1): endpoints exist, edge absent.
        delta = _columns(added=[(3, 1), (2, 1)])
        with pytest.raises(SanitizerError, match="delta.missing-add"):
            sanitize_delta_view(merged, base, delta)

    def test_tampered_carried_projection_fails(self):
        graph = build_directed([(1, 2), (2, 3)])
        base = CSRGraph.from_graph(graph)
        base.undirected_projection()
        delta = _fold([("add_edge", 3, 1)], directed=True)
        merged = apply_delta(base, delta, directed=True)
        assert sanitize_delta_view(merged, base, delta)["delta_checked"]
        # Swap in the base's projection, which lacks the pair {1, 3}.
        merged._undirected = base.undirected_projection()
        with pytest.raises(SanitizerError, match="delta.projection"):
            sanitize_delta_view(merged, base, delta)

    def test_add_endpoint_missing_fails(self):
        merged, base, delta = self._merged()
        # Node 42 is not in the merged view.
        delta = _columns(added=[(3, 1), (1, 42)])
        with pytest.raises(SanitizerError, match="delta.add-endpoint"):
            sanitize_delta_view(merged, base, delta)


class TestIngestValidation:
    def test_valid_stream_normalises(self):
        assert validate_ops([["add_edge", 1, 2], ("del_node", 7)]) == [
            ("add_edge", 1, 2), ("del_node", 7),
        ]

    @pytest.mark.parametrize("bad", [
        [["grow_edge", 1, 2]],        # unknown kind
        [["add_edge", 1]],            # wrong arity
        [["add_node", 1, 2]],         # wrong arity
        [["add_edge", 1, "x"]],       # non-integer operand
        ["add_edge"],                 # op is not a sequence
        [42],
    ])
    def test_malformed_streams_raise(self, bad):
        with pytest.raises(GraphError):
            validate_ops(bad)

    def test_idempotent_adds_are_skipped(self):
        graph = DirectedGraph()
        summary = apply_graph_ops(
            graph, [["add_edge", 1, 2], ["add_edge", 1, 2], ["add_node", 1]]
        )
        assert summary["applied"] == 1
        assert summary["skipped"] == 2
        assert summary["edges"] == 1

    def test_deleting_missing_edge_raises(self):
        graph = UndirectedGraph()
        graph.add_edge(1, 2)
        with pytest.raises(GraphError):
            apply_graph_ops(graph, [["del_edge", 1, 3]])


class TestOutEdgeKeys:
    def test_keys_are_global_ascending_and_cached(self):
        csr = CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 2, 0])
        keys = csr.out_edge_keys()
        expected = csr.edge_sources() * csr.num_nodes + csr.out_indices
        assert np.array_equal(keys, expected)
        assert np.all(np.diff(keys) > 0)  # simple graph: strictly ascending
        assert csr.out_edge_keys() is keys  # cached
