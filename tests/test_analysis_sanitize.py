"""Snapshot sanitizer: invariant checks, env gating, cache integration."""

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.core.engine import Ringo
from repro.exceptions import SanitizerError
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.snapshot import csr_snapshot
from tests.helpers import build_directed


@pytest.fixture(autouse=True)
def _clean_sanitizer_state():
    sanitize.reset()
    yield
    sanitize.reset()


def valid_csr():
    return CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 2, 0])


def corrupt(mutator):
    """A valid CSR with one invariant broken by ``mutator(csr)``."""
    csr = valid_csr()
    mutator(csr)
    return csr


class TestInvariants:
    def test_valid_snapshot_passes(self):
        summary = sanitize.sanitize_csr(valid_csr())
        assert summary == {"nodes": 3, "edges": 4, "version_checked": False}

    def test_empty_graph_passes(self):
        csr = CSRGraph.from_edges([], [])
        assert sanitize.sanitize_csr(csr)["nodes"] == 0

    def test_indptr_origin(self):
        csr = corrupt(lambda c: c._out_indptr.__setitem__(0, 1))
        with pytest.raises(SanitizerError, match="out.indptr-origin"):
            sanitize.sanitize_csr(csr)

    def test_indptr_monotone(self):
        def break_monotone(c):
            c._out_indptr[1] = 3
            c._out_indptr[2] = 1

        with pytest.raises(SanitizerError, match="out.indptr-monotone"):
            sanitize.sanitize_csr(corrupt(break_monotone))

    def test_indptr_extent(self):
        csr = corrupt(lambda c: c._out_indptr.__setitem__(3, 7))
        with pytest.raises(SanitizerError, match="out.indptr-extent"):
            sanitize.sanitize_csr(csr)

    def test_indices_range(self):
        csr = corrupt(lambda c: c._out_indices.__setitem__(0, 99))
        with pytest.raises(SanitizerError, match="out.indices-range"):
            sanitize.sanitize_csr(csr)

    def test_row_sortedness(self):
        # Node 0's out-row is [1, 2]; swapping makes it [2, 1] without
        # touching any other invariant.
        def unsort(c):
            c._out_indices[0], c._out_indices[1] = (
                c._out_indices[1],
                int(c._out_indices[0]),
            )

        with pytest.raises(SanitizerError, match="out.row-sorted"):
            sanitize.sanitize_csr(corrupt(unsort))

    def test_row_boundary_drop_is_not_a_violation(self):
        # indices [.., 2 | 0, ..] drops across a row boundary: legal.
        sanitize.sanitize_csr(valid_csr())

    def test_in_orientation_checked_too(self):
        csr = corrupt(lambda c: c._in_indices.__setitem__(0, -1))
        with pytest.raises(SanitizerError, match="in.indices-range"):
            sanitize.sanitize_csr(csr)

    def test_node_ids_sorted(self):
        csr = corrupt(lambda c: c._node_ids.__setitem__(0, 5))
        with pytest.raises(SanitizerError, match="node-ids-sorted"):
            sanitize.sanitize_csr(csr)

    def test_indptr_length(self):
        csr = corrupt(lambda c: setattr(c, "_out_indptr", c._out_indptr[:-1]))
        with pytest.raises(SanitizerError, match="out.indptr-length"):
            sanitize.sanitize_csr(csr)

    def test_degree_sum(self):
        # Out-degrees are [2, 1, 1]; a cached vector summing to 5 != nnz.
        csr = corrupt(lambda c: setattr(c, "_out_degrees", np.array([2, 1, 2])))
        with pytest.raises(SanitizerError, match="out.degree-sum"):
            sanitize.sanitize_csr(csr)

    def test_degree_indptr(self):
        # Same sum as the row widths, different rows.
        csr = corrupt(lambda c: setattr(c, "_out_degrees", np.array([1, 2, 1])))
        with pytest.raises(SanitizerError, match="out.degree-indptr"):
            sanitize.sanitize_csr(csr)

    def test_node_ids_length(self):
        # The sanitizer reads any snapshot-shaped object; one whose node
        # count disagrees with its id array must not pass.
        class Miscounted(CSRGraph):
            num_nodes = property(lambda self: len(self._node_ids) + 1)

        valid = valid_csr()
        csr = Miscounted(
            valid.node_ids, valid.out_indptr, valid.out_indices,
            valid.in_indptr, valid.in_indices,
        )
        with pytest.raises(SanitizerError, match="node-ids-length"):
            sanitize.sanitize_csr(csr)

    def test_orientation_nnz(self):
        # Each orientation is well formed on its own, but the in-side
        # holds three edges to the out-side's four.
        valid = valid_csr()
        fewer = CSRGraph.from_edges([0, 0, 1], [1, 2, 2])
        csr = CSRGraph(
            valid.node_ids, valid.out_indptr, valid.out_indices,
            fewer.in_indptr, fewer.in_indices,
        )
        with pytest.raises(SanitizerError, match="orientation-nnz"):
            sanitize.sanitize_csr(csr)

    def test_version_coherence(self):
        graph = build_directed([(0, 1), (1, 2)])
        frozen = graph.version
        csr = valid_csr()
        sanitize.sanitize_csr(csr, graph=graph, expected_version=frozen)
        graph.add_edge(2, 0)  # "mid-build" mutation
        with pytest.raises(SanitizerError, match="version-coherence"):
            sanitize.sanitize_csr(csr, graph=graph, expected_version=frozen)


class TestGatingAndCounters:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("RINGO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        broken = corrupt(lambda c: c._out_indptr.__setitem__(0, 1))
        sanitize.maybe_sanitize(broken)  # no-op while disabled
        assert sanitize.stats()["checks"] == 0

    def test_enable_forces_validation(self):
        sanitize.enable()
        broken = corrupt(lambda c: c._out_indptr.__setitem__(0, 1))
        with pytest.raises(SanitizerError):
            sanitize.maybe_sanitize(broken)

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("RINGO_SANITIZE", "1")
        assert sanitize.enabled()
        monkeypatch.setenv("RINGO_SANITIZE", "0")
        assert not sanitize.enabled()

    def test_disable_overrides_env(self, monkeypatch):
        monkeypatch.setenv("RINGO_SANITIZE", "1")
        sanitize.disable()
        assert not sanitize.enabled()

    def test_counters_track_checks_and_violations(self):
        sanitize.sanitize_csr(valid_csr())
        broken = corrupt(lambda c: c._out_indptr.__setitem__(0, 1))
        with pytest.raises(SanitizerError):
            sanitize.sanitize_csr(broken)
        stats = sanitize.stats()
        assert stats["checks"] == 2
        assert stats["violations"] == 1
        assert stats["last_violation"].startswith("out.indptr-origin")

    def test_error_carries_check_name(self):
        broken = corrupt(lambda c: c._out_indices.__setitem__(0, 99))
        with pytest.raises(SanitizerError) as excinfo:
            sanitize.sanitize_csr(broken)
        assert excinfo.value.check == "out.indices-range"


class TestCacheIntegration:
    def test_snapshot_cache_conversions_validated(self):
        sanitize.enable()
        graph = build_directed([(0, 1), (1, 2), (2, 0), (0, 2)])
        csr = csr_snapshot(graph)
        assert csr.num_nodes == 3
        assert sanitize.stats()["checks"] >= 1

    def test_cache_hit_does_not_recheck(self):
        sanitize.enable()
        graph = build_directed([(0, 1), (1, 2)])
        csr_snapshot(graph)
        checks = sanitize.stats()["checks"]
        csr_snapshot(graph)  # warm hit: no rebuild, no re-validation
        assert sanitize.stats()["checks"] == checks

    def test_engine_pipeline_under_sanitizer(self):
        sanitize.enable()
        with Ringo(workers=2) as ringo:
            graph = DirectedGraph()
            for src, dst in [(0, 1), (1, 2), (2, 0), (1, 0)]:
                graph.add_edge(src, dst)
            ranks = ringo.GetPageRank(graph)
            assert len(ranks) == 3
            health = ringo.health()
        stats = health["analysis"]["sanitizer"]
        assert stats["enabled"]
        assert stats["checks"] >= 1
        assert stats["violations"] == 0

    def test_health_reports_sanitizer_when_disabled(self, monkeypatch):
        monkeypatch.delenv("RINGO_SANITIZE", raising=False)
        with Ringo(workers=1) as ringo:
            stats = ringo.health()["analysis"]["sanitizer"]
        assert stats["enabled"] is False
