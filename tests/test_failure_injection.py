"""Failure injection: malformed inputs must fail loudly and precisely.

An interactive system's errors are part of its UX — every corruption
here must surface as a typed RingoError (or a clean subclass), never a
silent wrong answer or a bare traceback from numpy internals.

The second half exercises the deliberate-fault machinery from
:mod:`repro.faults`: seeded fault sites in the IO loaders, the worker
pool's kernel dispatch and the conversion paths, plus the retry/budget
semantics layered on top.
"""

import threading

import numpy as np
import pytest

from repro.algorithms.triangles import MAX_BLOCK_WEDGES, _wedge_blocks, total_triangles
from repro.core.engine import Ringo
from repro.exceptions import (
    GraphError,
    InjectedFaultError,
    MemoryBudgetError,
    RetryExhaustedError,
    RingoError,
    SchemaError,
    TransientError,
)
from repro.faults import FaultPlan, fault_point, inject_faults
from repro.graphs.csr import CSRGraph
from repro.graphs.serialize import load_edge_list, load_graph, save_graph
from repro.parallel.resilience import RetryPolicy, run_with_retry
from repro.recovery.digest import catalog_digest
from repro.recovery.wal import WAL_FILENAME, read_wal
from repro.tables.io_npz import load_table_npz, save_table_npz
from repro.tables.io_tsv import load_table_tsv
from repro.tables.table import Table

SCHEMA = [("id", "int"), ("score", "float"), ("tag", "string")]


class TestCorruptTsv:
    def test_too_few_fields(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2.0\tx\n3\t4.0\n")
        with pytest.raises(SchemaError, match=":2"):
            load_table_tsv(SCHEMA, path)

    def test_too_many_fields(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2.0\tx\textra\n")
        with pytest.raises(SchemaError, match="expected 3"):
            load_table_tsv(SCHEMA, path)

    def test_non_numeric_int(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("NaNID\t2.0\tx\n")
        with pytest.raises(SchemaError, match="'id'"):
            load_table_tsv(SCHEMA, path)

    def test_non_numeric_float(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\tnotafloat\tx\n")
        with pytest.raises(SchemaError, match="'score'"):
            load_table_tsv(SCHEMA, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_table_tsv(SCHEMA, tmp_path / "nope.tsv")

    def test_unicode_content_survives(self, tmp_path):
        path = tmp_path / "uni.tsv"
        path.write_text("1\t0.5\tcafé ☕\n", encoding="utf-8")
        table = load_table_tsv(SCHEMA, path)
        assert table.values("tag") == ["café ☕"]

    def test_whitespace_only_lines_skipped_if_blank(self, tmp_path):
        path = tmp_path / "ws.tsv"
        path.write_text("1\t0.5\tx\n\n2\t0.5\ty\n")
        assert load_table_tsv(SCHEMA, path).num_rows == 2


class TestCorruptEdgeList:
    def test_single_field_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1\n")
        with pytest.raises(GraphError, match="malformed"):
            load_edge_list(path)

    def test_non_integer_endpoint(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1\ttwo\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_negative_node_id(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("-1\t2\n")
        with pytest.raises(RingoError):
            load_edge_list(path)


class TestCorruptGraphArchive:
    def test_wrong_version(self, tmp_path):
        path = tmp_path / "graph.npz"
        np.savez(
            path,
            version=np.int64(99),
            directed=np.int64(1),
            nodes=np.array([1]),
            sources=np.array([], dtype=np.int64),
            targets=np.array([], dtype=np.int64),
        )
        with pytest.raises(GraphError, match="version"):
            load_graph(path)

    def test_truncated_file(self, tmp_path):
        from repro.graphs.directed import DirectedGraph

        graph = DirectedGraph()
        graph.add_edge(1, 2)
        path = tmp_path / "graph.npz"
        save_graph(graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(Exception):
            load_graph(path)


class TestNanAndExtremes:
    def test_nan_in_float_select(self):
        table = Table.from_columns({"x": [1.0, float("nan"), 3.0]})
        kept = table.select("x > 0")
        # NaN compares false, so the NaN row is dropped — documented
        # numpy semantics, not a crash.
        assert kept.num_rows == 2

    def test_nan_not_equal_to_itself(self):
        table = Table.from_columns({"x": [float("nan")]})
        assert table.select("x = x").num_rows == 0

    def test_int64_extremes_roundtrip(self, tmp_path):
        big = 2**62
        table = Table.from_columns({"x": [big, -big]})
        from repro.tables.io_tsv import save_table_tsv

        path = tmp_path / "big.tsv"
        save_table_tsv(table, path)
        loaded = load_table_tsv([("x", "int")], path)
        assert loaded.column("x").tolist() == [big, -big]

    def test_huge_node_ids(self):
        from repro.convert.table_to_graph import graph_from_edge_arrays

        graph = graph_from_edge_arrays(
            np.array([2**40]), np.array([2**41])
        )
        assert graph.has_edge(2**40, 2**41)

    def test_empty_string_cells(self):
        table = Table.from_columns({"s": ["", "a", ""]})
        assert table.values("s") == ["", "a", ""]
        assert table.select("s = ''").num_rows == 2


# ----------------------------------------------------------------------
# Deliberate faults: the repro.faults registry and resilient execution
# ----------------------------------------------------------------------

EDGE_COLUMNS = {"a": [1, 2, 3, 1, 4, 5], "b": [2, 3, 1, 3, 5, 4]}


def _two_block_triangle_graph(ringo):
    """An R-MAT graph whose triangle count spans at least two wedge
    blocks (257 112 wedges: three at the default cap), so a two-worker
    session dispatches it as two pool partitions."""
    graph = ringo.GenRMat(11, 30000, seed=3, directed=False)
    sym = CSRGraph.from_graph(graph).undirected_projection()
    assert len(_wedge_blocks(sym.forward_adjacency()[0], MAX_BLOCK_WEDGES)) >= 2
    return graph


def _serial_triangles(graph):
    """Inline count over a fresh snapshot (no pool, no cached state)."""
    return total_triangles(CSRGraph.from_graph(graph))


class TestFaultRegistry:
    def test_unarmed_site_is_noop(self):
        fault_point("io.tsv.parse_row")  # no plan active: must not raise

    def test_unknown_site_in_armed_plan_is_noop(self):
        with inject_faults({"some.other.site": 1.0}):
            fault_point("io.tsv.parse_row")

    def test_rate_one_always_fires(self):
        with inject_faults({"demo.site": 1.0}) as plan:
            for _ in range(3):
                with pytest.raises(InjectedFaultError):
                    fault_point("demo.site")
        assert plan.triggered["demo.site"] == 3
        assert plan.drawn["demo.site"] == 3

    def test_seeded_streams_are_deterministic(self):
        def pattern(seed):
            fired = []
            with inject_faults({"demo.site": 0.5}, seed=seed):
                for _ in range(20):
                    try:
                        fault_point("demo.site")
                        fired.append(False)
                    except InjectedFaultError:
                        fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_injected_fault_is_retryable_and_typed(self):
        with inject_faults({"demo.site": 1.0}):
            with pytest.raises(TransientError):
                fault_point("demo.site")
            with pytest.raises(RingoError):
                fault_point("demo.site")

    def test_max_triggers_stops_firing(self):
        with inject_faults({"demo.site": {"rate": 1.0, "max_triggers": 2}}) as plan:
            for _ in range(2):
                with pytest.raises(InjectedFaultError):
                    fault_point("demo.site")
            fault_point("demo.site")  # budget spent: silent
        assert plan.triggered["demo.site"] == 2
        assert plan.drawn["demo.site"] == 3

    def test_custom_error_class(self):
        with inject_faults({"demo.site": {"rate": 1.0, "error": OSError}}):
            with pytest.raises(OSError):
                fault_point("demo.site")

    def test_plans_nest_and_restore(self):
        with inject_faults({"outer.site": 1.0}):
            with inject_faults({"inner.site": 1.0}):
                fault_point("outer.site")  # inner plan replaced the outer
                with pytest.raises(InjectedFaultError):
                    fault_point("inner.site")
            with pytest.raises(InjectedFaultError):
                fault_point("outer.site")
        fault_point("outer.site")

    def test_bad_rate_rejected(self):
        with pytest.raises(RingoError):
            FaultPlan({"demo.site": 1.5})

    def test_bad_spec_rejected(self):
        with pytest.raises(RingoError):
            FaultPlan({"demo.site": "often"})


class TestInjectedIoFaults:
    def test_tsv_row_fault_aborts_load(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("1\t2.0\tx\n2\t3.0\ty\n")
        with Ringo(workers=1) as ringo:
            with inject_faults({"io.tsv.parse_row": 1.0}):
                with pytest.raises(InjectedFaultError, match="io.tsv.parse_row"):
                    ringo.LoadTableTSV(SCHEMA, path)
            # the failed load published nothing to the session
            assert ringo.Objects() == []
            table = ringo.LoadTableTSV(SCHEMA, path)
            assert table.num_rows == 2
            assert ringo.Objects() == ["table-1"]

    def test_tsv_rate_zero_loads_clean_while_armed(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("1\t2.0\tx\n")
        with inject_faults({"io.tsv.parse_row": 0.0}) as plan:
            assert load_table_tsv(SCHEMA, path).num_rows == 1
        assert plan.triggered["io.tsv.parse_row"] == 0
        assert plan.drawn["io.tsv.parse_row"] == 1

    def test_npz_load_fault(self, tmp_path):
        table = Table.from_columns({"x": [1, 2, 3]})
        path = tmp_path / "snap.npz"
        save_table_npz(table, path)
        with Ringo(workers=1) as ringo:
            with inject_faults({"io.npz.load": 1.0}):
                with pytest.raises(InjectedFaultError):
                    ringo.LoadTableBinary(path)
            assert ringo.Objects() == []

    def test_npz_load_faults_recover_under_retry(self, tmp_path):
        table = Table.from_columns({"x": [1, 2, 3]})
        path = tmp_path / "snap.npz"
        save_table_npz(table, path)
        policy = RetryPolicy(max_attempts=10, base_delay=0.0)
        with inject_faults({"io.npz.load": 0.3}, seed=3) as plan:
            for _ in range(20):
                loaded = run_with_retry(lambda: load_table_npz(path), policy)
                assert loaded.column("x").tolist() == [1, 2, 3]
        assert plan.triggered["io.npz.load"] >= 1


class TestMidConversionFailure:
    def test_toGraph_fault_leaves_no_partial_graph(self):
        with Ringo(workers=1) as ringo:
            table = ringo.TableFromColumns(EDGE_COLUMNS)
            with inject_faults({"convert.sort_first": 1.0}):
                with pytest.raises(RingoError):
                    ringo.ToGraph(table, "a", "b")
            assert ringo.health()["objects"]["published"] == 0
            # the session recovers cleanly once the faults are disarmed
            graph = ringo.ToGraph(table, "a", "b")
            assert graph.num_edges == 6
            assert ringo.Objects() == ["graph-1"]

    def test_join_fault_publishes_nothing(self):
        with Ringo(workers=1) as ringo:
            table = ringo.TableFromColumns({"k": [1, 2], "v": [3.0, 4.0]})
            with inject_faults({"join.materialize": 1.0}):
                with pytest.raises(InjectedFaultError):
                    ringo.Join(table, table, "k")
            assert ringo.Objects() == []


class TestRetrySemantics:
    def test_run_with_retry_recovers_from_transients(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("not yet")
            return "done"

        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        assert run_with_retry(flaky, policy) == "done"
        assert len(attempts) == 3

    def test_run_with_retry_exhaustion_chains_last_error(self):
        def always_fails():
            raise TransientError("still broken")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(RetryExhaustedError) as info:
            run_with_retry(always_fails, policy)
        assert info.value.attempts == 2
        assert isinstance(info.value.last_error, TransientError)

    def test_non_retryable_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            run_with_retry(broken, RetryPolicy(max_attempts=5, base_delay=0.0))
        assert len(attempts) == 1

    def test_triangles_retry_then_succeed(self):
        # Seed 17 makes the parallel.kernel stream fire on its first draw
        # and at most twice in the first six, so with two partitions and
        # max_attempts=3 the count must succeed under any interleaving.
        policy = RetryPolicy(max_attempts=3, base_delay=0.001)
        with Ringo(workers=2, retry_policy=policy) as ringo:
            graph = _two_block_triangle_graph(ringo)
            with inject_faults({"parallel.kernel": 0.3}, seed=17) as plan:
                count = ringo.GetTriangles(graph)
            assert count == _serial_triangles(graph)
            assert plan.triggered["parallel.kernel"] >= 1
            assert ringo.health()["workers"]["retries"] >= 1

    def test_retry_exhaustion_surfaces_as_typed_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with Ringo(workers=2, retry_policy=policy) as ringo:
            graph = _two_block_triangle_graph(ringo)
            with inject_faults({"parallel.kernel": 1.0}):
                with pytest.raises(RetryExhaustedError):
                    ringo.GetTriangles(graph)
            assert ringo.health()["workers"]["retries"] >= 2
            # Nothing half-counted was kept: disarmed, the answer is exact.
            assert ringo.GetTriangles(graph) == _serial_triangles(graph)


class TestMemoryBudgets:
    def test_strict_budget_refuses_conversion(self):
        with Ringo(workers=1, memory_budget=64) as ringo:
            table = ringo.TableFromColumns(EDGE_COLUMNS)
            with pytest.raises(MemoryBudgetError) as info:
                ringo.ToGraph(table, "a", "b")
            assert info.value.operation == "ToGraph"
            assert ringo.health()["objects"]["published"] == 0
            assert ringo.health()["memory_budget"]["denials"] == 1

    def test_budget_admits_small_work(self):
        with Ringo(workers=1, memory_budget=1 << 30) as ringo:
            table = ringo.TableFromColumns(EDGE_COLUMNS)
            graph = ringo.ToGraph(table, "a", "b")
            assert graph.num_edges == 6
            assert ringo.health()["memory_budget"]["admitted"] >= 1

    def test_strict_budget_refuses_join(self):
        with Ringo(workers=1, memory_budget=64) as ringo:
            table = ringo.TableFromColumns({"k": list(range(100))})
            with pytest.raises(MemoryBudgetError):
                ringo.Join(table, table, "k")

    def test_durable_refusal_logs_nothing_and_recovers(self, tmp_path):
        state = tmp_path / "state"
        # Converting 100 rows is estimated at 8 000 bytes; 4 rows at 320.
        outside = Table.from_columns({"a": list(range(100)), "b": list(range(100))})
        with Ringo(workers=1, memory_budget=1000, durability=state) as ringo:
            with pytest.raises(MemoryBudgetError) as join_info:
                ringo.Join(outside, outside, "a")
            with pytest.raises(MemoryBudgetError) as graph_info:
                ringo.ToGraph(outside, "a", "b")
            assert (join_info.value.operation, graph_info.value.operation) == (
                "Join", "ToGraph")
            # Refused before adoption: no record at all, not even __adopt_table__.
            assert read_wal(state / WAL_FILENAME)[0] == []
            assert ringo.Objects() == []
            assert ringo.health()["memory_budget"]["denials"] == 2

            table = ringo.TableFromColumns({"a": [5, 3, 9, 1], "b": [3, 9, 1, 5]})
            graph = ringo.ToGraph(table, "a", "b")
            nodes = ringo.GetNodeTable(graph)
            assert nodes.column(nodes.schema.names[0]).tolist() == [1, 3, 5, 9]
            reference = catalog_digest(ringo)
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference
