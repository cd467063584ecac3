"""Tests for memory accounting (Table 2 machinery)."""

import numpy as np
import pytest

from repro.exceptions import RingoError
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.memory.footprint import peak_footprint
from repro.memory.sizeof import format_bytes, object_size_bytes, size_report
from repro.tables.table import Table


class TestObjectSize:
    def test_table_size(self):
        table = Table.from_columns({"x": np.arange(100)})
        # 100 int64 values + 100 int64 row ids.
        assert object_size_bytes(table) == 1600

    def test_graph_size(self):
        graph = DirectedGraph()
        graph.add_edge(1, 2)
        assert object_size_bytes(graph) > 0

    def test_csr_size(self):
        csr = CSRGraph.from_edges([0], [1])
        assert object_size_bytes(csr) == csr.memory_bytes()

    def test_unknown_type_rejected(self):
        with pytest.raises(RingoError):
            object_size_bytes([1, 2, 3])

    def test_graph_smaller_than_edge_table_at_scale(self):
        # Table 2's observation: the graph object is smaller than the
        # table object for the same edges (no per-edge row ids, shared
        # source encoding).
        from repro.workflows.datasets import LJ_SCALED, make_edge_table, make_graph

        graph = make_graph(LJ_SCALED)
        table = make_edge_table(LJ_SCALED)
        assert object_size_bytes(graph) < object_size_bytes(table)


class TestFormatBytes:
    @pytest.mark.parametrize(
        "size,expected",
        [
            (0, "0B"),
            (512, "512B"),
            (2048, "2.0KB"),
            (5 * (1 << 20), "5.0MB"),
            (int(0.7 * (1 << 30)), "0.7GB"),
        ],
    )
    def test_units(self, size, expected):
        assert format_bytes(size) == expected

    def test_negative_rejected(self):
        with pytest.raises(RingoError):
            format_bytes(-1)


class TestSizeReport:
    def test_lines_per_object(self):
        table = Table.from_columns({"x": [1]})
        report = size_report({"edges": table})
        assert report.startswith("edges: ")


class TestPeakFootprint:
    def test_returns_result_and_positive_peak(self):
        result, peak = peak_footprint(lambda: np.zeros(1_000_000))
        assert len(result) == 1_000_000
        assert peak >= 8_000_000

    def test_small_allocation_small_peak(self):
        _, small_peak = peak_footprint(lambda: np.zeros(10))
        _, big_peak = peak_footprint(lambda: np.zeros(1_000_000))
        assert big_peak > small_peak

    def test_exception_propagates_and_tracing_stops(self):
        import tracemalloc

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            peak_footprint(boom)
        assert not tracemalloc.is_tracing()

    def test_raising_operation_still_reports_footprint(self):
        def allocate_then_fail():
            buffer = np.zeros(500_000)
            raise ValueError(f"failed holding {buffer.nbytes} bytes")

        with pytest.raises(ValueError) as info:
            peak_footprint(allocate_then_fail)
        # The failed run is still diagnosable: the peak-so-far rides on
        # the exception as an attribute and a note.
        assert info.value.peak_extra_bytes >= 4_000_000
        assert any("peak extra memory" in note for note in info.value.__notes__)

    def test_pagerank_footprint_bounded_by_twice_graph_size(self):
        # The paper's §3 claim: 10 PageRank iterations run in a footprint
        # below twice the graph object's size. The analogue here: the
        # iteration kernel's extra allocations stay under 2x the CSR
        # snapshot it runs over.
        from repro.algorithms.common import as_csr
        from repro.algorithms.pagerank import pagerank_array
        from repro.workflows.datasets import LJ_SCALED, make_graph

        csr = as_csr(make_graph(LJ_SCALED))
        _, peak = peak_footprint(lambda: pagerank_array(csr, iterations=10))
        assert peak < 2 * csr.memory_bytes()


class TestMemoryBudget:
    def test_admit_within_limit(self):
        from repro.memory.budget import MemoryBudget

        budget = MemoryBudget(1 << 20)
        assert budget.admit("op", 1 << 10) is None
        snap = budget.snapshot()
        assert snap["admitted"] == 1 and snap["denials"] == 0

    def test_strict_budget_raises_typed_error(self):
        from repro.exceptions import MemoryBudgetError
        from repro.memory.budget import MemoryBudget

        budget = MemoryBudget(1 << 10)
        with pytest.raises(MemoryBudgetError) as info:
            budget.admit("ToGraph", 1 << 20)
        assert info.value.estimated == 1 << 20
        assert info.value.limit == 1 << 10
        assert budget.snapshot()["denials"] == 1

    def test_coerce_accepts_ints_and_none(self):
        from repro.memory.budget import MemoryBudget

        assert MemoryBudget.coerce(None) is None
        budget = MemoryBudget.coerce(4096)
        assert isinstance(budget, MemoryBudget)
        assert MemoryBudget.coerce(budget) is budget

    def test_invalid_configuration_rejected(self):
        from repro.memory.budget import MemoryBudget

        with pytest.raises(RingoError):
            MemoryBudget(0)

    def test_estimates_scale_with_input(self):
        from repro.memory.budget import (
            estimate_graph_build_bytes,
            estimate_join_bytes,
        )

        assert estimate_graph_build_bytes(0) == 0
        assert (
            estimate_graph_build_bytes(2_000)
            > estimate_graph_build_bytes(1_000)
            > 8 * 1_000
        )
        assert estimate_join_bytes(1_000, 1_000, 4) > estimate_join_bytes(10, 10, 4)
        with pytest.raises(RingoError):
            estimate_graph_build_bytes(-1)
