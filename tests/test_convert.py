"""Tests for table↔graph conversion — the paper's §2.4 machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.convert.graph_to_table import to_edge_table, to_node_table
from repro.convert.hashmap_table import table_from_hashmap
from repro.convert.table_to_graph import (
    graph_from_edge_arrays,
    hash_accumulate_build,
    per_edge_build,
    sort_first_directed,
    sort_first_undirected,
    to_graph,
)
from repro.exceptions import ConversionError
from repro.tables.table import Table

EDGES = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25)), max_size=120
)


def arrays(edge_list):
    src = np.array([e[0] for e in edge_list], dtype=np.int64)
    dst = np.array([e[1] for e in edge_list], dtype=np.int64)
    return src, dst


class TestSortFirstDirected:
    def test_basic(self):
        graph = sort_first_directed(*arrays([(1, 2), (1, 3), (2, 3)]))
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert graph.out_neighbors(1).tolist() == [2, 3]
        assert graph.in_neighbors(3).tolist() == [1, 2]

    def test_duplicate_rows_deduplicated(self):
        graph = sort_first_directed(*arrays([(1, 2), (1, 2), (1, 2)]))
        assert graph.num_edges == 1

    def test_empty_table(self):
        graph = sort_first_directed(*arrays([]))
        assert graph.num_nodes == 0
        assert graph.num_edges == 0

    def test_self_loops(self):
        graph = sort_first_directed(*arrays([(1, 1), (1, 2)]))
        assert graph.num_edges == 2
        assert graph.has_edge(1, 1)

    def test_negative_ids_rejected(self):
        with pytest.raises(ConversionError):
            sort_first_directed(np.array([-1]), np.array([2]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConversionError):
            sort_first_directed(np.array([1]), np.array([1, 2]))

    @settings(max_examples=50, deadline=None)
    @given(EDGES)
    def test_matches_per_edge_reference(self, edge_list):
        fast = sort_first_directed(*arrays(edge_list))
        slow = per_edge_build(*arrays(edge_list))
        assert fast.num_nodes == slow.num_nodes
        assert fast.num_edges == slow.num_edges
        assert sorted(fast.edges()) == sorted(slow.edges())
        for node in fast.nodes():
            assert fast.in_neighbors(node).tolist() == slow.in_neighbors(node).tolist()

    @settings(max_examples=50, deadline=None)
    @given(EDGES)
    def test_matches_hash_accumulate(self, edge_list):
        fast = sort_first_directed(*arrays(edge_list))
        other = hash_accumulate_build(*arrays(edge_list))
        assert sorted(fast.edges()) == sorted(other.edges())


class TestSortFirstUndirected:
    def test_symmetrises(self):
        graph = sort_first_undirected(*arrays([(1, 2)]))
        assert graph.has_edge(2, 1)
        assert graph.num_edges == 1

    def test_reciprocal_rows_collapse(self):
        graph = sort_first_undirected(*arrays([(1, 2), (2, 1)]))
        assert graph.num_edges == 1

    def test_self_loop_counted_once(self):
        graph = sort_first_undirected(*arrays([(3, 3), (1, 2)]))
        assert graph.num_edges == 2
        assert graph.degree(3) == 1

    @settings(max_examples=50, deadline=None)
    @given(EDGES)
    def test_matches_per_edge_reference(self, edge_list):
        fast = sort_first_undirected(*arrays(edge_list))
        slow = per_edge_build(*arrays(edge_list), directed=False)
        assert fast.num_edges == slow.num_edges
        assert sorted(fast.edges()) == sorted(slow.edges())

    @settings(max_examples=50, deadline=None)
    @given(EDGES)
    def test_matches_hash_accumulate(self, edge_list):
        fast = sort_first_undirected(*arrays(edge_list))
        other = hash_accumulate_build(*arrays(edge_list), directed=False)
        assert fast.num_edges == other.num_edges
        assert sorted(fast.edges()) == sorted(other.edges())


class TestToGraph:
    def test_from_table_columns(self):
        table = Table.from_columns({"a": [1, 2], "b": [2, 3]})
        graph = to_graph(table, "a", "b")
        assert graph.num_edges == 2

    def test_undirected_flag(self):
        table = Table.from_columns({"a": [1], "b": [2]})
        graph = to_graph(table, "a", "b", directed=False)
        assert not graph.is_directed

    def test_string_column_rejected(self):
        table = Table.from_columns({"a": ["x"], "b": [1]})
        with pytest.raises(ConversionError):
            to_graph(table, "a", "b")

    def test_float_column_rejected(self):
        table = Table.from_columns({"a": [1.0], "b": [1]})
        with pytest.raises(ConversionError):
            to_graph(table, "a", "b")


class TestGraphToTable:
    def test_edge_table_roundtrip(self):
        src, dst = arrays([(1, 2), (2, 3), (3, 1)])
        graph = graph_from_edge_arrays(src, dst)
        table = to_edge_table(graph)
        rebuilt = to_graph(table, "SrcId", "DstId")
        assert sorted(rebuilt.edges()) == sorted(graph.edges())

    def test_undirected_edge_table_lists_once(self):
        graph = sort_first_undirected(*arrays([(1, 2), (2, 3), (3, 3)]))
        table = to_edge_table(graph)
        assert table.num_rows == 3
        assert (table.column("SrcId") <= table.column("DstId")).all()

    def test_node_table(self):
        graph = graph_from_edge_arrays(*arrays([(1, 2)]))
        table = to_node_table(graph)
        assert sorted(table.column("NodeId").tolist()) == [1, 2]

    def test_node_table_with_degrees(self):
        graph = graph_from_edge_arrays(*arrays([(1, 2), (1, 3)]))
        table = to_node_table(graph, include_degrees=True)
        row = {r["NodeId"]: r for r in table.iter_rows()}
        assert row[1]["OutDeg"] == 2
        assert row[2]["InDeg"] == 1

    def test_undirected_node_table_degrees(self):
        graph = sort_first_undirected(*arrays([(1, 2)]))
        table = to_node_table(graph, include_degrees=True)
        assert set(table.schema.names) == {"NodeId", "Deg"}

    @settings(max_examples=40, deadline=None)
    @given(EDGES)
    def test_full_roundtrip_table_graph_table(self, edge_list):
        # The Figure 2 loop: edges → graph → edge table → graph again.
        src, dst = arrays(edge_list)
        graph = graph_from_edge_arrays(src, dst)
        table = to_edge_table(graph)
        rebuilt = to_graph(table, "SrcId", "DstId")
        assert sorted(rebuilt.edges()) == sorted(graph.edges())
        assert rebuilt.num_nodes == graph.num_nodes or graph.num_edges == 0


class TestTableFromHashMap:
    def test_float_values(self):
        table = table_from_hashmap({1: 0.5, 2: 0.25}, "User", "Scr")
        assert table.schema.names == ("User", "Scr")
        assert table.column("Scr").dtype == np.float64

    def test_int_values(self):
        table = table_from_hashmap({1: 3, 2: 4}, "Node", "Core")
        assert table.column("Core").dtype == np.int64

    def test_empty_mapping(self):
        assert table_from_hashmap({}, "k", "v").num_rows == 0

    def test_same_column_names_rejected(self):
        with pytest.raises(ConversionError):
            table_from_hashmap({1: 1}, "x", "x")
