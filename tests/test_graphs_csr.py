"""Tests for the CSR snapshot representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph


class TestConstruction:
    def test_from_edges(self):
        csr = CSRGraph.from_edges([0, 0, 1], [1, 2, 2])
        assert csr.num_nodes == 3
        assert csr.num_edges == 3
        assert csr.out_neighbors(0).tolist() == [1, 2]

    def test_sparse_node_ids_densified(self):
        csr = CSRGraph.from_edges([100, 100], [200, 300])
        assert csr.num_nodes == 3
        assert csr.node_ids.tolist() == [100, 200, 300]
        assert csr.dense_of(200) == 1

    def test_duplicate_edges_removed(self):
        csr = CSRGraph.from_edges([0, 0], [1, 1])
        assert csr.num_edges == 1

    def test_duplicates_kept_when_requested(self):
        csr = CSRGraph.from_edges([0, 0], [1, 1], deduplicate=False)
        assert csr.num_edges == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([0], [1, 2])

    def test_from_directed_graph(self):
        graph = DirectedGraph()
        graph.add_edge(5, 7)
        graph.add_edge(7, 5)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_edges == 2
        assert csr.out_neighbors(csr.dense_of(5)).tolist() == [csr.dense_of(7)]

    def test_from_undirected_graph_symmetrises(self):
        graph = UndirectedGraph()
        graph.add_edge(1, 2)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_edges == 2

    def test_from_graph_keeps_isolated_nodes(self):
        graph = DirectedGraph()
        graph.add_edge(1, 2)
        graph.add_node(9)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_nodes == 3
        assert csr.out_neighbors(csr.dense_of(9)).tolist() == []

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(DirectedGraph())
        assert csr.num_nodes == 0
        assert csr.num_edges == 0

    def test_undirected_self_loop_not_duplicated(self):
        graph = UndirectedGraph()
        graph.add_edge(3, 3)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_edges == 1


class TestQueries:
    @pytest.fixture
    def csr(self):
        return CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 2, 0])

    def test_in_neighbors(self, csr):
        assert csr.in_neighbors(2).tolist() == [0, 1]

    def test_degrees(self, csr):
        assert csr.out_degrees().tolist() == [2, 1, 1]
        assert csr.in_degrees().tolist() == [1, 1, 2]

    def test_dense_of_unknown_raises(self, csr):
        with pytest.raises(NodeNotFoundError):
            csr.dense_of(42)

    def test_dense_of_array(self, csr):
        assert csr.dense_of_array(np.array([2, 0])).tolist() == [2, 0]

    def test_dense_of_array_unknown_raises(self, csr):
        with pytest.raises(NodeNotFoundError):
            csr.dense_of_array(np.array([0, 99]))

    def test_arrays_readonly(self, csr):
        with pytest.raises(ValueError):
            csr.out_indices[0] = 5

    def test_memory_bytes_positive(self, csr):
        assert csr.memory_bytes() > 0


class TestEdgeDeletion:
    def test_with_edge_deleted(self):
        csr = CSRGraph.from_edges([0, 0, 1], [1, 2, 2])
        smaller = csr.with_edge_deleted(0, 2)
        assert smaller.num_edges == 2
        assert smaller.out_neighbors(0).tolist() == [1]
        # Original snapshot untouched (immutability).
        assert csr.num_edges == 3

    def test_delete_missing_edge_raises(self):
        csr = CSRGraph.from_edges([0], [1])
        with pytest.raises(GraphError):
            csr.with_edge_deleted(1, 0)


class TestAgainstDynamicGraph:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=80))
    def test_snapshot_preserves_adjacency(self, edge_list):
        graph = DirectedGraph()
        for src, dst in edge_list:
            graph.add_edge(src, dst)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        for node in graph.nodes():
            dense = csr.dense_of(node)
            expected = graph.out_neighbors(node).tolist()
            got = csr.node_ids[csr.out_neighbors(dense)].tolist()
            assert got == expected
