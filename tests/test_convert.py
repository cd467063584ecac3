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
from repro.graphs.base import MAX_KEYED_NODES, edge_keys
from repro.graphs.csr import CSRGraph
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


# Ids from a small range (so rows repeat and loops occur) mixed with ids
# up to 2**62, where a key of raw ids would overflow and dense labels must
# do the pairing.
_IDS = st.one_of(st.integers(0, 12), st.integers(0, 2**62))
_BUILDS = st.tuples(
    st.lists(st.tuples(_IDS, _IDS), max_size=60), st.lists(_IDS, max_size=6)
)
_EDGE_CASES = [
    ([], []),
    ([], [5]),
    ([], [7, 7, 2**62]),
    ([(3, 4)], []),
    ([(2**62, 2**62)], []),
    ([(1, 2), (1, 2), (2, 1), (2, 2), (2, 2)], [9, 1, 9]),
    ([(2**62, 0), (0, 2**62), (2**62 - 1, 2**62)], [2**61]),
]


def _lexsort_build(sources, targets, nodes, directed, deduplicate=True):
    """The two-lexsort builder the key kernel replaced, kept as a reference.

    Returns the five backing arrays and the edge count.
    """
    if not directed:
        loops = sources == targets
        sources, targets = (
            np.concatenate([sources, targets[~loops]]),
            np.concatenate([targets, sources[~loops]]),
        )

    def runs(primary, secondary):
        order = np.lexsort((secondary, primary))
        primary, secondary = primary[order], secondary[order]
        keep = np.ones(len(primary), dtype=bool)
        if deduplicate:
            keep[1:] = (primary[1:] != primary[:-1]) | (secondary[1:] != secondary[:-1])
        return primary[keep], secondary[keep]

    out_src, out_dst = runs(sources, targets)
    in_dst, in_src = runs(targets, sources)
    node_ids = np.unique(np.concatenate([out_src, out_dst, nodes]))

    def row_starts(keys):
        return np.append(np.searchsorted(keys, node_ids), len(keys))

    backing = (
        node_ids,
        row_starts(out_src),
        np.searchsorted(node_ids, out_dst),
        row_starts(in_dst),
        np.searchsorted(node_ids, in_src),
    )
    loops = int(np.count_nonzero(out_src == out_dst))
    edges = len(out_src) if directed else (len(out_src) - loops) // 2 + loops
    return backing, edges


def _set_reference(edge_list, nodes, directed):
    """Node set, out- and in-neighbour sets and edge count, by Python sets."""
    node_set = {node for edge in edge_list for node in edge} | set(nodes)
    out = {node: set() for node in node_set}
    into = {node: set() for node in node_set}
    for src, dst in edge_list:
        out[src].add(dst)
        into[dst].add(src)
        if not directed:
            out[dst].add(src)
            into[src].add(dst)
    edges = {edge if directed else tuple(sorted(edge)) for edge in edge_list}
    return node_set, out, into, len(edges)


def _decoded_rows(node_ids, indptr, indices):
    """``{node id: neighbour ids}`` of one orientation of a backing."""
    return {
        int(node): node_ids[indices[indptr[i] : indptr[i + 1]]].tolist()
        for i, node in enumerate(node_ids)
    }


def _assert_same_arrays(got, expected):
    for array, reference in zip(got, expected, strict=True):
        assert array.dtype == reference.dtype
        assert np.array_equal(array, reference)


class TestKeyKernel:
    """The one-key-sort build against a set reference and the lexsort build."""

    def check(self, edge_list, nodes, directed):
        src, dst = arrays(edge_list)
        extra = np.array(nodes, dtype=np.int64)
        build = sort_first_directed if directed else sort_first_undirected
        graph = build(src, dst, extra)
        node_set, out, into, edges = _set_reference(edge_list, nodes, directed)
        assert graph.num_edges == edges
        if not node_set:
            assert graph.num_nodes == 0
            return
        csr = graph._csr
        backing = csr.node_ids, csr.out_indptr, csr.out_indices, csr.in_indptr, csr.in_indices
        assert backing[0].tolist() == sorted(node_set)
        assert _decoded_rows(*backing[:3]) == {n: sorted(out[n]) for n in node_set}
        assert _decoded_rows(backing[0], *backing[3:]) == {
            n: sorted(into[n]) for n in node_set
        }
        reference, reference_edges = _lexsort_build(src, dst, extra, directed)
        _assert_same_arrays(backing, reference)
        assert graph.num_edges == reference_edges

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("edge_list,nodes", _EDGE_CASES)
    def test_edge_cases(self, edge_list, nodes, directed):
        self.check(edge_list, nodes, directed)

    @settings(max_examples=60, deadline=None)
    @given(_BUILDS, st.booleans())
    def test_matches_both_references(self, build, directed):
        self.check(*build, directed)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_IDS, _IDS), max_size=60), st.booleans())
    def test_csr_from_edges(self, edge_list, deduplicate):
        src, dst = arrays(edge_list)
        csr = CSRGraph.from_edges(src, dst, deduplicate=deduplicate)
        reference, edges = _lexsort_build(
            src, dst, np.empty(0, dtype=np.int64), True, deduplicate
        )
        got = (csr.node_ids, csr.out_indptr, csr.out_indices, csr.in_indptr, csr.in_indices)
        _assert_same_arrays(got, reference)
        assert csr.num_edges == (edges if deduplicate else len(edge_list))

    def test_key_overflow_guard_names_the_limit(self):
        # m * m must stay below 2**63 for every key row * m + col to fit.
        assert MAX_KEYED_NODES**2 < 2**63 <= (MAX_KEYED_NODES + 1) ** 2
        empty = np.empty(0, dtype=np.int64)
        assert len(edge_keys(empty, empty, MAX_KEYED_NODES)) == 0
        with pytest.raises(ConversionError, match=str(MAX_KEYED_NODES)):
            edge_keys(empty, empty, MAX_KEYED_NODES + 1)


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
