"""Differential oracles for the algorithm suite.

Each public algorithm is checked against a brute-force reference over a
small seeded catalog of generated graphs: every generator of
``repro.algorithms.generators`` in its directed and undirected form,
each with and without self-loops and isolated nodes, plus the empty
graphs. References may be slow (O(n^2) and worse); the catalog is small.

Rows so far: ``CSRGraph.undirected_projection`` (a Python pair set and
the row-wise ``np.unique`` build it replaced), the k-core family
(``core_numbers``, ``k_core``, ``degeneracy``) against repeated removal
of a minimum-degree node, and the triangle family (``triangle_counts``,
``total_triangles`` and the three clustering functions) against a
triple loop over every node triple.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.algorithms import cores, triangles
from repro.algorithms import generators as gen
from repro.algorithms.cores import core_numbers, degeneracy, k_core
from repro.algorithms.triangles import (
    average_clustering,
    clustering_coefficients,
    global_clustering,
    total_triangles,
    triangle_count_array,
    triangle_counts,
)
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.exceptions import AlgorithmError
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.multigraph import DirectedMultigraph
from repro.graphs.snapshot import csr_snapshot
from repro.graphs.undirected import UndirectedGraph
from repro.parallel.executor import WorkerPool

# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------


def _oriented(graph, seed: int) -> DirectedGraph:
    """A directed copy: each edge one way at random, a fifth both ways."""
    rng = np.random.default_rng(seed)
    result = DirectedGraph()
    for node in graph.nodes():
        result.add_node(node)
    for u, v in sorted(graph.edges()):
        roll = rng.random()
        if roll < 0.4:
            result.add_edge(u, v)
        elif roll < 0.8:
            result.add_edge(v, u)
        else:
            result.add_edge(u, v)
            result.add_edge(v, u)
    return result


def _rmat(directed: bool):
    src, dst = gen.rmat_edges(6, 240, seed=5)
    return graph_from_edge_arrays(src, dst, directed=directed)


_UNDIRECTED_MODELS = {
    "gnm": lambda: gen.erdos_renyi_gnm(40, 90, seed=1),
    "gnp": lambda: gen.erdos_renyi_gnp(35, 0.12, seed=2),
    "barabasi_albert": lambda: gen.barabasi_albert(45, 3, seed=3),
    "watts_strogatz": lambda: gen.watts_strogatz(40, 4, 0.2, seed=4),
    "configuration": lambda: gen.configuration_model(
        np.random.default_rng(6).integers(1, 7, size=40) * 2, seed=6
    ),
    "planted_partition": lambda: gen.planted_partition(4, 10, 0.6, 0.05, seed=7),
}

_DIRECTED_MODELS = {
    "gnm": lambda: gen.erdos_renyi_gnm(40, 150, directed=True, seed=1),
    "gnp": lambda: gen.erdos_renyi_gnp(35, 0.12, directed=True, seed=2),
}


def _build(model: str, directed: bool):
    if model == "rmat":
        return _rmat(directed)
    if directed and model in _DIRECTED_MODELS:
        return _DIRECTED_MODELS[model]()
    graph = _UNDIRECTED_MODELS[model]()
    return _oriented(graph, seed=len(model)) if directed else graph


def _decorate(graph):
    """Add self-loops on a few nodes and three isolated nodes."""
    nodes = sorted(graph.nodes())
    for node in nodes[::7]:
        graph.add_edge(node, node)
    top = max(nodes, default=0)
    for offset in (10, 11, 25):
        graph.add_node(top + offset)
    return graph


MODELS = sorted(set(_UNDIRECTED_MODELS) | {"rmat"})
CATALOG = [
    pytest.param(model, directed, decorated, id=f"{model}-{kind}{suffix}")
    for model in MODELS
    for directed, kind in ((False, "undirected"), (True, "directed"))
    for decorated, suffix in ((False, ""), (True, "-loops-isolated"))
]


def _catalog_graph(model: str, directed: bool, decorated: bool):
    graph = _build(model, directed)
    return _decorate(graph) if decorated else graph


def _empty(directed: bool):
    return DirectedGraph() if directed else UndirectedGraph()


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def _simple_adjacency(graph) -> dict[int, set[int]]:
    """Loop-free undirected adjacency sets over every node of ``graph``."""
    adjacency = {node: set() for node in graph.nodes()}
    for u, v in graph.edges():
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def brute_core_numbers(graph) -> dict[int, int]:
    """Repeatedly delete a minimum-degree node; its core number is the
    largest minimum degree seen so far."""
    adjacency = _simple_adjacency(graph)
    result: dict[int, int] = {}
    level = 0
    while adjacency:
        node = min(adjacency, key=lambda n: (len(adjacency[n]), n))
        level = max(level, len(adjacency[node]))
        result[node] = level
        for nbr in adjacency.pop(node):
            adjacency[nbr].discard(node)
    return result


def brute_triangles(graph) -> dict[int, int]:
    """Triangles through each node, by testing every node triple."""
    adjacency = _simple_adjacency(graph)
    counts = dict.fromkeys(adjacency, 0)
    for a, b, c in itertools.combinations(sorted(adjacency), 3):
        if b in adjacency[a] and c in adjacency[a] and c in adjacency[b]:
            for node in (a, b, c):
                counts[node] += 1
    return counts


def brute_clustering(graph) -> dict[int, float]:
    """Local clustering: triangles over neighbour pairs (0 below degree 2)."""
    adjacency = _simple_adjacency(graph)
    result = {}
    for node, count in brute_triangles(graph).items():
        degree = len(adjacency[node])
        pairs = degree * (degree - 1) / 2
        result[node] = count / pairs if pairs else 0.0
    return result


def brute_transitivity(graph) -> float:
    """Three times the triangles over the wedges (0 without wedges)."""
    adjacency = _simple_adjacency(graph)
    wedges = sum(len(n) * (len(n) - 1) // 2 for n in adjacency.values())
    return sum(brute_triangles(graph).values()) / wedges if wedges else 0.0


def legacy_projection(csr: CSRGraph) -> CSRGraph:
    """The row-wise ``np.unique(axis=0)`` projection build, kept as a
    reference for the key-sort build that replaced it."""
    src = csr.edge_sources()
    dst = csr.out_indices
    keep = src != dst
    src, dst = src[keep], dst[keep]
    pairs = np.unique(
        np.stack([np.concatenate([src, dst]), np.concatenate([dst, src])], axis=1),
        axis=0,
    )
    return CSRGraph._from_dense_edges(csr.node_ids, pairs[:, 0], pairs[:, 1])


_CSR_ARRAYS = ("node_ids", "out_indptr", "out_indices", "in_indptr", "in_indices")


def _assert_bitwise_equal(ours: CSRGraph, reference: CSRGraph) -> None:
    for name in _CSR_ARRAYS:
        got, want = getattr(ours, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def _pair_set(csr: CSRGraph) -> set[tuple[int, int]]:
    src = csr.edge_sources().tolist()
    dst = csr.out_indices.tolist()
    return {(u, v) for u, v in zip(src, dst)}


# ----------------------------------------------------------------------
# undirected_projection
# ----------------------------------------------------------------------


class TestUndirectedProjectionOracle:
    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_catalog(self, model, directed, decorated):
        csr = CSRGraph.from_graph(_catalog_graph(model, directed, decorated))
        self._check(csr)

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty(self, directed):
        self._check(CSRGraph.from_graph(_empty(directed)))

    def test_parallel_edges_and_loops_in_input(self):
        csr = CSRGraph.from_edges(
            [0, 0, 0, 1, 2, 2, 3], [1, 1, 0, 0, 2, 3, 2], deduplicate=False
        )
        self._check(csr)

    def test_isolated_nodes_only(self):
        graph = DirectedGraph()
        for node in (4, 9, 2):
            graph.add_node(node)
        self._check(CSRGraph.from_graph(graph))

    def _check(self, csr: CSRGraph) -> None:
        sym = csr.undirected_projection()
        _assert_bitwise_equal(sym, legacy_projection(csr))
        expected = {
            pair
            for u, v in _pair_set(csr)
            if u != v
            for pair in ((u, v), (v, u))
        }
        assert _pair_set(sym) == expected
        assert sym.undirected_projection() is sym
        assert csr.undirected_projection() is sym


# ----------------------------------------------------------------------
# The k-core family
# ----------------------------------------------------------------------


def _check_core_family(graph) -> None:
    expected = brute_core_numbers(graph)
    assert core_numbers(graph) == expected
    assert core_numbers(CSRGraph.from_graph(graph)) == expected
    assert degeneracy(graph) == max(expected.values(), default=0)
    adjacency = _simple_adjacency(graph)
    for k in range(1, max(expected.values(), default=0) + 2):
        sub = k_core(graph, k)
        keep = {node for node, core in expected.items() if core >= k}
        assert sub.is_directed == graph.is_directed
        assert set(sub.nodes()) == keep
        # Induced subgraph: the original edges (loops included) inside keep.
        assert set(sub.edges()) == {
            (u, v) for u, v in graph.edges() if u in keep and v in keep
        }
        # Every kept node has at least k kept (non-loop) neighbours.
        for node in keep:
            assert len(adjacency[node] & keep) >= k


class TestCoreOracle:
    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_catalog(self, model, directed, decorated):
        _check_core_family(_catalog_graph(model, directed, decorated))

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty(self, directed):
        graph = _empty(directed)
        assert core_numbers(graph) == {}
        assert degeneracy(graph) == 0
        assert k_core(graph, 1).num_nodes == 0

    @pytest.mark.parametrize("directed", [False, True])
    def test_isolated_and_loop_only(self, directed):
        graph = _empty(directed)
        for node in (3, 1, 8):
            graph.add_node(node)
        graph.add_edge(5, 5)
        assert core_numbers(graph) == {1: 0, 3: 0, 5: 0, 8: 0}
        _check_core_family(graph)

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 10**9])
    @pytest.mark.parametrize("model", ["barabasi_albert", "planted_partition", "rmat"])
    def test_every_drain_cutoff_agrees(self, monkeypatch, model, cutoff):
        """Cutoff 1 never drains, 10**9 always does; 2 and 3 hand stacks
        back to vectorised rounds at almost every cascade."""
        graph = _catalog_graph(model, directed=False, decorated=True)
        sym = CSRGraph.from_graph(graph).undirected_projection()
        monkeypatch.setattr(cores, "_DRAIN_BELOW", cutoff)
        got = dict(zip(sym.node_ids.tolist(), cores._core_number_array(sym).tolist()))
        assert got == brute_core_numbers(graph)

    def test_multigraph_rejected(self):
        graph = DirectedMultigraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 2)
        for call in (core_numbers, degeneracy, lambda g: k_core(g, 1)):
            with pytest.raises(AlgorithmError):
                call(graph)


def _chain_of_cliques(cliques: int, size: int) -> CSRGraph:
    """``cliques`` copies of K_size, consecutive copies joined by one edge."""
    src, dst = [], []
    for index in range(cliques):
        base = index * size
        for a in range(size):
            for b in range(a + 1, size):
                src.append(base + a)
                dst.append(base + b)
        if index:
            src.append(base - 1)
            dst.append(base)
    return CSRGraph.from_edges(src, dst)


class TestDeepPeelShapes:
    """Shapes whose peel is long and thin: one level, many tiny rounds."""

    def test_long_path_is_all_ones(self):
        count = 100_000
        nodes = np.arange(count - 1)
        csr = CSRGraph.from_edges(nodes, nodes + 1)
        result = cores._core_number_array(csr.undirected_projection())
        assert result.dtype == np.int64
        assert np.array_equal(result, np.ones(count, dtype=np.int64))

    def test_ring_is_all_twos(self):
        count = 20_000
        nodes = np.arange(count)
        csr = CSRGraph.from_edges(nodes, (nodes + 1) % count)
        result = cores._core_number_array(csr.undirected_projection())
        assert np.array_equal(result, np.full(count, 2))

    def test_star_is_all_ones(self):
        graph = gen.star_graph(5_000)
        assert set(core_numbers(graph).values()) == {1}
        assert degeneracy(graph) == 1
        assert k_core(graph, 2).num_nodes == 0

    def test_chain_of_k5s_is_all_fours(self):
        sym = _chain_of_cliques(2_000, 5).undirected_projection()
        assert np.array_equal(cores._core_number_array(sym), np.full(10_000, 4))

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(lambda: gen.ring_graph(50), id="ring"),
            pytest.param(lambda: gen.star_graph(40), id="star"),
            pytest.param(lambda: gen.balanced_tree(2, 6), id="tree"),
            pytest.param(lambda: gen.grid_graph(7, 9), id="grid"),
            pytest.param(lambda: gen.complete_graph(9), id="clique"),
        ],
    )
    def test_small_shapes_match_brute_force(self, graph):
        _check_core_family(graph())

    def test_small_chain_of_k5s_matches_brute_force(self):
        csr = _chain_of_cliques(12, 5)
        graph = UndirectedGraph()
        for u, v in zip(csr.edge_sources().tolist(), csr.out_indices.tolist()):
            graph.add_edge(int(csr.node_ids[u]), int(csr.node_ids[v]))
        _check_core_family(graph)


# ----------------------------------------------------------------------
# The triangle family
# ----------------------------------------------------------------------

# The default block cap and a cap of one wedge, which puts every node
# with a wedge in a block of its own; inline and on a three-worker pool.
SCHEDULES = [
    pytest.param(cap, width, id=f"cap{cap}-w{width}")
    for cap in (triangles.MAX_BLOCK_WEDGES, 1)
    for width in (1, 3)
]


def _check_triangle_family(graph, pool) -> None:
    """Every function of the family against the brute-force references.

    Each call but the last gets a fresh snapshot, so each one runs the
    kernel rather than reading the count another call left behind.
    """
    expected = brute_triangles(graph)
    local = brute_clustering(graph)

    def fresh() -> CSRGraph:
        return CSRGraph.from_graph(graph)

    sym = fresh().undirected_projection()
    kernel = triangle_count_array(sym, pool=pool)
    assert kernel.dtype == np.int64
    assert dict(zip(sym.node_ids.tolist(), kernel.tolist())) == expected
    assert sym._triangle_counts is None  # the kernel itself caches nothing
    assert triangle_counts(fresh(), pool=pool) == expected
    assert total_triangles(fresh(), pool=pool) == sum(expected.values()) // 3
    assert clustering_coefficients(fresh(), pool=pool) == local
    mean = sum(local.values()) / len(local) if local else 0.0
    assert average_clustering(fresh(), pool=pool) == pytest.approx(mean, rel=1e-12)
    assert global_clustering(fresh(), pool=pool) == pytest.approx(
        brute_transitivity(graph), rel=1e-12
    )
    # Through the graph itself: the incremental seed path and the
    # snapshot cache.
    assert triangle_counts(graph, pool=pool) == expected
    assert clustering_coefficients(graph, pool=pool) == local


def _closing_edge(graph) -> "tuple[int, int] | None":
    """Two non-adjacent nodes with a common neighbour, if any."""
    adjacency = _simple_adjacency(graph)
    for node in sorted(adjacency):
        for a, b in itertools.combinations(sorted(adjacency[node]), 2):
            if b not in adjacency[a]:
                return a, b
    return None


class TestTriangleOracle:
    @pytest.mark.parametrize("cap, width", SCHEDULES)
    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_catalog(self, monkeypatch, model, directed, decorated, cap, width):
        monkeypatch.setattr(triangles, "MAX_BLOCK_WEDGES", cap)
        graph = _catalog_graph(model, directed, decorated)
        with WorkerPool(width) as pool:
            _check_triangle_family(graph, pool)

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty(self, directed):
        graph = _empty(directed)
        assert triangle_counts(graph) == {}
        assert total_triangles(graph) == 0
        assert clustering_coefficients(graph) == {}
        assert average_clustering(graph) == 0.0
        assert global_clustering(graph) == 0.0
        assert triangle_count_array(CSRGraph.from_graph(graph)).shape == (0,)

    @pytest.mark.parametrize("directed", [False, True])
    def test_count_is_kept_per_snapshot(self, directed):
        graph = _catalog_graph("planted_partition", directed, decorated=True)
        clustering_coefficients(graph)
        csr = csr_snapshot(graph)
        counts = csr.triangle_counts()
        assert counts is csr.undirected_projection().triangle_counts()
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] = 0
        # A mutation gives a new snapshot, and with it a fresh count.
        before = dict(zip(csr.node_ids.tolist(), counts.tolist()))
        u, v = _closing_edge(graph)
        graph.add_edge(u, v)
        expected = brute_triangles(graph)
        assert expected != before
        assert csr_snapshot(graph) is not csr
        assert clustering_coefficients(graph) == brute_clustering(graph)
        fresh = csr_snapshot(graph).triangle_counts()
        assert fresh is not counts
        assert dict(zip(csr_snapshot(graph).node_ids.tolist(), fresh.tolist())) == expected
        assert triangle_counts(graph) == expected
        # The old snapshot's count is untouched.
        assert dict(zip(csr.node_ids.tolist(), counts.tolist())) == before
