"""Differential oracles for the algorithm suite.

Each public algorithm is checked against a brute-force reference over a
small seeded catalog of generated graphs: every generator of
``repro.algorithms.generators`` in its directed and undirected form,
each with and without self-loops and isolated nodes, plus the empty
graphs. References may be slow (O(n^2) and worse); the catalog is small.

Rows so far: ``CSRGraph.undirected_projection`` (a Python pair set and
the row-wise ``np.unique`` build it replaced), the k-core family
(``core_numbers``, ``k_core``, ``degeneracy``) against repeated removal
of a minimum-degree node, the triangle family (``triangle_counts``,
``total_triangles`` and the three clustering functions) against a
triple loop over every node triple (and ``triangle_count_array`` on one
graph wider than its dense core against a per-edge intersection of
neighbour sets), and the reachability family:
``strongly_connected_components`` against mutual reachability,
``bfs_levels`` against a queue BFS per direction, and unit-weight
``dijkstra`` against the same heap run with an explicit unit weight.
Derived graphs (``graphs.ops``, ``to_undirected``, ``to_simple``,
``condensation``, ``k_truss``, the spanning forests and the two
``Network`` builders) are checked on CSR-backed and materialised inputs
against node and edge sets built here, and must come out CSR-backed.
PageRank (``pagerank_array``, ``pagerank``, ``pagerank_weighted``) is
checked against ``np.linalg.solve`` of the dense linear system within
its certificate, d/(1-d)·tol in L1, on both solver paths; the power
path and ``iterations=`` runs are bitwise those of the power loop kept
here as ``legacy_pagerank_array``.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np
import pytest

from repro.algorithms import bfs, components, cores, mst, triangles, truss
from repro.algorithms import generators as gen
from repro.algorithms.bfs import UNREACHED, bfs_level_array, bfs_levels
from repro.algorithms.components import strongly_connected_components
from repro.algorithms.cores import core_numbers, degeneracy, k_core
from repro.algorithms.pagerank import pagerank, pagerank_array, pagerank_weighted
from repro.algorithms.sssp import dijkstra
from repro.algorithms.triangles import (
    average_clustering,
    clustering_coefficients,
    global_clustering,
    total_triangles,
    triangle_count_array,
    triangle_counts,
)
from repro.convert import attributes
from repro.convert.table_to_graph import graph_from_edge_arrays
from repro.core.engine import Ringo
from repro.exceptions import AlgorithmError, ConversionError, NodeNotFoundError
from repro.graphs import ops
from repro.graphs.csr import CSRGraph
from repro.graphs.directed import DirectedGraph
from repro.graphs.multigraph import DirectedMultigraph
from repro.graphs.network import Network
from repro.graphs.snapshot import csr_snapshot
from repro.graphs.undirected import UndirectedGraph
from repro.obs.metrics import registry as metrics_registry
from repro.parallel.executor import WorkerPool
from repro.tables.table import Table

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
        assert sub._csr is not None or not keep  # built sort-first
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

    def test_k_core_of_a_csr_graph_is_a_typed_error(self):
        csr = CSRGraph.from_edges([1, 2, 3], [2, 3, 1])
        assert degeneracy(csr) == 2
        with pytest.raises(AlgorithmError, match="DirectedGraph or UndirectedGraph"):
            k_core(csr, 1)


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

# The default block cap; 2^14, which cuts the graph wider than the core
# (226 092 wedges) into fourteen blocks; and a cap of one wedge, which
# puts every node with a wedge in a block of its own; inline and on a
# three-worker pool.
# Each with the default dense core, with none (every wedge closes by
# binary search) and with a core of the top eight ranks (both tests).
SCHEDULES = [
    pytest.param(
        cap,
        width,
        core,
        id=f"cap{cap}-w{width}" + ("" if core == triangles.CORE_RANKS else f"-core{core}"),
    )
    for cap in (triangles.MAX_BLOCK_WEDGES, 1 << 14, 1)
    for width in (1, 3)
    for core in (triangles.CORE_RANKS, 0, 8)
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


def edge_triangles(adjacency: dict[int, set[int]]) -> dict[int, int]:
    """Triangles through each node, by intersecting the neighbour sets
    at the two ends of every edge (for graphs too large for a triple loop)."""
    counts = dict.fromkeys(adjacency, 0)
    for a, neighbours in adjacency.items():
        for b in neighbours:
            if a < b:
                for c in neighbours & adjacency[b]:
                    if c > b:
                        for node in (a, b, c):
                            counts[node] += 1
    return counts


@pytest.fixture(scope="module")
def wider_than_the_core():
    """An R-MAT graph of scale 12 plus 400 disjoint K4s on fresh ids.

    It has more nodes than the default core, and the K4s' degree-3 nodes
    rank below it, so the default schedule closes triangles by both
    tests (the R-MAT alone closes every one of its triangles in the core).
    """
    src, dst = gen.rmat_edges(12, 30_000, seed=12)
    cliques = (1 << 12) + np.arange(4 * 400).reshape(-1, 4)
    pairs = np.array(list(itertools.combinations(range(4), 2)))
    src = np.concatenate([src, cliques[:, pairs[:, 0]].ravel()])
    dst = np.concatenate([dst, cliques[:, pairs[:, 1]].ravel()])
    graph = UndirectedGraph()
    for u, v in zip(src.tolist(), dst.tolist()):
        graph.add_edge(u, v)
    return graph, edge_triangles(_simple_adjacency(graph))


class TestTriangleOracle:
    @pytest.mark.parametrize("cap, width, core", SCHEDULES)
    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_catalog(self, monkeypatch, model, directed, decorated, cap, width, core):
        monkeypatch.setattr(triangles, "MAX_BLOCK_WEDGES", cap)
        monkeypatch.setattr(triangles, "CORE_RANKS", core)
        graph = _catalog_graph(model, directed, decorated)
        with WorkerPool(width) as pool:
            _check_triangle_family(graph, pool)

    def test_edge_reference_matches_the_triple_loop(self):
        graph = _catalog_graph("rmat", directed=False, decorated=True)
        assert edge_triangles(_simple_adjacency(graph)) == brute_triangles(graph)

    @pytest.mark.parametrize("cap, width, core", SCHEDULES)
    def test_wider_than_the_core(self, monkeypatch, wider_than_the_core, cap, width, core):
        graph, expected = wider_than_the_core
        sym = CSRGraph.from_graph(graph).undirected_projection()
        assert sym.num_nodes > triangles.CORE_RANKS
        monkeypatch.setattr(triangles, "MAX_BLOCK_WEDGES", cap)
        monkeypatch.setattr(triangles, "CORE_RANKS", core)
        with WorkerPool(width) as pool:
            kernel = triangle_count_array(sym, pool=pool)
        assert dict(zip(sym.node_ids.tolist(), kernel.tolist())) == expected

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


# ----------------------------------------------------------------------
# The reachability family: SCC, BFS levels, unit-weight SSSP
# ----------------------------------------------------------------------


def _arc_lists(graph) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Out- and in-neighbour lists; an undirected edge is an arc each way."""
    out: dict[int, list[int]] = {node: [] for node in graph.nodes()}
    into: dict[int, list[int]] = {node: [] for node in graph.nodes()}
    for u, v in graph.edges():
        out[u].append(v)
        into[v].append(u)
        if not graph.is_directed and u != v:
            out[v].append(u)
            into[u].append(v)
    return out, into


def brute_levels(adjacency: dict[int, list[int]], source: int) -> dict[int, int]:
    """Hop distance from ``source`` by a queue BFS over ``adjacency``."""
    levels = {source: 0}
    queue = collections.deque([source])
    while queue:
        node = queue.popleft()
        for nbr in adjacency[node]:
            if nbr not in levels:
                levels[nbr] = levels[node] + 1
                queue.append(nbr)
    return levels


def brute_scc_partition(graph) -> set[frozenset[int]]:
    """Each node's SCC: the nodes it reaches that also reach it."""
    out, into = _arc_lists(graph)
    return {
        frozenset(brute_levels(out, node).keys() & brute_levels(into, node).keys())
        for node in out
    }


def _partition(labels: dict[int, int]) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = collections.defaultdict(set)
    for node, label in labels.items():
        groups[label].add(node)
    return {frozenset(group) for group in groups.values()}


def legacy_bfs_level_array(csr: CSRGraph, source: int, direction: str) -> np.ndarray:
    """The per-level ``np.unique`` BFS, kept as a bitwise reference for
    the sort-dedupe kernel that replaced it."""
    levels = np.full(csr.num_nodes, UNREACHED, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        candidates = []
        if direction in ("out", "both"):
            candidates.append(bfs._frontier_expand(csr.out_indptr, csr.out_indices, frontier))
        if direction in ("in", "both"):
            candidates.append(bfs._frontier_expand(csr.in_indptr, csr.in_indices, frontier))
        merged = np.unique(np.concatenate(candidates))
        frontier = merged[levels[merged] == UNREACHED]
        levels[frontier] = level
    return levels


def _sources(graph) -> list[int]:
    """Five sources spread over the node order (isolated nodes included)."""
    nodes = sorted(graph.nodes())
    return nodes[:: max(1, len(nodes) // 4)]


def _check_scc(graph) -> None:
    expected = brute_scc_partition(graph)
    for subject in (graph, CSRGraph.from_graph(graph)):
        labels = strongly_connected_components(subject)
        assert set(labels) == set(graph.nodes())
        assert sorted(set(labels.values())) == list(range(len(expected)))
        assert _partition(labels) == expected


def _check_bfs(graph) -> None:
    out, into = _arc_lists(graph)
    both = {node: out[node] + into[node] for node in out}
    csr = CSRGraph.from_graph(graph)
    for source in _sources(graph):
        dense = csr.dense_of(source)
        for direction, adjacency in (("out", out), ("in", into), ("both", both)):
            assert bfs_levels(graph, source, direction) == brute_levels(adjacency, source)
            got = bfs_level_array(csr, dense, direction)
            want = legacy_bfs_level_array(csr, dense, direction)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _check_unit_sssp(graph) -> None:
    out, _ = _arc_lists(graph)
    for source in _sources(graph):
        got = dijkstra(graph, source)
        assert got == dijkstra(graph, source, weight=lambda u, v: 1.0)
        assert got == {
            node: float(level) for node, level in brute_levels(out, source).items()
        }
        assert all(type(distance) is float for distance in got.values())


def _hub_with_tails(spokes: int = 100, tails: int = 100) -> DirectedGraph:
    """A hub SCC with in- and out-tails and small SCCs beside it.

    Node 0 and ``spokes`` spokes form one SCC (each spoke both ways to
    the hub). Two-node in-tails feed spokes and two-node out-tails hang
    off them, so trimming peels ``2 * tails`` nodes a level for two
    levels. A 3-cycle the hub reaches and a 4-cycle that reaches the hub
    lie on one side of the hub's SCC each, so they are left after it.
    """
    graph = DirectedGraph()
    for spoke in range(1, spokes + 1):
        graph.add_edge(0, spoke)
        graph.add_edge(spoke, 0)
    base = 1_000
    for index in range(tails):
        spoke = 1 + index % spokes
        far, near = base + 4 * index, base + 4 * index + 1
        graph.add_edge(far, near)
        graph.add_edge(near, spoke)
        near, far = base + 4 * index + 2, base + 4 * index + 3
        graph.add_edge(spoke, near)
        graph.add_edge(near, far)
    for a, b in [(500, 501), (501, 502), (502, 500), (0, 500)]:
        graph.add_edge(a, b)
    for a, b in [(600, 601), (601, 602), (602, 603), (603, 600), (603, 1)]:
        graph.add_edge(a, b)
    return graph


def _disjoint_triangles(count: int) -> DirectedGraph:
    graph = DirectedGraph()
    for index in range(count):
        a, b, c = 3 * index, 3 * index + 1, 3 * index + 2
        for u, v in ((a, b), (b, c), (c, a)):
            graph.add_edge(u, v)
    return graph


def _loop_beside_cycle() -> DirectedGraph:
    """Node 5's only edge is a self-loop; 1 and 2 form a 2-cycle."""
    graph = DirectedGraph()
    for u, v in [(5, 5), (1, 2), (2, 1)]:
        graph.add_edge(u, v)
    return graph


SCC_SHAPES = [
    pytest.param(_hub_with_tails, id="hub-with-tails"),
    pytest.param(lambda: _disjoint_triangles(200), id="200-triangles"),
    pytest.param(_loop_beside_cycle, id="self-loop-only"),
]


class TestReachabilityOracle:
    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_scc_catalog(self, model, directed, decorated):
        _check_scc(_catalog_graph(model, directed, decorated))

    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_bfs_catalog(self, model, directed, decorated):
        _check_bfs(_catalog_graph(model, directed, decorated))

    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_unit_sssp_catalog(self, model, directed, decorated):
        _check_unit_sssp(_catalog_graph(model, directed, decorated))

    @pytest.mark.parametrize("shape", SCC_SHAPES)
    def test_scc_shapes(self, shape):
        graph = shape()
        _check_scc(graph)
        _check_bfs(graph)
        _check_unit_sssp(graph)

    @pytest.mark.parametrize("cutoff", [1, 10**9])
    @pytest.mark.parametrize(
        "shape",
        SCC_SHAPES
        + [
            pytest.param(
                lambda: _catalog_graph(model, True, True), id=f"{model}-directed"
            )
            for model in ("gnm", "planted_partition", "rmat")
        ],
    )
    def test_every_vector_cutoff_agrees(self, monkeypatch, shape, cutoff):
        """Cutoff 1 trims and runs forward–backward wherever it can;
        10**9 hands the whole graph to Tarjan."""
        monkeypatch.setattr(components, "_VECTOR_MIN", cutoff)
        _check_scc(shape())

    def test_hub_leaves_a_tarjan_remainder(self, monkeypatch):
        """At the default cutoff both vectorised steps run on the hub
        shape, and Tarjan sees only the 3-cycle and the 4-cycle."""
        sizes = []
        tarjan = components._tarjan_labels

        def spy(indptr, indices):
            sizes.append(len(indptr) - 1)
            return tarjan(indptr, indices)

        monkeypatch.setattr(components, "_tarjan_labels", spy)
        _check_scc(_hub_with_tails())
        assert sizes == [7, 7]  # once per subject: the graph and its CSR

    def test_larger_rmat_matches_tarjan(self):
        """An R-MAT big enough for the default cutoff to vectorise."""
        src, dst = gen.rmat_edges(11, 20_000, seed=5)
        csr = CSRGraph.from_graph(graph_from_edge_arrays(src, dst, directed=True))
        labels = components.scc_label_array(csr)
        tarjan = components._tarjan_labels(csr.out_indptr, csr.out_indices)
        pairs = set(zip(labels.tolist(), tarjan.tolist()))
        assert len(pairs) == len(set(labels.tolist())) == len(set(tarjan.tolist()))

    @pytest.mark.parametrize("cutoff", [1, 10**9])
    def test_labels_follow_smallest_node(self, monkeypatch, cutoff):
        monkeypatch.setattr(components, "_VECTOR_MIN", cutoff)
        labels = strongly_connected_components(_hub_with_tails())
        smallest: dict[int, int] = {}
        for node in sorted(labels):
            smallest.setdefault(labels[node], node)
        assert sorted(smallest, key=smallest.get) == list(range(len(smallest)))

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty(self, directed):
        graph = _empty(directed)
        assert strongly_connected_components(graph) == {}
        for call in (bfs_levels, dijkstra):
            with pytest.raises(NodeNotFoundError):
                call(graph, 1)


# ----------------------------------------------------------------------
# Derived graphs: every function that builds a new graph from another
# ----------------------------------------------------------------------


def _edge_set(graph) -> set[tuple[int, int]]:
    """Directed arcs, or undirected edges as ``(min, max)`` pairs."""
    if graph.is_directed:
        return set(graph.edges())
    return {(min(u, v), max(u, v)) for u, v in graph.edges()}


def _check_derived(result, nodes, edges, directed: bool) -> None:
    """Node set, edge set and count, ascending node order, CSR backing."""
    assert result.is_directed == directed
    assert list(result.nodes()) == sorted(nodes)
    assert _edge_set(result) == set(edges)
    assert result.num_edges == len(set(edges))
    # Bulk-built: only an empty result has no backing to hold.
    assert result._csr is not None or not nodes


def _backed(graph):
    return graph_from_edge_arrays(
        *graph.edge_arrays(), directed=graph.is_directed, nodes=graph.node_array()
    )


def _materialised(graph):
    """The same graph, its hash table built by one ``add_edge``."""
    sources, targets = graph.edge_arrays()
    result = graph_from_edge_arrays(
        sources[1:], targets[1:], directed=graph.is_directed, nodes=graph.node_array()
    )
    result.add_edge(int(sources[0]), int(targets[0]))
    assert result._csr is None
    return result


INPUT_FORMS = {"backed": _backed, "materialised": _materialised}


def _other(graph):
    """A second graph of the same kind overlapping ``graph`` in part:
    every third node, every other edge reversed, and a new node."""
    nodes = sorted(graph.nodes())
    extra = max(nodes, default=0) + 100
    other = _empty(graph.is_directed)
    for node in nodes[::3]:
        other.add_node(node)
    for u, v in sorted(_edge_set(graph))[::2]:
        other.add_edge(v, u)
    other.add_edge(extra, nodes[0] if nodes else extra)
    return other


def _induced(graph, keep) -> set[tuple[int, int]]:
    return {(u, v) for u, v in _edge_set(graph) if u in keep and v in keep}


def brute_truss(graph, k: int) -> set[tuple[int, int]]:
    """Undirected pairs of the k-truss: drop loop-free edges with fewer
    than k-2 common neighbours among the kept edges until none is left."""
    kept = {(min(u, v), max(u, v)) for u, v in graph.edges() if u != v}
    while True:
        adjacency = collections.defaultdict(set)
        for u, v in kept:
            adjacency[u].add(v)
            adjacency[v].add(u)
        weak = {(u, v) for u, v in kept if len(adjacency[u] & adjacency[v]) < k - 2}
        if not weak:
            return kept
        kept -= weak


def _pair_weights(graph) -> dict[tuple[int, int], float]:
    """Distinct seeded weights per undirected pair, so the MSF is unique."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in graph.edges()})
    order = np.random.default_rng(len(pairs)).permutation(len(pairs))
    return {pair: float(rank) for pair, rank in zip(pairs, order.tolist())}


def brute_msf(weights: dict[tuple[int, int], float]) -> set[tuple[int, int]]:
    """Cycle property: an edge is in the (unique) MSF unless its ends are
    joined by a path of strictly lighter edges."""
    forest = set()
    for (u, v), weight in weights.items():
        if u == v:
            continue
        lighter = {pair for pair, other in weights.items() if other < weight}
        adjacency = collections.defaultdict(list)
        for a, b in lighter:
            adjacency[a].append(b)
            adjacency[b].append(a)
        if v not in brute_levels(adjacency, u):
            forest.add((u, v))
    return forest


class TestDerivedGraphOracle:
    """Each derived graph against a reference built here by brute force,
    on CSR-backed and materialised inputs of the whole catalog."""

    @pytest.mark.parametrize("form", sorted(INPUT_FORMS))
    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_catalog(self, model, directed, decorated, form):
        graph = INPUT_FORMS[form](_catalog_graph(model, directed, decorated))
        self._check_all(graph)

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty(self, directed):
        self._check_all(_empty(directed))

    @pytest.mark.parametrize("directed", [False, True])
    def test_isolated_nodes_only(self, directed):
        graph = _empty(directed)
        for node in (7, 2, 40):
            graph.add_node(node)
        self._check_all(graph)

    @pytest.mark.parametrize("directed", [False, True])
    def test_self_loops_and_ids_past_two_to_the_32(self, directed):
        big = 2**32
        graph = _empty(directed)
        for u, v in [(0, big), (big, big), (big + 1, 0), (1, 1), (3 * big, big + 1)]:
            graph.add_edge(u, v)
        graph.add_node(5 * big)
        self._check_all(graph)
        # (0, 2**32) and (1, 0) share the key row * 2**32 + col.
        left = _empty(directed)
        left.add_edge(0, big)
        right = _empty(directed)
        right.add_edge(1, 0)
        _check_derived(ops.intersect_graphs(left, right), {0}, set(), directed)
        _check_derived(
            ops.merge_graphs(left, right),
            {0, 1, big},
            _edge_set(left) | _edge_set(right),
            directed,
        )

    @pytest.mark.parametrize("directed", [False, True])
    def test_subgraph_absent_and_duplicate_ids(self, directed):
        graph = _catalog_graph("gnm", directed, decorated=True)
        nodes = sorted(graph.nodes())
        wanted = nodes[:10] + nodes[:10] + [-1, max(nodes) + 1, 2**40]
        keep = set(nodes[:10])
        _check_derived(ops.subgraph(graph, wanted), keep, _induced(graph, keep), directed)
        _check_derived(ops.subgraph(graph, []), set(), set(), directed)

    def _check_all(self, graph) -> None:
        directed = graph.is_directed
        nodes = set(graph.nodes())
        edges = _edge_set(graph)
        ordered = sorted(nodes)

        keep = set(ordered[::2])
        _check_derived(ops.subgraph(graph, ordered[::2]), keep, _induced(graph, keep), directed)

        if ordered:
            center = ordered[len(ordered) // 2]
            ego = {center} | {v for u, v in edges if u == center}
            ego |= {u for u, v in edges if v == center}
            _check_derived(
                ops.ego_network(graph, center), ego, _induced(graph, ego), directed
            )

        high = {node for node in nodes if graph.degree(node) >= 3}
        _check_derived(ops.filter_by_degree(graph, 3), high, _induced(graph, high), directed)

        dense, mapping = ops.renumber(graph)
        assert mapping == {old: new for new, old in enumerate(ordered)}
        renamed = {(mapping[u], mapping[v]) for u, v in edges}
        if not directed:
            renamed = {(min(u, v), max(u, v)) for u, v in renamed}
        _check_derived(dense, set(range(len(ordered))), renamed, directed)

        other = _other(graph)
        other_nodes = set(other.nodes())
        _check_derived(
            ops.merge_graphs(graph, other),
            nodes | other_nodes,
            edges | _edge_set(other),
            directed,
        )
        _check_derived(
            ops.intersect_graphs(graph, other),
            nodes & other_nodes,
            edges & _edge_set(other),
            directed,
        )

        multi = DirectedMultigraph()
        for node in ordered:
            multi.add_node(node)
        arcs = sorted(graph.edges())
        for u, v in arcs + arcs[::2]:
            multi.add_edge(u, v)
        _check_derived(multi.to_simple(), nodes, set(arcs), True)

        if directed:
            _check_derived(
                graph.to_undirected(),
                nodes,
                {(min(u, v), max(u, v)) for u, v in edges},
                False,
            )
            labels = strongly_connected_components(graph)
            _check_derived(
                components.condensation(graph),
                set(labels.values()),
                {(labels[u], labels[v]) for u, v in edges if labels[u] != labels[v]},
                True,
            )

        for k in (3, 4):
            pairs = brute_truss(graph, k)
            truss_nodes = {node for pair in pairs for node in pair}
            truss_edges = {
                (u, v) for u, v in edges if u != v and (min(u, v), max(u, v)) in pairs
            }
            _check_derived(truss.k_truss(graph, k), truss_nodes, truss_edges, directed)

        weights = _pair_weights(graph)
        expected = brute_msf(weights)

        def weight(u, v):
            return weights[(min(u, v), max(u, v))]

        forest, total = mst.minimum_spanning_forest(graph, weight=weight)
        _check_derived(forest, nodes, expected, False)
        assert total == sum(weights[pair] for pair in expected)
        listed = [(u, v, w) for (u, v), w in weights.items()]
        forest, total = mst.spanning_forest_from_edges(listed)
        _check_derived(
            forest, {node for pair in weights for node in pair}, expected, False
        )
        assert total == sum(weights[pair] for pair in expected)

        sources, targets = graph.edge_arrays()
        table = Table.from_columns({"a": sources, "b": targets})
        extra = max(ordered, default=0) + 1
        keys = ordered[::4] + [extra]
        node_table = Table.from_columns(
            {"id": keys, "label": [f"n{key}" for key in keys]}
        )
        net = attributes.network_from_tables(
            table, "a", "b", node_table, node_key="id"
        )
        arcs = set(zip(sources.tolist(), targets.tolist()))
        endpoints = {node for arc in arcs for node in arc}
        _check_derived(net, endpoints | set(keys), arcs, True)
        assert isinstance(net, Network)
        assert {key: net.node_attr(key, "label") for key in keys} == {
            key: f"n{key}" for key in keys
        }

        if len(sources):
            # Each arc as 1-3 rows, shuffled; weight_col sums are exact.
            repeats = 1 + (sources + targets) % 3
            shuffle = np.random.default_rng(9).permutation(int(repeats.sum()))
            rows = Table.from_columns(
                {
                    "a": np.repeat(sources, repeats)[shuffle],
                    "b": np.repeat(targets, repeats)[shuffle],
                    "w": np.repeat(sources * 0.5 + 1.0, repeats)[shuffle],
                }
            )
            counted = attributes.weighted_network_from_edges(rows, "a", "b")
            summed = attributes.weighted_network_from_edges(
                rows, "a", "b", weight_col="w"
            )
            for net in (counted, summed):
                _check_derived(net, endpoints, arcs, True)
            for u, v, repeat in zip(sources.tolist(), targets.tolist(), repeats.tolist()):
                assert counted.edge_attr(u, v, "weight") == float(repeat)
                assert summed.edge_attr(u, v, "weight") == repeat * (u * 0.5 + 1.0)

    @pytest.mark.parametrize("column", ["a", "b"])
    def test_negative_id_raises_conversion_error(self, column):
        values = {"a": [1, 2], "b": [2, 3]}
        values[column] = [1, -4]
        table = Table.from_columns(values)
        with pytest.raises(ConversionError):
            attributes.network_from_tables(table, "a", "b")
        with pytest.raises(ConversionError):
            attributes.weighted_network_from_edges(table, "a", "b")
        with Ringo() as session, pytest.raises(ConversionError):
            session.ToWeightedNetwork(table, "a", "b")

    def test_negative_node_table_id_raises_conversion_error(self):
        edges = Table.from_columns({"a": [1], "b": [2]})
        nodes = Table.from_columns({"id": [1, -2], "x": [5, 6]})
        with pytest.raises(ConversionError):
            attributes.network_from_tables(edges, "a", "b", nodes, node_key="id")


# ----------------------------------------------------------------------
# PageRank: the dense linear solve
# ----------------------------------------------------------------------

DAMPING, TOLERANCE = 0.85, 1e-9
#: The certificate every converged answer carries: a final sweep whose L1
#: step is below ``TOLERANCE`` is within d/(1-d)·tol of the fixed point.
PAGERANK_BOUND = DAMPING / (1.0 - DAMPING) * TOLERANCE


def exact_pagerank(csr, personalize=None, weights=None) -> np.ndarray:
    """The fixed point by ``np.linalg.solve`` of ``(I - M)·x = (1-d)·v``.

    ``M = d·P``, where ``P[i, j]`` is the share of ``j``'s rank that
    reaches ``i``: ``w(j, i) / Σw(j, ·)`` along an edge, ``v[i]`` when
    ``j``'s out-weights sum to zero (dangling).
    """
    count = csr.num_nodes
    sources, targets = csr.edge_sources(), csr.out_indices
    weights = np.ones(len(sources)) if weights is None else weights
    totals = np.bincount(sources, weights=weights, minlength=count)
    teleport = np.full(count, 1.0 / count) if personalize is None else personalize
    shares = np.zeros((count, count))
    np.add.at(shares, (targets, sources), weights / np.where(totals > 0, totals, 1.0)[sources])
    shares[:, totals <= 0] += teleport[:, None]
    return np.linalg.solve(
        np.eye(count) - DAMPING * shares, (1.0 - DAMPING) * teleport
    )


def legacy_pagerank_array(
    csr, max_iterations=100, iterations=None, personalize_dense=None, start=None
) -> np.ndarray:
    """The power loop ``pagerank_array`` ran before it owned a workspace and
    could hand slow graphs to GMRES: a sweep of fresh temporaries."""
    count = csr.num_nodes
    out_deg = csr.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    edge_src = csr.edge_sources()
    edge_dst = csr.out_indices
    base = (
        personalize_dense
        if personalize_dense is not None
        else np.full(count, 1.0 / count, dtype=np.float64)
    )
    ranks = base.copy() if start is None else np.ascontiguousarray(start, dtype=np.float64)
    safe_deg = np.where(dangling, 1.0, out_deg)
    rounds = iterations if iterations is not None else max_iterations
    for _ in range(rounds):
        share = ranks / safe_deg
        spread = np.bincount(edge_dst, weights=share[edge_src], minlength=count)
        dangling_mass = float(ranks[dangling].sum())
        new_ranks = (1.0 - DAMPING) * base + DAMPING * (spread + dangling_mass * base)
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if iterations is None and delta < TOLERANCE:
            break
    return ranks


def _solver_counts() -> dict[str, int]:
    snapshot = metrics_registry().snapshot()
    return {
        name: snapshot.get(f"alg.pagerank.{name}", {}).get("value", 0)
        for name in ("power_solves", "krylov_solves", "matvecs")
    }


def _counted(fn, *args, **kwargs):
    """``fn``'s result and the solver counters it moved."""
    before = _solver_counts()
    result = fn(*args, **kwargs)
    after = _solver_counts()
    return result, {name: after[name] - before[name] for name in after}


def _question_answer_edges(seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """A small asker → answerer graph: 60 users, 90 questions, and five
    experts who answer 60 % of them. Like the Figure 2 tag graphs, its
    power sweeps contract by ~0.7, which sends it down the Krylov branch."""
    rng = np.random.default_rng(seed)
    askers = rng.integers(0, 60, 90)
    answerers = np.where(
        rng.random(90) < 0.6, rng.integers(0, 5, 90), rng.integers(0, 60, 90)
    )
    keep = askers != answerers
    return askers[keep], answerers[keep]


def _weighted_network(graph, seed: int) -> tuple[Network, CSRGraph, np.ndarray]:
    """``graph`` as a Network with a weight in [0, 2) on every arc (some 0),
    its snapshot, and the weights in the snapshot's edge order."""
    rng = np.random.default_rng(seed)
    net = Network()
    for node in graph.nodes():
        net.add_node(node)
    for u, v in sorted(graph.edges()):
        net.add_edge(u, v)
        if not graph.is_directed and u != v:
            net.add_edge(v, u)
    csr = csr_snapshot(net)
    weights = np.where(rng.random(csr.num_edges) < 0.1, 0.0, 2 * rng.random(csr.num_edges))
    ids = csr.node_ids
    for s, d, w in zip(csr.edge_sources().tolist(), csr.out_indices.tolist(), weights):
        net.set_edge_attr(int(ids[s]), int(ids[d]), "w", float(w))
    return net, csr_snapshot(net), weights


def _l1(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).sum())


class TestPageRankOracle:
    solve = staticmethod(pagerank_array)

    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_catalog_within_certificate(self, model, directed, decorated):
        graph = _catalog_graph(model, directed, decorated)
        csr = csr_snapshot(graph)
        ranks, moved = _counted(self.solve, csr)
        assert _l1(ranks, exact_pagerank(csr)) <= PAGERANK_BOUND
        assert moved["power_solves"] + moved["krylov_solves"] == 1
        assert 1 <= moved["matvecs"] <= 100
        if moved["power_solves"]:
            # Fast contraction never leaves the power path: the old loop's
            # answer bit for bit.
            assert ranks.tobytes() == legacy_pagerank_array(csr).tobytes()
        public = pagerank(graph)
        assert public.node_ids.tolist() == csr.node_ids.tolist()
        assert _l1(public.value_array, exact_pagerank(csr)) <= PAGERANK_BOUND

    @pytest.mark.parametrize("model, directed, decorated", CATALOG)
    def test_catalog_fixed_iterations_are_the_power_loop(self, model, directed, decorated):
        csr = csr_snapshot(_catalog_graph(model, directed, decorated))
        ranks, moved = _counted(self.solve, csr, iterations=10)
        assert ranks.tobytes() == legacy_pagerank_array(csr, iterations=10).tobytes()
        assert moved == {"power_solves": 1, "krylov_solves": 0, "matvecs": 10}

    @pytest.mark.parametrize(
        "model, directed, decorated",
        [param for param in CATALOG if param.values[1]],
    )
    def test_weighted_within_certificate(self, model, directed, decorated):
        net, csr, weights = _weighted_network(
            _catalog_graph(model, directed, decorated), seed=len(model)
        )
        ranks = pagerank_weighted(net, "w")
        assert ranks.node_ids.tolist() == csr.node_ids.tolist()
        exact = exact_pagerank(csr, weights=weights)
        assert _l1(ranks.value_array, exact) <= PAGERANK_BOUND

    def test_question_answer_graph_takes_krylov_and_counts_it(self):
        sources, targets = _question_answer_edges()
        with Ringo(workers=1) as session:
            table = session.TableFromColumns({"a": sources, "b": targets})
            graph = session.ToGraph(table, "a", "b")
            before = session.health()["obs"]["metrics"]
            ranks = session.GetPageRank(graph)
            after = session.health()["obs"]["metrics"]
        moved = {
            name: after[f"alg.pagerank.{name}"]["value"]
            - before.get(f"alg.pagerank.{name}", {}).get("value", 0)
            for name in ("power_solves", "krylov_solves", "matvecs")
        }
        assert moved["krylov_solves"] == 1 and moved["power_solves"] == 0
        # Four sweeps to judge the contraction, then Krylov steps and the
        # certifying sweep: far fewer than the power loop's sweeps.
        csr = csr_snapshot(graph)
        assert 5 <= moved["matvecs"] < 30
        exact = exact_pagerank(csr)
        assert _l1(ranks.value_array, exact) <= PAGERANK_BOUND
        assert _l1(legacy_pagerank_array(csr), exact) <= PAGERANK_BOUND
        assert np.all(np.isfinite(ranks.value_array))

    def test_personalize(self):
        for graph in (
            graph_from_edge_arrays(*_question_answer_edges(), directed=True),
            _catalog_graph("barabasi_albert", True, True),
        ):
            csr = csr_snapshot(graph)
            ids = csr.node_ids.tolist()
            weights = {ids[0]: 3.0, ids[len(ids) // 2]: 1.0, ids[-1]: 0.0}
            teleport = np.zeros(csr.num_nodes)
            for node, weight in weights.items():
                teleport[ids.index(node)] = weight
            teleport /= teleport.sum()
            ranks = pagerank(graph, personalize=weights)
            assert _l1(ranks.value_array, exact_pagerank(csr, personalize=teleport)) <= PAGERANK_BOUND
            fixed = pagerank(graph, personalize=weights, iterations=10)
            assert fixed.value_array.tobytes() == legacy_pagerank_array(
                csr, iterations=10, personalize_dense=teleport
            ).tobytes()

    @pytest.mark.parametrize("krylov", [False, True], ids=["power", "krylov"])
    def test_start_is_the_initial_guess(self, krylov):
        graph = (
            graph_from_edge_arrays(*_question_answer_edges(), directed=True)
            if krylov
            else _catalog_graph("rmat", True, False)
        )
        csr = csr_snapshot(graph)
        exact = exact_pagerank(csr)
        rng = np.random.default_rng(3)
        start = rng.random(csr.num_nodes)
        start /= start.sum()
        kept = start.copy()
        ranks = self.solve(csr, start=start)
        assert np.array_equal(start, kept)  # the guess is read, not written
        assert _l1(ranks, exact) <= PAGERANK_BOUND
        # Starting at the answer certifies it with one sweep.
        warm, moved = _counted(self.solve, csr, start=ranks)
        assert moved["matvecs"] == 1 and _l1(warm, exact) <= PAGERANK_BOUND

    @pytest.mark.parametrize("count", [1, 5])
    def test_all_dangling_and_single_node(self, count):
        graph = DirectedGraph()
        for node in range(count):
            graph.add_node(node * 3)
        csr = csr_snapshot(graph)
        ranks, moved = _counted(self.solve, csr)
        assert np.allclose(ranks, 1.0 / count, rtol=0, atol=1e-15)
        assert moved == {"power_solves": 1, "krylov_solves": 0, "matvecs": 1}
        assert _l1(pagerank(graph).value_array, exact_pagerank(csr)) <= PAGERANK_BOUND

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty_graph(self, directed):
        graph = _empty(directed)
        assert pagerank(graph) == {}
        assert self.solve(csr_snapshot(graph)).shape == (0,)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_max_iterations_caps_the_matvecs(self, budget):
        for graph in (
            graph_from_edge_arrays(*_question_answer_edges(), directed=True),
            _catalog_graph("gnm", True, False),
        ):
            csr = csr_snapshot(graph)
            ranks, moved = _counted(self.solve, csr, max_iterations=budget)
            assert moved == {"power_solves": 1, "krylov_solves": 0, "matvecs": budget}
            assert ranks.tobytes() == legacy_pagerank_array(csr, max_iterations=budget).tobytes()

    def test_krylov_budget_returns_the_last_sweep(self):
        csr = csr_snapshot(graph_from_edge_arrays(*_question_answer_edges(), directed=True))
        full, moved = _counted(self.solve, csr)
        for budget in range(4, moved["matvecs"] + 2):
            ranks, capped = _counted(self.solve, csr, max_iterations=budget)
            assert capped["matvecs"] <= budget
            assert np.all(np.isfinite(ranks)) and abs(ranks.sum() - 1.0) < 1e-12
        assert ranks.tobytes() == full.tobytes()
