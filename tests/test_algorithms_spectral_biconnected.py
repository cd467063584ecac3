"""Tests for spectral analysis and biconnected components."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.connectivity import biconnected_components
from repro.algorithms.generators import planted_partition, ring_graph
from repro.algorithms.spectral import (
    algebraic_connectivity,
    fiedler_vector,
    laplacian_matrix,
    spectral_bisection,
)
from repro.exceptions import AlgorithmError

from tests.helpers import build_undirected, random_undirected, to_networkx


class TestLaplacian:
    def test_rows_sum_to_zero(self):
        graph = random_undirected(30, 90, seed=41)
        laplacian = laplacian_matrix(graph)
        sums = np.asarray(laplacian.sum(axis=1)).ravel()
        assert np.allclose(sums, 0.0)

    def test_diagonal_is_degree(self):
        graph = build_undirected([(1, 2), (2, 3)])
        laplacian = laplacian_matrix(graph).toarray()
        assert laplacian[1, 1] == 2.0  # dense index of node 2

    def test_empty_graph_rejected(self):
        from repro.graphs.undirected import UndirectedGraph

        with pytest.raises(AlgorithmError):
            laplacian_matrix(UndirectedGraph())


class TestFiedler:
    def test_connectivity_positive_for_connected(self):
        assert algebraic_connectivity(ring_graph(10)) > 1e-8

    def test_connectivity_zero_for_disconnected(self):
        graph = build_undirected([(1, 2), (3, 4)])
        assert algebraic_connectivity(graph) < 1e-6

    def test_matches_networkx_value(self):
        graph = random_undirected(25, 80, seed=42)
        reference = to_networkx(graph)
        reference.remove_edges_from(nx.selfloop_edges(reference))
        giant = max(nx.connected_components(reference), key=len)
        if len(giant) != graph.num_nodes:
            pytest.skip("sampled graph disconnected; eigenvalue compares differ")
        expected = nx.algebraic_connectivity(reference, tol=1e-10)
        assert algebraic_connectivity(graph) == pytest.approx(expected, rel=1e-4)

    def test_too_small_rejected(self):
        with pytest.raises(AlgorithmError):
            fiedler_vector(build_undirected([(1, 2)]))


class TestSpectralBisection:
    def test_recovers_two_cliques(self):
        graph = planted_partition(2, 12, p_in=0.9, p_out=0.01, seed=5)
        left, right = spectral_bisection(graph)
        blocks = ({n for n in graph.nodes() if n < 12}, {n for n in graph.nodes() if n >= 12})
        assert {frozenset(left), frozenset(right)} == {
            frozenset(blocks[0]), frozenset(blocks[1]),
        }

    def test_partition_covers_all_nodes(self):
        graph = random_undirected(30, 100, seed=43)
        left, right = spectral_bisection(graph)
        assert left | right == set(graph.nodes())
        assert not left & right


class TestBiconnectedComponents:
    def test_triangle_with_tail(self):
        graph = build_undirected([(1, 2), (2, 3), (3, 1), (3, 4)])
        components = biconnected_components(graph)
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 3]

    def test_bridge_is_singleton_component(self):
        graph = build_undirected([(1, 2)])
        assert biconnected_components(graph) == [{(1, 2)}]

    def test_every_edge_in_exactly_one_component(self):
        graph = random_undirected(40, 70, seed=44)
        components = biconnected_components(graph)
        all_edges = [e for c in components for e in c]
        assert len(all_edges) == len(set(all_edges))
        expected = {(u, v) for u, v in graph.edges() if u != v}
        assert set(all_edges) == expected

    def test_matches_networkx(self):
        graph = random_undirected(35, 60, seed=45)
        reference = to_networkx(graph)
        reference.remove_edges_from(nx.selfloop_edges(reference))
        expected = [
            frozenset((min(u, v), max(u, v)) for u, v in component)
            for component in nx.biconnected_component_edges(reference)
        ]
        ours = [frozenset(c) for c in biconnected_components(graph)]
        assert sorted(map(sorted, ours)) == sorted(map(sorted, expected))


class TestReportCommand:
    def test_report_prints_results(self, tmp_path, capsys):
        from repro.cli import main

        results = tmp_path / "results"
        results.mkdir()
        (results / "table9.txt").write_text("# fake table\nrow 1\n")
        assert main(["report", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "table9" in out and "row 1" in out

    def test_report_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--results", str(tmp_path / "nope")]) == 2


# ``import repro`` must work without scipy; only a spectral call needs it.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from repro import Ringo
with Ringo(workers=1) as ringo:
    print(ringo.NumFunctions())
    graph = ringo.GenErdosRenyi(10, 15, seed=1)
    try:
        ringo.GetSpectralBisection(graph)
    except ImportError as err:
        print(err)
"""


def test_scipy_is_needed_only_by_a_spectral_call():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        capture_output=True, text=True, check=True, env=env,
    )
    num_functions, message = result.stdout.splitlines()
    assert int(num_functions) > 200
    assert message.startswith("spectral analysis needs scipy, which is not installed")
