"""Link-prediction scores (SNAP's neighbourhood-similarity family).

Classic local similarity indices over the undirected projection:
common neighbours, Jaccard, Adamic–Adar, preferential attachment, and
resource allocation. Each scorer takes explicit node pairs (the usual
evaluation protocol) or generates candidate pairs at distance two.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.algorithms.triangles import _undirected_csr
from repro.exceptions import AlgorithmError
from repro.graphs.csr import CSRGraph


class _Projection:
    """Shared undirected-projection context for the scorers."""

    def __init__(self, graph) -> None:
        self.csr: CSRGraph = _undirected_csr(graph)
        self.degrees = self.csr.out_degrees()

    def common(self, du: int, dv: int) -> np.ndarray:
        return np.intersect1d(
            self.csr.out_neighbors(du), self.csr.out_neighbors(dv), assume_unique=True
        )


def _score_pairs(graph, pairs, kernel) -> dict[tuple[int, int], float]:
    projection = _Projection(graph)
    pair_list = list(pairs)
    if not pair_list:
        return {}
    # One vectorised dense-id translation for all pairs instead of two
    # binary searches per pair.
    endpoints = np.asarray(pair_list, dtype=np.int64)
    dense_u = projection.csr.dense_of_array(endpoints[:, 0])
    dense_v = projection.csr.dense_of_array(endpoints[:, 1])
    scores: dict[tuple[int, int], float] = {}
    for (u, v), du, dv in zip(pair_list, dense_u.tolist(), dense_v.tolist()):
        scores[(u, v)] = kernel(projection, du, dv)
    return scores


def common_neighbors(graph, pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Number of shared neighbours per pair.

    >>> from repro.graphs.undirected import UndirectedGraph
    >>> g = UndirectedGraph()
    >>> for u, v in [(1, 2), (1, 3), (4, 2), (4, 3)]:
    ...     _ = g.add_edge(u, v)
    >>> common_neighbors(g, [(1, 4)])[(1, 4)]
    2.0
    """
    return _score_pairs(
        graph, pairs, lambda p, du, dv: float(len(p.common(du, dv)))
    )


def jaccard_coefficient(graph, pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """|N(u) ∩ N(v)| / |N(u) ∪ N(v)| per pair (0 when both isolated)."""

    def kernel(p: _Projection, du: int, dv: int) -> float:
        shared = len(p.common(du, dv))
        union = int(p.degrees[du]) + int(p.degrees[dv]) - shared
        return shared / union if union else 0.0

    return _score_pairs(graph, pairs, kernel)


def adamic_adar(graph, pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Sum over shared neighbours of ``1 / log(degree)``.

    Shared neighbours of degree 1 cannot occur (they touch both
    endpoints); degree-1 guards exist anyway for self-loop corner cases.
    """

    def kernel(p: _Projection, du: int, dv: int) -> float:
        total = 0.0
        for shared in p.common(du, dv).tolist():
            degree = int(p.degrees[shared])
            if degree > 1:
                total += 1.0 / math.log(degree)
        return total

    return _score_pairs(graph, pairs, kernel)


def resource_allocation(graph, pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Sum over shared neighbours of ``1 / degree``."""

    def kernel(p: _Projection, du: int, dv: int) -> float:
        total = 0.0
        for shared in p.common(du, dv).tolist():
            degree = int(p.degrees[shared])
            if degree > 0:
                total += 1.0 / degree
        return total

    return _score_pairs(graph, pairs, kernel)


def preferential_attachment(graph, pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """``degree(u) * degree(v)`` per pair."""
    return _score_pairs(
        graph, pairs, lambda p, du, dv: float(p.degrees[du]) * float(p.degrees[dv])
    )


def candidate_pairs(graph, max_pairs: int | None = None) -> Iterator[tuple[int, int]]:
    """Non-adjacent node pairs at distance exactly two (original ids).

    The standard link-prediction candidate set: pairs that share at
    least one neighbour but are not yet connected. Yields each unordered
    pair once, ``u < v`` in original-id order.
    """
    if max_pairs is not None and max_pairs <= 0:
        raise AlgorithmError("max_pairs must be positive when given")
    projection = _Projection(graph)
    csr = projection.csr
    emitted = 0
    seen: set[tuple[int, int]] = set()
    for du in range(csr.num_nodes):
        first_hop = csr.out_neighbors(du)
        for mid in first_hop.tolist():
            for dv in csr.out_neighbors(mid).tolist():
                if dv <= du:
                    continue
                key = (du, dv)
                if key in seen:
                    continue
                seen.add(key)
                # Exclude already-adjacent pairs.
                nbrs = csr.out_neighbors(du)
                position = int(np.searchsorted(nbrs, dv))
                if position < len(nbrs) and nbrs[position] == dv:
                    continue
                u = int(csr.node_ids[du])
                v = int(csr.node_ids[dv])
                yield (u, v) if u < v else (v, u)
                emitted += 1
                if max_pairs is not None and emitted >= max_pairs:
                    return


def top_predicted_links(
    graph, scorer=jaccard_coefficient, k: int = 10, max_candidates: int = 100_000
) -> list[tuple[tuple[int, int], float]]:
    """The ``k`` highest-scoring candidate links under ``scorer``."""
    pairs = list(candidate_pairs(graph, max_pairs=max_candidates))
    scores = scorer(graph, pairs)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
