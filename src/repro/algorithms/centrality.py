"""Node centrality measures (§4.1: "PageRank, Hits, and various other
node centrality measures").

Degree, closeness (exact or sampled), betweenness (Brandes, exact or
pivot-sampled), and eigenvector centrality.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import UNREACHED, bfs_level_array
from repro.algorithms.common import NodeValues, as_csr
from repro.exceptions import AlgorithmError
from repro.util.validation import check_positive


def degree_centrality(graph, mode: str = "total") -> NodeValues:
    """Degree / (n - 1) per node; ``mode`` is ``in``, ``out``, or ``total``.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(1, 3)
    >>> degree_centrality(g, "out")[1]
    1.0
    """
    csr = as_csr(graph)
    if mode == "in":
        degrees = csr.in_degrees()
    elif mode == "out":
        degrees = csr.out_degrees()
    elif mode == "total":
        degrees = csr.in_degrees() + csr.out_degrees()
    else:
        raise AlgorithmError(f"unknown degree mode {mode!r}")
    scale = 1.0 / max(csr.num_nodes - 1, 1)
    return NodeValues(csr.node_ids, degrees.astype(np.float64) * scale)


def closeness_centrality(
    graph, samples: int | None = None, seed: int = 0
) -> NodeValues:
    """Closeness per node (Wasserman–Faust component-size correction).

    Exact when ``samples`` is None: one BFS per node. With ``samples``,
    distances are estimated from that many random BFS sources — the
    standard approximation for large graphs.
    """
    csr = as_csr(graph)
    count = csr.num_nodes
    if count == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    if samples is None:
        sources = np.arange(count)
    else:
        check_positive(samples, "samples")
        rng = np.random.default_rng(seed)
        sources = rng.choice(count, size=min(samples, count), replace=False)
    distance_sum = np.zeros(count, dtype=np.float64)
    reach_count = np.zeros(count, dtype=np.int64)
    for source in sources.tolist():
        levels = bfs_level_array(csr, source, direction="in")
        reached = levels != UNREACHED
        distance_sum[reached] += levels[reached]
        reach_count[reached] += 1
    scores = np.zeros(count, dtype=np.float64)
    sampled = len(sources)
    positive = (reach_count > 1) & (distance_sum > 0)
    # closeness(v) = ((r-1)/(n-1)) * ((r-1)/sum_d), with r scaled up from
    # the sample fraction when sampling.
    scale = count / sampled
    reached_est = np.maximum(reach_count * scale, 1.0)
    scores[positive] = (
        (reached_est[positive] - 1)
        / max(count - 1, 1)
        * (reach_count[positive] - 1)
        / distance_sum[positive]
    )
    return NodeValues(csr.node_ids, scores)


def betweenness_centrality(
    graph, samples: int | None = None, seed: int = 0, normalized: bool = True
) -> NodeValues:
    """Betweenness per node via Brandes' algorithm.

    Exact when ``samples`` is None; otherwise estimated from that many
    random pivot sources (rescaled).
    """
    csr = as_csr(graph)
    count = csr.num_nodes
    if count == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    if samples is None:
        sources = np.arange(count)
    else:
        check_positive(samples, "samples")
        rng = np.random.default_rng(seed)
        sources = rng.choice(count, size=min(samples, count), replace=False)
    scores = np.zeros(count, dtype=np.float64)
    indptr = csr.out_indptr
    indices = csr.out_indices
    for source in sources.tolist():
        scores += _brandes_single_source(count, indptr, indices, source)
    if samples is not None and len(sources) < count:
        scores *= count / len(sources)
    if normalized and count > 2:
        scores /= (count - 1) * (count - 2)
    return NodeValues(csr.node_ids, scores)


def _brandes_single_source(
    count: int, indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    sigma = np.zeros(count, dtype=np.float64)
    sigma[source] = 1.0
    dist = np.full(count, -1, dtype=np.int64)
    dist[source] = 0
    order: list[int] = [source]
    predecessors: dict[int, list[int]] = {source: []}
    queue = [source]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for nbr in indices[indptr[node]:indptr[node + 1]].tolist():
            if dist[nbr] == -1:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
                order.append(nbr)
                predecessors[nbr] = []
            if dist[nbr] == dist[node] + 1:
                sigma[nbr] += sigma[node]
                predecessors[nbr].append(node)
    delta = np.zeros(count, dtype=np.float64)
    for node in reversed(order):
        for pred in predecessors[node]:
            delta[pred] += sigma[pred] / sigma[node] * (1.0 + delta[node])
    delta[source] = 0.0
    return delta


def eigenvector_centrality(
    graph, max_iterations: int = 200, tolerance: float = 1e-8
) -> NodeValues:
    """Eigenvector centrality by power iteration on the in-adjacency.

    A node is central when central nodes point at it. L2-normalised;
    raises :class:`AlgorithmError` if iteration collapses to zero
    (e.g. a DAG where no cycle sustains the principal eigenvector).
    """
    check_positive(max_iterations, "max_iterations")
    csr = as_csr(graph)
    count = csr.num_nodes
    if count == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    edge_src = csr.edge_sources()
    edge_dst = csr.out_indices
    vector = np.full(count, 1.0 / np.sqrt(count), dtype=np.float64)
    for _ in range(max_iterations):
        spread = np.bincount(edge_dst, weights=vector[edge_src], minlength=count)
        # Elementwise, never BLAS (a threaded-BLAS norm on a long
        # vector can cost milliseconds).
        norm = np.sqrt((spread * spread).sum())
        if norm == 0:
            raise AlgorithmError(
                "eigenvector centrality failed: iteration collapsed to zero"
            )
        spread /= norm
        if float(np.abs(spread - vector).sum()) < tolerance:
            vector = spread
            break
        vector = spread
    return NodeValues(csr.node_ids, vector)
