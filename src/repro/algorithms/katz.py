"""Katz centrality (the damped path-counting centrality).

``x = alpha * A^T x + beta`` iterated to a fixed point; converges for
``alpha`` below the reciprocal of the adjacency spectral radius. Unlike
eigenvector centrality it is well-defined on DAGs, which is why it joins
the suite alongside :func:`repro.algorithms.centrality.eigenvector_centrality`.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues, as_csr
from repro.exceptions import ConvergenceError
from repro.util.validation import check_positive


def katz_centrality(
    graph,
    alpha: float = 0.1,
    beta: float = 1.0,
    max_iterations: int = 1000,
    tolerance: float = 1e-10,
    normalized: bool = True,
) -> NodeValues:
    """Katz centrality per node.

    Raises :class:`ConvergenceError` when ``alpha`` is at or above the
    reciprocal spectral radius (the series diverges).

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 3); _ = g.add_edge(2, 3)
    >>> scores = katz_centrality(g)
    >>> scores[3] > scores[1]
    True
    """
    check_positive(alpha, "alpha")
    check_positive(max_iterations, "max_iterations")
    csr = as_csr(graph)
    count = csr.num_nodes
    if count == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    edge_src = csr.edge_sources()
    edge_dst = csr.out_indices
    values = np.zeros(count, dtype=np.float64)
    for iteration in range(max_iterations):
        spread = np.bincount(edge_dst, weights=values[edge_src], minlength=count)
        new_values = alpha * spread + beta
        delta = float(np.abs(new_values - values).sum())
        values = new_values
        if not np.isfinite(delta) or delta > 1e12:
            raise ConvergenceError("katz_centrality", iteration + 1, delta)
        if delta < tolerance * count:
            break
    else:
        raise ConvergenceError("katz_centrality", max_iterations, delta)
    if normalized:
        # Elementwise, never BLAS (a threaded-BLAS norm on a long
        # vector can cost milliseconds).
        norm = np.sqrt((values * values).sum())
        if norm > 0:
            values = values / norm
    return NodeValues(csr.node_ids, values)
