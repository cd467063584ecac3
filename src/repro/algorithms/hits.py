"""HITS hubs and authorities (mentioned in §4.1's algorithm menu).

Standard iterative mutual reinforcement over the CSR snapshot with L2
normalisation each round.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues, as_csr
from repro.util.validation import check_positive


def hits(
    graph,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
) -> tuple[NodeValues, NodeValues]:
    """Return ``(hubs, authorities)`` score maps.

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 3); _ = g.add_edge(2, 3)
    >>> hubs, auths = hits(g)
    >>> auths[3] > auths[1]
    True
    """
    check_positive(max_iterations, "max_iterations")
    csr = as_csr(graph)
    count = csr.num_nodes
    if count == 0:
        empty = NodeValues(csr.node_ids, np.zeros(0))
        return empty, empty
    edge_src = csr.edge_sources()
    edge_dst = csr.out_indices
    hubs_vec = np.full(count, 1.0 / np.sqrt(count), dtype=np.float64)
    auth_vec = hubs_vec.copy()
    for _ in range(max_iterations):
        new_auth = np.bincount(edge_dst, weights=hubs_vec[edge_src], minlength=count)
        # Elementwise L2 norms, never BLAS: a threaded-BLAS call on a
        # long vector can cost milliseconds, more than the two pushes.
        auth_norm = np.sqrt((new_auth * new_auth).sum())
        if auth_norm > 0:
            new_auth /= auth_norm
        new_hubs = np.bincount(edge_src, weights=new_auth[edge_dst], minlength=count)
        hub_norm = np.sqrt((new_hubs * new_hubs).sum())
        if hub_norm > 0:
            new_hubs /= hub_norm
        delta = float(np.abs(new_auth - auth_vec).sum() + np.abs(new_hubs - hubs_vec).sum())
        auth_vec = new_auth
        hubs_vec = new_hubs
        if delta < tolerance:
            break
    return NodeValues(csr.node_ids, hubs_vec), NodeValues(csr.node_ids, auth_vec)
