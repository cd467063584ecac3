"""Community detection and modularity.

Label propagation (near-linear, the SNAP workhorse for big graphs) plus
Newman modularity for scoring a partition, both over the undirected
projection.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues
from repro.algorithms.triangles import _undirected_csr
from repro.util.validation import check_positive


def label_propagation(
    graph, max_iterations: int = 100, seed: int = 0
) -> NodeValues:
    """Communities via synchronous-free (sequential, shuffled) label
    propagation.

    Each node repeatedly adopts the most frequent label among its
    neighbours (ties broken by smallest label) until no label changes or
    ``max_iterations`` passes complete. Deterministic for a fixed seed.

    >>> from repro.graphs.undirected import UndirectedGraph
    >>> g = UndirectedGraph()
    >>> for u, v in [(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)]:
    ...     _ = g.add_edge(u, v)
    >>> communities = label_propagation(g)
    >>> communities[0] == communities[1], communities[0] == communities[5]
    (True, False)
    """
    check_positive(max_iterations, "max_iterations")
    sym = _undirected_csr(graph)
    count = sym.num_nodes
    labels = np.arange(count, dtype=np.int64)
    rng = np.random.default_rng(seed)
    indptr = sym.out_indptr
    indices = sym.out_indices
    order = np.arange(count)
    for _ in range(max_iterations):
        rng.shuffle(order)
        changed = 0
        for node in order.tolist():
            nbrs = indices[indptr[node]:indptr[node + 1]]
            if len(nbrs) == 0:
                continue
            nbr_labels = labels[nbrs]
            values, counts = np.unique(nbr_labels, return_counts=True)
            best = values[counts == counts.max()].min()
            if best != labels[node]:
                labels[node] = best
                changed += 1
        if changed == 0:
            break
    # Renumber labels densely by first appearance.
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    appearance = np.argsort(np.argsort(first))
    dense = appearance[inverse]
    return NodeValues(sym.node_ids, dense)


def modularity(graph, communities: dict[int, int]) -> float:
    """Newman modularity Q of a partition over the undirected projection.

    Q = sum_c [ m_c / m  - (d_c / 2m)^2 ] where m_c is the number of
    intra-community edges and d_c the total degree of community c.
    """
    sym = _undirected_csr(graph)
    count = sym.num_nodes
    if count == 0 or sym.num_edges == 0:
        return 0.0
    labels = np.asarray(
        [communities[int(node)] for node in sym.node_ids], dtype=np.int64
    )
    edge_src = sym.edge_sources()
    edge_dst = sym.out_indices
    # Symmetrised CSR holds each undirected edge twice.
    two_m = float(len(edge_src))
    intra = float(np.sum(labels[edge_src] == labels[edge_dst]))
    degrees = sym.out_degrees().astype(np.float64)
    label_degree = np.bincount(labels, weights=degrees)
    return intra / two_m - float(np.sum((label_degree / two_m) ** 2))


def community_sizes(communities: dict[int, int]) -> dict[int, int]:
    """Size of each community, keyed by label."""
    sizes: dict[int, int] = {}
    for label in communities.values():
        sizes[label] = sizes.get(label, 0) + 1
    return sizes
