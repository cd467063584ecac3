"""Spectral graph analysis: Laplacian, Fiedler vector, spectral bisection.

Uses scipy's sparse eigensolver over the undirected projection. The
Fiedler vector (second-smallest Laplacian eigenvector) yields the
classic spectral bisection; its eigenvalue is the algebraic
connectivity (0 iff the graph is disconnected).

scipy is imported on first use, not with the module: the package
declares only numpy, and ``import repro`` must work without scipy.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues
from repro.algorithms.triangles import _undirected_csr
from repro.exceptions import AlgorithmError


def _scipy_sparse():
    """``(scipy.sparse, scipy.sparse.linalg)``, or a clear ImportError."""
    try:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
    except ImportError as err:
        raise ImportError(
            "spectral analysis needs scipy, which is not installed "
            "(pip install scipy, or the package's [test] extra)"
        ) from err
    return sp, spla


def laplacian_matrix(graph) -> "scipy.sparse.csr_matrix":
    """Sparse combinatorial Laplacian ``L = D - A`` of the undirected
    projection (dense-index node order, see ``CSRGraph.node_ids``)."""
    sp, _ = _scipy_sparse()
    sym = _undirected_csr(graph)
    count = sym.num_nodes
    if count == 0:
        raise AlgorithmError("Laplacian is undefined on an empty graph")
    indptr = np.asarray(sym.out_indptr)
    indices = np.asarray(sym.out_indices)
    adjacency = sp.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(count, count)
    )
    degrees = sp.diags(np.asarray(sym.out_degrees(), dtype=np.float64))
    return (degrees - adjacency).tocsr()


def fiedler_vector(graph, seed: int = 0) -> tuple[float, NodeValues]:
    """``(algebraic_connectivity, {node: fiedler_value})``.

    Requires at least three nodes (eigensolver constraint); smaller
    graphs raise :class:`AlgorithmError`.

    >>> from repro.algorithms.generators import ring_graph
    >>> lam, vec = fiedler_vector(ring_graph(8))
    >>> lam > 0
    True
    """
    sym = _undirected_csr(graph)
    if sym.num_nodes < 3:
        raise AlgorithmError("Fiedler vector needs at least three nodes")
    _, spla = _scipy_sparse()
    laplacian = laplacian_matrix(graph)
    rng = np.random.default_rng(seed)
    v0 = rng.random(sym.num_nodes)
    values, vectors = spla.eigsh(
        laplacian.astype(np.float64), k=2, sigma=-1e-5, which="LM", v0=v0
    )
    order = np.argsort(values)
    lam = float(values[order[1]])
    vec = vectors[:, order[1]]
    return lam, NodeValues(sym.node_ids, vec)


def spectral_bisection(graph, seed: int = 0) -> tuple[set[int], set[int]]:
    """Two-way partition by the sign of the Fiedler vector.

    Zero entries join the non-negative side. On a graph with two loosely
    coupled clusters this recovers them.

    >>> from repro.algorithms.generators import planted_partition
    >>> g = planted_partition(2, 10, p_in=1.0, p_out=0.02, seed=3)
    >>> left, right = spectral_bisection(g)
    >>> {len(left), len(right)}
    {10}
    """
    _, vec = fiedler_vector(graph, seed=seed)
    left = {node for node, value in vec.items() if value < 0}
    right = {node for node, value in vec.items() if value >= 0}
    return left, right


def algebraic_connectivity(graph, seed: int = 0) -> float:
    """The second-smallest Laplacian eigenvalue (0 iff disconnected)."""
    lam, _ = fiedler_vector(graph, seed=seed)
    return max(lam, 0.0)
