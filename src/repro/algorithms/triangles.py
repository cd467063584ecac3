"""Triangle counting and clustering coefficients (paper §3, Table 3).

"Triangle counting is directly related to relational joins"; Ringo's
implementation is "a straightforward approach, similar to [PATRIC],
parallelizing the execution with a few OpenMP statements". The same
structure here: the *forward* node-iterator — each node intersects the
sorted adjacency of its higher-ordered neighbours — with the per-node
work distributed over a worker pool in wedge-capped blocks (degree skew
makes equal-count partitions badly unbalanced).

Directed input is treated as its undirected projection, matching the
paper's "undirected triangle counting".
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues, as_csr
from repro.graphs.csr import CSRGraph
from repro.parallel.executor import WorkerPool, serial_pool

#: Most wedges one triangle block may hold, unless a single node alone
#: has more. Small blocks dealt round-robin keep the few hub nodes of a
#: skewed graph from piling onto one worker — the analogue of OpenMP's
#: ``schedule(dynamic)``. The value was chosen on the ``analytics``
#: benchmark graph (EXPERIMENTS.md, A7).
MAX_BLOCK_WEDGES = 1 << 14


def _wedge_blocks(findptr: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Contiguous node spans ``[lo, hi)`` covering every node once.

    Cut greedily from the cumulative wedge count (a node with forward
    degree ``d`` roots ``d * (d - 1) / 2`` candidate wedges in the
    kernel), so each span holds at most ``cap`` wedges unless one node
    alone exceeds it.
    """
    fdeg = np.diff(findptr)
    cumulative = np.cumsum(fdeg * (fdeg - 1) // 2)
    blocks = []
    lo, done = 0, 0
    while lo < len(fdeg):
        hi = max(int(np.searchsorted(cumulative, done + cap, side="right")), lo + 1)
        blocks.append((lo, hi))
        done = int(cumulative[hi - 1])
        lo = hi
    return blocks


def _triangle_partition(
    findptr: np.ndarray,
    findices: np.ndarray,
    edge_keys: np.ndarray,
    lo: int,
    hi: int,
    partial: np.ndarray,
) -> None:
    """Add the triangle credits of wedges rooted in ranks ``[lo, hi)`` to ``partial``.

    A wedge at ``u`` closes a triangle whose credit lands on ``u``,
    ``v`` *and* ``w``, which may lie outside the span (always at rank
    ``lo`` or above), so ``partial`` is full-length and owned by one
    worker; the caller sums the workers' partials, so no two threads
    ever write the same array.
    """
    count = len(findptr) - 1
    base, stop = int(findptr[lo]), int(findptr[hi])
    # Wedges at u: for each forward edge (u, v), every w after v in
    # forward[u]. Rows are rank-sorted, so u < v < w, and triangle
    # (u, v, w) closes iff (v, w) is itself a forward edge.
    fdeg = np.diff(findptr[lo:hi + 1])
    e_src = np.repeat(np.arange(lo, hi, dtype=np.int64), fdeg)
    after = np.arange(base + 1, stop + 1, dtype=np.int64)
    cand_counts = findptr[e_src + 1] - after
    total = int(cand_counts.sum())
    if total == 0:
        return
    group_offsets = np.repeat(np.cumsum(cand_counts) - cand_counts, cand_counts)
    w = findices[np.repeat(after, cand_counts) + (np.arange(total) - group_offsets)]
    v = np.repeat(findices[base:stop], cand_counts)
    query = v * count + w
    position = np.searchsorted(edge_keys, query)
    position = np.minimum(position, len(edge_keys) - 1)
    closed = edge_keys[position] == query
    u = np.repeat(e_src, cand_counts)
    credits = np.bincount(np.concatenate([u[closed], v[closed], w[closed]]) - lo)
    partial[lo:lo + len(credits)] += credits


def _undirected_csr(graph) -> CSRGraph:
    """Symmetrised, loop-free CSR projection for triangle work.

    Delegates to the snapshot's cached projection, so the whole
    triangle/clustering/community family shares one symmetrisation per
    snapshot instead of redoing it per call.
    """
    return as_csr(graph).undirected_projection()


def triangle_counts(graph, pool: WorkerPool | None = None) -> NodeValues:
    """Number of triangles through each node.

    >>> from repro.graphs.undirected import UndirectedGraph
    >>> g = UndirectedGraph()
    >>> for u, v in [(1, 2), (2, 3), (3, 1), (3, 4)]:
    ...     _ = g.add_edge(u, v)
    >>> triangle_counts(g)[3]
    1
    """
    if not isinstance(graph, CSRGraph):
        from repro.incremental.algorithms import incremental_triangle_counts

        warm = incremental_triangle_counts(graph, pool=pool)
        if warm is not None:
            return warm
    sym = _undirected_csr(graph)
    return NodeValues(sym.node_ids, sym.triangle_counts(pool))


def triangle_count_array(sym: CSRGraph, pool: WorkerPool | None = None) -> np.ndarray:
    """Per-node triangle counts over a symmetrised, loop-free CSR.

    Forward algorithm with degree-rank ordering: every node keeps only
    its higher-ranked neighbours, so each triangle is closed exactly once
    (at its lowest-ranked vertex) and hub work collapses from O(d^2) to
    the O(m^1.5) bound — the "straightforward approach, similar to
    PATRIC" the paper cites. The nodes are cut, in rank order, into
    wedge-capped blocks (:data:`MAX_BLOCK_WEDGES`) dealt round-robin to
    the workers of ``pool`` (inline without one); each worker accumulates
    one partial over the snapshot's cached forward adjacency, and the
    integer partials sum to the same counts for any pool width. The
    rank-space totals are permuted back to dense order.

    This is the uncached kernel; :meth:`CSRGraph.triangle_counts` keeps
    its answer for the snapshot.
    """
    count = sym.num_nodes
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    findptr, findices = sym.forward_adjacency()
    edge_keys = sym.forward_edge_keys()
    blocks = _wedge_blocks(findptr, MAX_BLOCK_WEDGES)
    pool = pool if pool is not None else serial_pool()
    width = min(pool.workers, len(blocks))

    def worker(spans) -> np.ndarray:
        partial = np.zeros(count, dtype=np.int64)
        for lo, hi in spans:
            _triangle_partition(findptr, findices, edge_keys, lo, hi, partial)
        return partial

    partials = pool.map_chunks([blocks[i::width] for i in range(width)], worker)
    totals = partials[0]
    for partial in partials[1:]:
        totals += partial
    return totals[sym.degree_rank()]


def total_triangles(graph, pool: WorkerPool | None = None) -> int:
    """Total number of distinct triangles in the graph."""
    if not isinstance(graph, CSRGraph):
        from repro.incremental.algorithms import incremental_triangle_counts

        warm = incremental_triangle_counts(graph, pool=pool)
        if warm is not None:
            return int(warm.value_array.sum()) // 3
    return int(_undirected_csr(graph).triangle_counts(pool).sum()) // 3


def clustering_coefficients(
    graph, pool: WorkerPool | None = None
) -> NodeValues:
    """Local clustering coefficient per node (0 for degree < 2)."""
    sym = _undirected_csr(graph)
    counts = sym.triangle_counts(pool)
    degrees = sym.out_degrees().astype(np.float64)
    possible = degrees * (degrees - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(possible > 0, counts / possible, 0.0)
    return NodeValues(sym.node_ids, local)


def average_clustering(graph, pool: WorkerPool | None = None) -> float:
    """Mean local clustering coefficient (0.0 for the empty graph)."""
    coefficients = clustering_coefficients(graph, pool=pool)
    if not coefficients:
        return 0.0
    return sum(coefficients.values()) / len(coefficients)


def global_clustering(graph, pool: WorkerPool | None = None) -> float:
    """Transitivity: ``3 * triangles / wedges`` (0.0 if no wedges)."""
    sym = _undirected_csr(graph)
    counts = sym.triangle_counts(pool)
    degrees = sym.out_degrees().astype(np.float64)
    wedges = float((degrees * (degrees - 1) / 2.0).sum())
    if wedges == 0:
        return 0.0
    return 3.0 * (float(counts.sum()) / 3.0) / wedges
