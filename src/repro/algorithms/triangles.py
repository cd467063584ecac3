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
#: has more. Blocks dealt round-robin keep the few hub nodes of a skewed
#: graph from piling onto one worker — the analogue of OpenMP's
#: ``schedule(dynamic)``. Each block costs some fifty numpy calls, and
#: on a thread pool every call hands the GIL over, so the cap trades
#: per-block overhead against balance. An in-process sweep on the
#: ``analytics`` graph (5.06 M wedges; two workers, 15 alternating
#: rounds, medians) read 126 ms at 2^14 (334 blocks), 86 at 2^15, 68 at
#: 2^16, 64 at 3·2^15 (52 blocks), 62 at 2^17, 63 at 3·2^16 and 65 at
#: 2^18 (20 blocks, too few to balance two workers); the seed-7 graph
#: read the same plateau. 3·2^15 is the plateau's smallest cap: a
#: block's temporaries peak at 6.8 MB per worker there, against 8.2 MB
#: at 2^17 (EXPERIMENTS.md, A7).
MAX_BLOCK_WEDGES = 3 << 15

#: The top degree ranks whose forward edges the kernel keeps as a dense
#: bool table (4 MB at 2048), so a wedge whose middle node ranks among
#: them closes by one lookup instead of a binary search. On the
#: ``analytics`` graph the top 2048 of 21 690 ranks take the middle
#: node of 96 % of the wedges (88 % on tw-scaled); 4096 would take 99 %
#: at four times the table.
CORE_RANKS = 2048


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


def _core_table(findptr: np.ndarray, findices: np.ndarray, size: int) -> np.ndarray:
    """Forward edges among the top ``size`` ranks as a read-only bool matrix.

    Entry ``[v - first, w - first]`` is true iff ``(v, w)`` is a forward
    edge, where ``first = n - size``; a forward edge leaving the core
    always lands in it, since forward edges point up in rank.
    """
    first = len(findptr) - 1 - size
    core = np.zeros((size, size), dtype=bool)
    rows = np.repeat(np.arange(size, dtype=np.int64), np.diff(findptr[first:]))
    core[rows, findices[int(findptr[first]):] - first] = True
    core.flags.writeable = False
    return core


def _triangle_partition(
    findptr: np.ndarray,
    findices: np.ndarray,
    low_keys: np.ndarray,
    core: np.ndarray,
    lo: int,
    hi: int,
    partial: np.ndarray,
) -> None:
    """Add the triangle credits of wedges rooted in ranks ``[lo, hi)`` to ``partial``.

    Wedges at ``u``: for each forward edge ``(u, v)``, every ``w`` after
    ``v`` in row ``u``. Rows are rank-sorted, so ``u < v < w``, and the
    triangle closes iff ``(v, w)`` is itself a forward edge. If ``v``
    ranks in the dense ``core`` (so ``w``, above it, does too), that is
    one table lookup; otherwise one binary search in ``low_keys``, the
    keys of the forward edges leaving the ranks below the core, which
    holds ``(v, w)`` if it exists.

    A closed wedge credits ``u``, ``v`` *and* ``w``, which may lie
    outside the span (always at rank ``lo`` or above), so ``partial`` is
    full-length and owned by one worker; the caller sums the workers'
    partials, so no two threads ever write the same array.
    """
    count = len(findptr) - 1
    size = len(core)
    first = count - size
    base, stop = int(findptr[lo]), int(findptr[hi])
    # The block's forward edges, those into the core first.
    in_core = findices[base:stop] >= first
    into_core = np.flatnonzero(in_core)
    order = np.concatenate([into_core, np.flatnonzero(~in_core)])
    rows = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(findptr[lo:hi + 1]))[order]
    edges = base + order
    v = findices[edges]
    after = edges + 1
    counts = findptr[rows + 1] - after
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return
    starts = ends - counts
    w = findices[np.repeat(after - starts, counts) + np.arange(total)]
    # Each wedge as the key of its closing edge (v, w): an index into the
    # flat core table while v is in the core, v*n + w below it.
    k = len(into_core)
    edge_key = v * count
    edge_key[:k] = (v[:k] - first) * size - first
    key = np.repeat(edge_key, counts) + w
    split = int(counts[:k].sum())
    closed = np.empty(total, dtype=bool)
    closed[:split] = core.reshape(-1)[key[:split]]
    # low_keys is not empty here: it holds each of these wedges' (u, v).
    low = key[split:]
    position = np.minimum(np.searchsorted(low_keys, low), len(low_keys) - 1)
    closed[split:] = low_keys[position] == low
    # u and v are fixed along an edge's run of wedges, so they are
    # credited per edge; w per closed wedge.
    hits = np.flatnonzero(closed)
    closed_upto = np.searchsorted(hits, ends)
    per_edge = closed_upto - np.concatenate(([0], closed_upto[:-1]))
    np.add.at(partial, rows, per_edge)
    np.add.at(partial, v, per_edge)
    credits = np.bincount(w[hits] - lo)
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
    PATRIC" the paper cites. The forward edges among the top
    :data:`CORE_RANKS` ranks are laid out once per call as a read-only
    dense table that every worker shares, so most wedges close by one
    lookup; the rest binary-search the snapshot's cached edge keys. The
    nodes are cut, in rank order, into wedge-capped blocks
    (:data:`MAX_BLOCK_WEDGES`) dealt round-robin to the workers of
    ``pool`` (inline without one); each worker accumulates one partial
    over the snapshot's cached forward adjacency, and the integer
    partials sum to the same counts for any pool width or core size. The
    rank-space totals are permuted back to dense order.

    This is the uncached kernel; :meth:`CSRGraph.triangle_counts` keeps
    its answer for the snapshot.
    """
    count = sym.num_nodes
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    findptr, findices = sym.forward_adjacency()
    core = _core_table(findptr, findices, min(CORE_RANKS, count))
    low_keys = sym.forward_edge_keys()[:int(findptr[count - len(core)])]
    blocks = _wedge_blocks(findptr, MAX_BLOCK_WEDGES)
    pool = pool if pool is not None else serial_pool()
    width = min(pool.workers, len(blocks))

    def worker(spans) -> np.ndarray:
        partial = np.zeros(count, dtype=np.int64)
        for lo, hi in spans:
            _triangle_partition(findptr, findices, low_keys, core, lo, hi, partial)
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
