"""PageRank (paper §3, Table 3 — the headline parallel benchmark).

Two implementations, matching the paper's framing:

* :func:`pagerank` — the bulk engine: power iteration over the CSR
  snapshot with all per-edge work in numpy (``bincount`` scatter-add over
  the edge list). This is the analogue of Ringo's OpenMP loop, and what
  Table 3 / the PowerGraph comparison measure.
* :func:`pagerank_sequential` — a straightforward per-node Python loop,
  the "sequential implementation" counterpart (§3, Table 6 discussion).

Both use the standard damping formulation with dangling-mass
redistribution, so ranks sum to 1.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NodeValues, as_csr
from repro.exceptions import AlgorithmError
from repro.util.validation import check_fraction, check_positive


def pagerank(
    graph,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    iterations: int | None = None,
    personalize: dict[int, float] | None = None,
) -> NodeValues:
    """PageRank scores per node (sums to 1).

    With ``iterations`` set, exactly that many power iterations run with
    no convergence check — the paper times "10 iterations" this way.
    Otherwise iteration stops when the L1 change drops below
    ``tolerance`` (or after ``max_iterations``).

    >>> from repro.graphs.directed import DirectedGraph
    >>> g = DirectedGraph()
    >>> _ = g.add_edge(1, 2); _ = g.add_edge(3, 2)
    >>> ranks = pagerank(g)
    >>> ranks[2] > ranks[1]
    True
    """
    check_fraction(damping, "damping")
    if iterations is None and personalize is None:
        from repro.incremental.algorithms import incremental_pagerank

        warm = incremental_pagerank(
            graph,
            damping=damping,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        if warm is not None:
            return warm
    csr = as_csr(graph)
    if csr.num_nodes == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    values = pagerank_array(
        csr,
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
        iterations=iterations,
        personalize_dense=_dense_personalization(csr, personalize),
    )
    return NodeValues(csr.node_ids, values)


def _dense_personalization(csr, personalize: dict[int, float] | None):
    if personalize is None:
        return None
    weights = np.zeros(csr.num_nodes, dtype=np.float64)
    dense = csr.dense_of_array(np.fromiter(personalize.keys(), dtype=np.int64))
    weights[dense] = np.fromiter(personalize.values(), dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise AlgorithmError("personalization weights must sum to a positive value")
    return weights / total


def pagerank_array(
    csr,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    iterations: int | None = None,
    personalize_dense: np.ndarray | None = None,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Dense-index PageRank over a CSR snapshot (the vectorised kernel).

    The spread step is one full-vector ``bincount`` scatter over the
    edge list per iteration. It needs no worker pool: on the measured
    graphs it beat every partitioned formulation, threads or processes.

    ``start`` warm-starts the iteration from a previous rank vector
    (the incremental path); the stopping criterion is unchanged, so the
    converged answer satisfies the same fixed-point bound as a cold run.
    """
    count = csr.num_nodes
    if iterations is not None:
        check_positive(iterations, "iterations")
    check_positive(max_iterations, "max_iterations")
    # Hoisted once: the degree vector feeds both the dangling mask and
    # (via the cached edge_sources) the scatter index.
    out_deg = csr.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    # Edge list grouped by source: contribution scatter via bincount.
    edge_src = csr.edge_sources()
    edge_dst = csr.out_indices
    base = (
        personalize_dense
        if personalize_dense is not None
        else np.full(count, 1.0 / count, dtype=np.float64)
    )
    ranks = (
        base.copy()
        if start is None
        else np.ascontiguousarray(start, dtype=np.float64)
    )
    safe_deg = np.where(dangling, 1.0, out_deg)
    rounds = iterations if iterations is not None else max_iterations
    for _ in range(rounds):
        share = ranks / safe_deg
        spread = np.bincount(edge_dst, weights=share[edge_src], minlength=count)
        dangling_mass = float(ranks[dangling].sum())
        new_ranks = (1.0 - damping) * base + damping * (spread + dangling_mass * base)
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if iterations is None and delta < tolerance:
            break
    return ranks


def pagerank_weighted(
    network,
    weight_attr: str,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    default_weight: float = 1.0,
) -> NodeValues:
    """PageRank with edge weights from a Network attribute.

    Each node distributes its rank proportionally to outgoing edge
    weights (non-positive totals are treated as dangling). Ranks sum
    to 1, like :func:`pagerank`.

    >>> from repro.graphs.network import Network
    >>> net = Network()
    >>> _ = net.add_edge(1, 2); _ = net.add_edge(1, 3)
    >>> net.set_edge_attr(1, 2, "w", 9.0)
    >>> net.set_edge_attr(1, 3, "w", 1.0)
    >>> ranks = pagerank_weighted(net, "w")
    >>> ranks[2] > ranks[3]
    True
    """
    from repro.graphs.network import Network

    check_fraction(damping, "damping")
    check_positive(max_iterations, "max_iterations")
    if not isinstance(network, Network):
        raise AlgorithmError(
            f"weighted PageRank needs a Network, got {type(network).__name__}"
        )
    csr = as_csr(network)
    count = csr.num_nodes
    if count == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    edge_src = csr.edge_sources()
    edge_dst = csr.out_indices
    node_ids = csr.node_ids
    weights = np.fromiter(
        (
            float(
                network.edge_attr(
                    int(node_ids[s]), int(node_ids[d]), weight_attr,
                    default=default_weight,
                )
            )
            for s, d in zip(edge_src.tolist(), edge_dst.tolist())
        ),
        dtype=np.float64,
        count=len(edge_src),
    )
    if len(weights) and weights.min() < 0:
        raise AlgorithmError("edge weights must be non-negative")
    out_totals = np.bincount(edge_src, weights=weights, minlength=count)
    dangling = out_totals <= 0
    safe_totals = np.where(dangling, 1.0, out_totals)
    base = np.full(count, 1.0 / count, dtype=np.float64)
    ranks = base.copy()
    for _ in range(max_iterations):
        share = ranks / safe_totals
        spread = np.bincount(
            edge_dst, weights=share[edge_src] * weights, minlength=count
        )
        dangling_mass = float(ranks[dangling].sum())
        new_ranks = (1.0 - damping) * base + damping * (spread + dangling_mass * base)
        delta = float(np.abs(new_ranks - ranks).sum())
        ranks = new_ranks
        if delta < tolerance:
            break
    return NodeValues(csr.node_ids, ranks)


def pagerank_sequential(
    graph,
    damping: float = 0.85,
    iterations: int = 10,
) -> NodeValues:
    """Pure-Python per-node PageRank (the sequential reference).

    Same numerics as :func:`pagerank` with a fixed iteration count;
    kept loop-structured so the A3 ablation can compare the bulk kernel
    against honest per-node Python execution.
    """
    check_fraction(damping, "damping")
    check_positive(iterations, "iterations")
    csr = as_csr(graph)
    count = csr.num_nodes
    if count == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    ranks = [1.0 / count] * count
    out_degrees = csr.out_degrees().tolist()
    for _ in range(iterations):
        spread = [0.0] * count
        dangling_mass = 0.0
        for node in range(count):
            degree = out_degrees[node]
            if degree == 0:
                dangling_mass += ranks[node]
                continue
            share = ranks[node] / degree
            for nbr in csr.out_neighbors(node).tolist():
                spread[nbr] += share
        uniform = (1.0 - damping) / count
        dangling_share = damping * dangling_mass / count
        ranks = [uniform + damping * spread[node] + dangling_share for node in range(count)]
    return NodeValues(csr.node_ids, np.asarray(ranks))
