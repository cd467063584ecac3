"""PageRank (paper §3, Table 3 — the headline parallel benchmark).

Two implementations, matching the paper's framing:

* :func:`pagerank` — the bulk engine over the CSR snapshot, with all
  per-edge work in numpy (``bincount`` scatter-add over the edge list).
  This is the analogue of Ringo's OpenMP loop, and what Table 3 / the
  PowerGraph comparison measure.
* :func:`pagerank_sequential` — a straightforward per-node Python loop,
  the "sequential implementation" counterpart (§3, Table 6 discussion).

Both use the standard damping formulation with dangling-mass
redistribution, so ranks sum to 1.

One sweep maps ``x`` to ``(1-d)·v + M·x``, where ``M`` is the damped,
dangling-redistributed operator and ``v`` the teleport vector. The
PageRank vector is the fixed point ``x*``, the solution of the linear
system ``(I - M)·x = (1-d)·v`` (Langville & Meyer, "Deeper Inside
PageRank", 2004). The bulk engine has one rule for reaching it:

* **Sweep or Krylov.** Power sweeps run as SNAP and the paper run them.
  From the fourth sweep on, when each of the last two sweeps kept more
  than half of the L1 step before it, the solve moves to restarted
  GMRES(20) on that linear system, started from the iterate the last
  sweep began at. A graph whose
  sweeps contract fast never leaves the power path, and its answer is
  the power loop's bit for bit. ``iterations=`` is always plain sweeps.
* **Certificate.** Both paths stop only on a power sweep whose L1 step
  is below ``tolerance``, and return that sweep. ``M`` has L1 norm
  ``d``, so the answer is within ``d/(1-d)·tolerance`` (L1) of ``x*``
  whichever path found it.
* **Budget.** ``max_iterations`` bounds the mat-vecs, sweeps and Krylov
  steps together; a solve that runs out returns its last sweep.

The Hessenberg least-squares problem is a few dozen scalars and is
solved by Givens rotations in Python. Long-vector products are
elementwise ``(a * b).sum()`` into preallocated buffers, never BLAS: a
cold threaded-BLAS ``dot`` costs milliseconds, more than a sweep.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.common import NodeValues, as_csr
from repro.exceptions import AlgorithmError
from repro.obs.metrics import registry as _metrics_registry
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
    Otherwise the solve stops on a power sweep whose L1 change is below
    ``tolerance``, after power sweeps alone or GMRES on a slowly
    contracting graph (see :func:`pagerank_array`), or after
    ``max_iterations`` mat-vecs.

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


#: Krylov basis size between restarts.
_RESTART = 20
#: A graph contracts slowly when each of the last two sweeps kept more
#: than this share of the step before it. Judged from the fourth sweep:
#: the step ratio of the third sweep after a warm start can still carry
#: the start's transient (0.56 on the `service` graph, whose ratio
#: settles at 0.32).
_SLOW_CONTRACTION = 0.5
_FIRST_SWITCH_SWEEP = 4


class _Sweep:
    """The PageRank operator over one CSR, with buffers allocated once.

    :meth:`apply` is the linear part ``M·x``; :meth:`sweep` adds the
    teleport term and measures the step. Every temporary lives in the
    instance, so a solve allocates its workspace once and only
    ``bincount``'s result is fresh per mat-vec. The gathers use
    ``np.take(..., mode="clip")``: the indices are valid, and the
    default ``mode="raise"`` copies through a buffer (6x slower on
    R-MAT's 277 K edges). The arithmetic is the power loop's, operation
    for operation, so sweeps are bitwise those of the loop it replaced.
    """

    def __init__(self, csr, damping, base, edge_weights=None) -> None:
        count = csr.num_nodes
        self.edge_src = csr.edge_sources()
        self.edge_dst = csr.out_indices
        self.edge_weights = edge_weights
        if edge_weights is None:
            out_deg = csr.out_degrees().astype(np.float64)
            dangling = out_deg == 0
        else:
            out_deg = np.bincount(self.edge_src, weights=edge_weights, minlength=count)
            dangling = out_deg <= 0
        self.safe_deg = np.where(dangling, 1.0, out_deg)
        self.dangling = np.flatnonzero(dangling)
        self.damping = damping
        self.base = base
        self.teleport = (1.0 - damping) * base
        self.share = np.empty(count, dtype=np.float64)
        self.gathered = np.empty(len(self.edge_src), dtype=np.float64)
        self.held = np.empty(len(self.dangling), dtype=np.float64)
        self.step = np.empty(count, dtype=np.float64)
        self.residual = np.empty(count, dtype=np.float64)
        self.matvecs = 0

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = M·x``: damped spread plus dangling redistribution."""
        np.divide(x, self.safe_deg, out=self.share)
        np.take(self.share, self.edge_src, out=self.gathered, mode="clip")
        if self.edge_weights is not None:
            np.multiply(self.gathered, self.edge_weights, out=self.gathered)
        spread = np.bincount(self.edge_dst, weights=self.gathered, minlength=len(x))
        dangling_mass = float(np.take(x, self.dangling, out=self.held, mode="clip").sum())
        np.multiply(self.base, dangling_mass, out=out)
        np.add(spread, out, out=out)
        np.multiply(out, self.damping, out=out)
        self.matvecs += 1
        return out

    def sweep(self, x: np.ndarray, out: np.ndarray) -> float:
        """``out = (1-d)·v + M·x``; returns the L1 step ``‖out - x‖₁``.

        Leaves ``out - x``, the linear system's residual at ``x``, in
        :attr:`residual`.
        """
        self.apply(x, out)
        np.add(self.teleport, out, out=out)
        np.subtract(out, x, out=self.residual)
        return float(np.abs(self.residual, out=self.step).sum())


def _dot(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    return float(np.multiply(a, b, out=scratch).sum())


def _gmres_cycle(op: _Sweep, x: np.ndarray, budget: int, tolerance: float, basis):
    """One GMRES cycle on ``(I - M)·x = (1-d)·v``, improving ``x`` in place.

    Starts from the residual the last sweep left at ``x`` and stops
    after :data:`_RESTART` steps, when the 2-norm residual estimate
    promises an L1 residual below ``tolerance`` (``‖r‖₁ ≤ √n·‖r‖₂``), or
    one mat-vec short of ``budget``: that mat-vec is the certifying
    sweep the caller runs next. A happy breakdown (``h[k+1,k] → 0``, the
    Krylov space is invariant) zeroes the rotated residual, so the same
    test stops the cycle before the next basis vector is normalised.
    """
    scratch = basis[-1]
    beta = _dot(op.residual, op.residual, scratch) ** 0.5
    if beta == 0.0:
        return
    root_n = len(x) ** 0.5
    np.divide(op.residual, beta, out=basis[0])
    rotated = [beta]
    columns: list[list[float]] = []
    cosines: list[float] = []
    sines: list[float] = []
    for j in range(_RESTART):
        if op.matvecs + 1 >= budget:
            break
        w = basis[j + 1]
        op.apply(basis[j], w)
        np.subtract(basis[j], w, out=w)
        column = []
        for i in range(j + 1):
            h = _dot(w, basis[i], scratch)
            np.subtract(w, np.multiply(basis[i], h, out=scratch), out=w)
            column.append(h)
        below = _dot(w, w, scratch) ** 0.5
        for i in range(j):
            upper, lower = column[i], column[i + 1]
            column[i] = cosines[i] * upper + sines[i] * lower
            column[i + 1] = cosines[i] * lower - sines[i] * upper
        radius = math.hypot(column[j], below)
        if radius == 0.0:
            break
        cosines.append(column[j] / radius)
        sines.append(below / radius)
        column[j] = radius
        columns.append(column)
        rotated.append(-sines[j] * rotated[j])
        rotated[j] *= cosines[j]
        if abs(rotated[j + 1]) * root_n < tolerance:
            break
        np.divide(w, below, out=w)
    steps = len(columns)
    coefficients = [0.0] * steps
    for i in reversed(range(steps)):
        total = rotated[i]
        for k in range(i + 1, steps):
            total -= columns[k][i] * coefficients[k]
        coefficients[i] = total / columns[i][i]
    for i, coefficient in enumerate(coefficients):
        np.add(x, np.multiply(basis[i], coefficient, out=scratch), out=x)


def pagerank_array(
    csr,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    iterations: int | None = None,
    personalize_dense: np.ndarray | None = None,
    start: np.ndarray | None = None,
    edge_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Dense-index PageRank over a CSR snapshot (the vectorised kernel).

    With ``iterations`` set, exactly that many power sweeps run with no
    convergence check (Table 3's "10 iterations"). Otherwise power
    sweeps run until one moves the ranks less than ``tolerance`` in L1.
    From the fourth sweep on, two sweeps in a row that each keep more
    than half of the step before them mark a graph that contracts
    slowly (the asker → answerer graphs contract by ~0.71 a sweep); the
    solve then moves to restarted GMRES(20) on ``(I - M)·x = (1-d)·v``
    from the iterate the last sweep started at, whose residual that
    sweep already computed. GMRES still ends only on a true power sweep with
    an L1 step below ``tolerance`` and returns that sweep, so every
    answer carries the power loop's certificate: it is within
    ``d/(1-d)·tolerance`` (L1) of the fixed point. Graphs that contract
    fast (R-MAT by ~0.2 a sweep) stay on sweeps and get the power loop's
    answer bit for bit.

    ``max_iterations`` bounds the mat-vecs, sweeps and Krylov steps
    together; a solve that runs out returns its last sweep. The spread
    step is one full-vector ``bincount`` scatter over the edge list; it
    needs no worker pool: on the measured graphs it beat every
    partitioned formulation, threads or processes.

    ``start`` is the initial guess (the incremental path's warm start);
    the stopping rule is unchanged, so a warm answer carries the same
    certificate as a cold one. ``edge_weights`` (one non-negative weight
    per edge, in ``edge_sources`` order) spreads each node's rank in
    proportion to its out-edge weights; a node whose weights sum to zero
    counts as dangling.

    The choice is counted in the ``alg.pagerank.power_solves`` /
    ``alg.pagerank.krylov_solves`` metrics, and every mat-vec in
    ``alg.pagerank.matvecs``.
    """
    count = csr.num_nodes
    if iterations is not None:
        check_positive(iterations, "iterations")
    check_positive(max_iterations, "max_iterations")
    if count == 0:
        return np.zeros(0, dtype=np.float64)
    base = (
        personalize_dense
        if personalize_dense is not None
        else np.full(count, 1.0 / count, dtype=np.float64)
    )
    op = _Sweep(csr, damping, base, edge_weights)
    ranks = base.copy() if start is None else np.array(start, dtype=np.float64)
    swept = np.empty(count, dtype=np.float64)
    if iterations is not None:
        for _ in range(iterations):
            op.sweep(ranks, swept)
            ranks, swept = swept, ranks
        _count_solve(op, krylov=False)
        return ranks
    basis = None
    previous = np.inf
    slow_steps = 0
    while op.matvecs < max_iterations:
        delta = op.sweep(ranks, swept)
        if delta < tolerance:
            ranks = swept
            break
        slow_steps = slow_steps + 1 if delta > _SLOW_CONTRACTION * previous else 0
        previous = delta
        slow = slow_steps >= 2 and op.matvecs >= _FIRST_SWITCH_SWEEP
        if (basis is not None or slow) and max_iterations - op.matvecs >= 2:
            if basis is None:
                basis = np.empty((_RESTART + 2, count), dtype=np.float64)
            _gmres_cycle(op, ranks, max_iterations, tolerance, basis)
            continue
        ranks, swept = swept, ranks
    _count_solve(op, krylov=basis is not None)
    return ranks


def _count_solve(op: _Sweep, krylov: bool) -> None:
    metrics = _metrics_registry()
    solves = "alg.pagerank.krylov_solves" if krylov else "alg.pagerank.power_solves"
    metrics.counter(solves).inc()
    metrics.counter("alg.pagerank.matvecs").inc(op.matvecs)


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
    ranks = pagerank_array(
        csr,
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
        edge_weights=weights,
    )
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
