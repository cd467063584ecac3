"""Dynamic algorithm variants — PageRank, WCC, and triangles by delta.

Each entry point mirrors a batch twin in :mod:`repro.algorithms` and is
dispatched from it: the batch function calls in here first and falls
through to its own kernel when we return ``None`` (engine disabled, or
the input is not a dynamic graph). When we *do* run, the result is
either **warm** (advanced from the previous answer by the mutation
delta), **seed** (computed by the batch kernel because no warm state or
log window covers the gap — and stored so the next call can be warm),
or **cached** (the graph has not mutated since the stored answer).

Equivalence contracts, asserted by the trace-differential harness:

* **WCC / triangles** — exact: warm answers equal a from-scratch batch
  run bit for bit (WCC labels are canonicalised to the batch labelling:
  a component's label is the rank of its minimum dense node id).
* **PageRank** — ε-bounded: the warm path runs the *same* solver
  (:func:`~repro.algorithms.pagerank.pagerank_array`), started from the
  previous ranks instead of uniform, and its answer carries the *same
  certificate*: a final power sweep with an L1 step below ``tolerance``,
  whichever of power sweeps or GMRES got there. Both runs therefore
  land within ``damping/(1-damping) * tolerance`` (L1) of the fixed
  point, so they differ by at most
  :func:`~repro.incremental.engine.pagerank_epsilon`.

Batch modules are imported lazily inside functions — they import the
snapshot cache, which imports the incremental engine, and a module-level
import here would close that loop.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import distinct, lookup
from repro.incremental.engine import incremental_engine

_EMPTY = np.empty(0, dtype=np.int64)


def _is_dynamic(graph) -> bool:
    """Whether ``graph`` is a dynamic class the delta machinery covers."""
    from repro.graphs.directed import DirectedGraph
    from repro.graphs.undirected import UndirectedGraph

    return isinstance(graph, (DirectedGraph, UndirectedGraph))


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------


def _remap_ranks(
    prev_ids: np.ndarray, prev_ranks: np.ndarray, new_ids: np.ndarray
) -> np.ndarray:
    """Previous ranks carried onto a new node set, renormalised to 1.

    Surviving nodes keep their old rank; new nodes start at the uniform
    1/n a cold run would give them; deleted nodes' mass is recovered by
    the renormalisation.
    """
    count = len(new_ids)
    start = np.full(count, 1.0 / count, dtype=np.float64)
    positions, known = lookup(prev_ids, new_ids)
    start[known] = prev_ranks[positions[known]]
    total = float(start.sum())
    if total > 0:
        start /= total
    return start


def incremental_pagerank(
    graph,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
) -> "NodeValues | None":
    """Warm-started PageRank, or ``None`` when not applicable.

    The warm path needs no mutation log: the previous rank vector is
    remapped onto the current node set and handed to the unchanged
    batch kernel as its initial guess. The answer ends on the same
    certificate as a cold run (a power sweep whose L1 step is below
    ``tolerance``), so it satisfies the same fixed-point bound.
    """
    engine = incremental_engine()
    if not engine.enabled or not _is_dynamic(graph):
        return None
    from repro.algorithms.common import NodeValues, as_csr
    from repro.algorithms.pagerank import pagerank_array

    version = graph.version
    csr = as_csr(graph)
    if csr.num_nodes == 0:
        return NodeValues(csr.node_ids, np.zeros(0))
    params_key = (damping, max_iterations, tolerance)
    state = engine.state_for(graph)
    start = None
    mode = "seed"
    warm = state.pagerank
    if warm is not None and warm[0] == params_key:
        _, prev_version, prev_ids, prev_ranks = warm
        if prev_version == version:
            engine.record_algo("pagerank", "cached")
            return NodeValues(csr.node_ids, prev_ranks)
        start = _remap_ranks(prev_ids, prev_ranks, csr.node_ids)
        mode = "warm"
    ranks = pagerank_array(
        csr,
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
        start=start,
    )
    state.pagerank = (params_key, version, csr.node_ids, ranks)
    engine.record_algo("pagerank", mode)
    return NodeValues(csr.node_ids, ranks)


# ----------------------------------------------------------------------
# Weakly connected components
# ----------------------------------------------------------------------


def _hook_and_jump(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component root of each of ``size`` nodes joined by edges ``a``–``b``.

    Vectorised hash-min: every round hooks the larger root of each
    still-split edge onto the smaller (``np.minimum.at``), then jumps
    pointers (``parent[parent]``) until every node points at a root.
    Roots only ever move to smaller ids, so no cycle can form; edges
    whose ends already share a root drop out of the next round.
    """
    parent = np.arange(size, dtype=np.int64)
    while len(a):
        root_a, root_b = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        split = parent[a] != parent[b]
        a, b = a[split], b[split]
    return parent


def _canonical_labels(roots: np.ndarray) -> np.ndarray:
    """Relabel component roots to the batch WCC labelling.

    The batch kernel labels components in ascending order of their
    minimum dense node id, which equals ranking components by the first
    dense position their root appears at. One sort of ``root * n +
    position`` keys is a stable argsort: equal roots group together with
    their first position leading, and marking those positions numbers
    the groups in first-seen order by one ``cumsum``.
    """
    count = len(roots)
    ordered, order = np.divmod(np.sort(roots * count + np.arange(count)), count)
    leads = np.ones(count, dtype=bool)
    leads[1:] = ordered[1:] != ordered[:-1]
    first_seen = np.zeros(count, dtype=bool)
    first_seen[order[leads]] = True
    rank = np.cumsum(first_seen) - 1
    labels = np.empty(count, dtype=np.int64)
    labels[order] = rank[order[leads]][np.cumsum(leads) - 1]
    return labels


def _advance_wcc(csr, prev_ids, prev_labels, delta) -> np.ndarray:
    """Labels for the merged snapshot, advanced from the previous run.

    Super-node contraction: every *unaffected* previous component is one
    super node (it cannot split — none of its edges or members were
    deleted), every affected or new node is a singleton. The contracted
    edge list is (a) surviving adjacency among affected nodes plus (b)
    net-added edges, built with array gathers and joined by one
    :func:`_hook_and_jump`; the result is canonicalised to the batch
    labelling.
    """
    new_ids = csr.node_ids
    count = csr.num_nodes
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    positions, known = lookup(prev_ids, new_ids)
    old_label = np.full(count, -1, dtype=np.int64)
    old_label[known] = prev_labels[positions[known]]

    # A deletion can only split the components it touched: the old
    # labels of every net-deleted edge endpoint and net-deleted node.
    touched = np.concatenate(
        [delta.del_src, delta.del_dst, delta.nodes_deleted]
    )
    positions, found = lookup(prev_ids, touched)
    label_count = int(prev_labels.max()) + 1 if len(prev_labels) else 0
    label_hit = np.zeros(label_count + 1, dtype=bool)
    label_hit[prev_labels[positions[found]]] = True
    # old_label -1 (a new node) reads the trailing True slot.
    label_hit[-1] = True
    affected = label_hit[old_label]
    node_super = np.where(affected, np.arange(count), count + old_label)

    # (a) surviving adjacency among affected nodes. Base edges never
    # cross previous components, so an affected-to-unaffected edge in
    # the merged view can only be a net-added edge — handled in (b).
    # The out-CSR holds every edge (the in-CSR the same ones reversed).
    sources, targets = csr.edge_sources(), csr.out_indices
    linked = affected[sources] & affected[targets]
    sources, targets = sources[linked], targets[linked]

    # (b) net-added edges, mapped from original ids to super nodes.
    at_src, has_src = lookup(new_ids, delta.add_src)
    at_dst, has_dst = lookup(new_ids, delta.add_dst)
    keep = has_src & has_dst
    a = np.concatenate([node_super[sources], node_super[at_src[keep]]])
    b = np.concatenate([node_super[targets], node_super[at_dst[keep]]])
    split = a != b
    parent = _hook_and_jump(count + label_count, a[split], b[split])
    return _canonical_labels(parent[node_super])


def incremental_wcc(graph, pool=None) -> "NodeValues | None":
    """Delta-advanced WCC labels, or ``None`` when not applicable.

    Exact: labels equal :func:`repro.algorithms.components.weakly_connected_components`
    on the same graph, element for element. ``pool`` only matters on the
    seeding (batch) pass, as for triangles.
    """
    engine = incremental_engine()
    if not engine.enabled or not _is_dynamic(graph):
        return None
    from repro.algorithms.common import NodeValues, as_csr
    from repro.algorithms.components import wcc_label_array

    version = graph.version
    csr = as_csr(graph)
    state = engine.state_for(graph)
    warm = state.wcc
    if warm is not None and warm[0] == version:
        engine.record_algo("wcc", "cached")
        return NodeValues(csr.node_ids, warm[2])
    labels = None
    if warm is not None:
        prev_version, prev_ids, prev_labels = warm
        window = engine.delta_between(graph, prev_version, version)
        if window is not None:
            labels = _advance_wcc(csr, prev_ids, prev_labels, window[0])
    mode = "warm"
    if labels is None:
        labels = wcc_label_array(csr, pool=pool)
        mode = "seed"
    state.wcc = (version, csr.node_ids, labels)
    engine.record_algo("wcc", mode)
    return NodeValues(csr.node_ids, labels)


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------


def _row_entries(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Every entry of the given CSR rows as ``(owner, value)`` arrays.

    ``owner`` indexes ``rows`` (which may repeat), so ``rows[owner]`` is
    each entry's row. One gather, no per-row Python step.

    >>> owner, value = _row_entries(
    ...     np.array([0, 2, 3]), np.array([1, 2, 0]), np.array([1, 0]))
    >>> owner.tolist(), value.tolist()
    ([0, 1, 1], [0, 1, 2])
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    owner = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    offsets = np.arange(total, dtype=np.int64) - (np.cumsum(counts) - counts)[owner]
    return owner, indices[indptr[rows][owner] + offsets]


def _projection_keys(sym, lo: np.ndarray, hi: np.ndarray):
    """Dense ``lo*n + hi`` keys of original-id pairs, and which are edges.

    ``lo < hi`` elementwise, so the keys use the same orientation as
    ``sym.out_edge_keys()`` and one binary search tests membership.
    """
    count = sym.num_nodes
    at_lo, has_lo = lookup(sym.node_ids, lo)
    at_hi, has_hi = lookup(sym.node_ids, hi)
    keys = at_lo * count + at_hi
    _, has_key = lookup(sym.out_edge_keys(), keys)
    return keys, has_lo & has_hi & has_key


def _closed_triangles(sym, keys: np.ndarray, count_at_first: bool) -> np.ndarray:
    """Dense corners of the triangles ``sym`` closes on changed edges.

    ``keys`` are the changed edges' sorted dense ``u*n + v`` keys
    (``u < v``), all edges of ``sym``; an edge's rank is its position in
    ``keys``. For every edge the row of its lower-degree endpoint is
    gathered and each neighbour ``w`` tested against the other
    endpoint's keys, all in one pass. A triangle with several changed
    edges is found once per changed edge, so it is kept only at its
    lowest-ranked one (``count_at_first``) or its highest-ranked one.
    Returns the three corners of every kept triangle, concatenated.
    """
    count = sym.num_nodes
    u, v = np.divmod(keys, count)
    degrees = sym.out_degrees()
    swap = degrees[u] > degrees[v]
    near, far = np.where(swap, v, u), np.where(swap, u, v)
    owner, w = _row_entries(sym.out_indptr, sym.out_indices, near)
    _, closed = lookup(sym.out_edge_keys(), far[owner] * count + w)
    owner, w = owner[closed], w[closed]
    u, v = u[owner], v[owner]
    kept = np.ones(len(owner), dtype=bool)
    for end in (u, v):
        rank, changed = lookup(keys, np.minimum(end, w) * count + np.maximum(end, w))
        if count_at_first:
            kept &= ~changed | (rank > owner)
        else:
            kept &= ~changed | (rank < owner)
    return np.concatenate([u[kept], v[kept], w[kept]])


def _advance_triangles(old_sym, new_sym, delta) -> np.ndarray:
    """Per-node triangle-count changes, dense over ``new_sym``'s nodes.

    The changed projection pairs split into deleted (an edge of
    ``old_sym`` only) and added (of ``new_sym`` only). A destroyed
    triangle is counted once, at its first deleted edge in key order,
    against the old projection; a created one once, at its last added
    edge, against the new projection. Corners are scattered by
    ``np.bincount``; a corner that no longer exists is dropped.
    """
    src = np.concatenate([delta.add_src, delta.del_src])
    dst = np.concatenate([delta.add_dst, delta.del_dst])
    proper = src != dst
    lo = np.minimum(src[proper], dst[proper])
    hi = np.maximum(src[proper], dst[proper])
    old_keys, in_old = _projection_keys(old_sym, lo, hi)
    new_keys, in_new = _projection_keys(new_sym, lo, hi)
    deleted = distinct(old_keys[in_old & ~in_new])
    added = distinct(new_keys[in_new & ~in_old])
    count = new_sym.num_nodes
    changes = np.bincount(
        _closed_triangles(new_sym, added, count_at_first=False), minlength=count
    )
    lost = old_sym.node_ids[_closed_triangles(old_sym, deleted, count_at_first=True)]
    positions, alive = lookup(new_sym.node_ids, lost)
    changes -= np.bincount(positions[alive], minlength=count)
    return changes


def incremental_triangle_counts(graph, pool=None) -> "NodeValues | None":
    """Delta-advanced per-node triangle counts, or ``None``.

    Exact: equals :func:`repro.algorithms.triangles.triangle_counts` on
    the same graph. The warm state keeps the previous symmetrised
    projection alongside the counts — membership and common-neighbour
    queries against the *old* edge set need it. The new projection is
    usually the one :func:`~repro.incremental.delta.apply_delta` carried
    forward onto the refreshed snapshot, so it is not re-sorted here. ``pool`` only matters
    on the seeding (batch) pass; warm advances are serial by design.
    """
    engine = incremental_engine()
    if not engine.enabled or not _is_dynamic(graph):
        return None
    from repro.algorithms.common import NodeValues, as_csr

    version = graph.version
    sym = as_csr(graph).undirected_projection()
    state = engine.state_for(graph)
    warm = state.triangles
    if warm is not None and warm[0] == version:
        engine.record_algo("triangles", "cached")
        return NodeValues(sym.node_ids, warm[2])
    counts = None
    if warm is not None:
        prev_version, prev_ids, prev_counts, prev_sym = warm
        window = engine.delta_between(graph, prev_version, version)
        if window is not None and window[1] <= engine.compact_threshold(
            max(prev_sym.num_edges, 1)
        ):
            counts = _advance_triangles(prev_sym, sym, window[0])
            positions, known = lookup(prev_ids, sym.node_ids)
            counts[known] += prev_counts[positions[known]]
    mode = "warm"
    if counts is None:
        counts = sym.triangle_counts(pool)
        mode = "seed"
    state.triangles = (version, sym.node_ids, counts, sym)
    engine.record_algo("triangles", mode)
    return NodeValues(sym.node_ids, counts)
