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
* **PageRank** — ε-bounded: the warm path re-runs the *same* power
  iteration with the *same* stopping criterion, just started from the
  previous ranks instead of uniform. Both runs therefore land within
  ``damping/(1-damping) * tolerance`` (L1) of the fixed point, so they
  differ by at most :func:`~repro.incremental.engine.pagerank_epsilon`.

Batch modules are imported lazily inside functions — they import the
snapshot cache, which imports the incremental engine, and a module-level
import here would close that loop.
"""

from __future__ import annotations

import numpy as np

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
    if len(prev_ids):
        positions = np.minimum(
            np.searchsorted(prev_ids, new_ids), len(prev_ids) - 1
        )
        known = prev_ids[positions] == new_ids
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
) -> "dict[int, float] | None":
    """Warm-started PageRank, or ``None`` when not applicable.

    The warm path needs no mutation log: the previous rank vector is
    remapped onto the current node set and handed to the unchanged
    batch kernel as its starting point. Convergence is checked by the
    same L1-under-``tolerance`` criterion as a cold run, so the answer
    satisfies the same fixed-point bound — it just gets there in far
    fewer iterations after small churn.
    """
    engine = incremental_engine()
    if not engine.enabled or not _is_dynamic(graph):
        return None
    from repro.algorithms.common import as_csr, scores_to_dict
    from repro.algorithms.pagerank import pagerank_array

    version = graph.version
    csr = as_csr(graph)
    if csr.num_nodes == 0:
        return {}
    params_key = (damping, max_iterations, tolerance)
    state = engine.state_for(graph)
    start = None
    mode = "seed"
    warm = state.pagerank
    if warm is not None and warm[0] == params_key:
        _, prev_version, prev_ids, prev_ranks = warm
        if prev_version == version:
            engine.record_algo("pagerank", "cached")
            return scores_to_dict(csr, prev_ranks)
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
    return scores_to_dict(csr, ranks)


# ----------------------------------------------------------------------
# Weakly connected components
# ----------------------------------------------------------------------


def _find(parent: list, x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent: list, a: int, b: int) -> None:
    root_a = _find(parent, a)
    root_b = _find(parent, b)
    if root_a != root_b:
        if root_a < root_b:
            parent[root_b] = root_a
        else:
            parent[root_a] = root_b


def _neighbor_pairs(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """All ``(node, neighbor)`` dense pairs for the given dense nodes."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    sources = np.repeat(nodes, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    targets = indices[np.repeat(indptr[nodes], counts) + offsets]
    return sources, targets


def _canonical_labels(roots: np.ndarray) -> np.ndarray:
    """Relabel union-find roots to the batch WCC labelling.

    The batch kernel labels components in ascending order of their
    minimum dense node id, which equals ranking components by the first
    dense position their root appears at.
    """
    unique_roots, first_seen, inverse = np.unique(
        roots, return_index=True, return_inverse=True
    )
    rank = np.empty(len(unique_roots), dtype=np.int64)
    rank[np.argsort(first_seen, kind="stable")] = np.arange(
        len(unique_roots), dtype=np.int64
    )
    return rank[inverse]


def _advance_wcc(csr, prev_ids, prev_labels, delta) -> np.ndarray:
    """Labels for the merged snapshot, advanced from the previous run.

    Super-node union-find: every *unaffected* previous component is one
    super node (it cannot split — none of its edges or members were
    deleted), every affected or new node is a singleton. Unions come
    from (a) surviving adjacency among affected nodes and (b) net-added
    edges; the result is canonicalised to the batch labelling.
    """
    new_ids = csr.node_ids
    count = csr.num_nodes
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if len(prev_ids):
        positions = np.minimum(
            np.searchsorted(prev_ids, new_ids), len(prev_ids) - 1
        )
        known = prev_ids[positions] == new_ids
        old_label = np.where(known, prev_labels[positions], -1)
    else:
        old_label = np.full(count, -1, dtype=np.int64)

    # A deletion can only split the components it touched: mark the old
    # labels of every net-deleted edge endpoint and net-deleted node.
    affected_labels: set[int] = set()

    def mark(orig: int) -> None:
        if len(prev_ids):
            position = int(np.searchsorted(prev_ids, orig))
            if position < len(prev_ids) and prev_ids[position] == orig:
                affected_labels.add(int(prev_labels[position]))

    for u, v in delta.edges_deleted:
        mark(u)
        mark(v)
    for node in delta.nodes_deleted:
        mark(node)

    affected = old_label == -1
    if affected_labels:
        affected |= np.isin(
            old_label, np.fromiter(affected_labels, dtype=np.int64)
        )

    label_count = int(prev_labels.max()) + 1 if len(prev_labels) else 0
    parent = list(range(count + label_count))
    node_super = np.where(affected, np.arange(count), count + old_label)

    # (a) surviving adjacency among affected nodes. Base edges never
    # cross previous components, so an affected-to-unaffected edge in
    # the merged view can only be a net-added edge — handled in (b).
    affected_dense = np.flatnonzero(affected)
    if len(affected_dense):
        for indptr, indices in (
            (csr.out_indptr, csr.out_indices),
            (csr.in_indptr, csr.in_indices),
        ):
            sources, targets = _neighbor_pairs(indptr, indices, affected_dense)
            if len(sources):
                linked = affected[targets]
                for a, b in zip(
                    sources[linked].tolist(), targets[linked].tolist()
                ):
                    _union(parent, a, b)

    # (b) net-added edges, in original-id space.
    for u, v in delta.edges_added:
        if u == v:
            continue
        position_u = int(np.searchsorted(new_ids, u))
        position_v = int(np.searchsorted(new_ids, v))
        if (
            position_u < count
            and position_v < count
            and new_ids[position_u] == u
            and new_ids[position_v] == v
        ):
            _union(
                parent,
                int(node_super[position_u]),
                int(node_super[position_v]),
            )

    parent_array = np.asarray(parent, dtype=np.int64)
    roots = parent_array[node_super]
    while True:
        hop = parent_array[roots]
        if np.array_equal(hop, roots):
            break
        roots = hop
    return _canonical_labels(roots)


def incremental_wcc(graph, pool=None) -> "dict[int, int] | None":
    """Delta-advanced WCC labels, or ``None`` when not applicable.

    Exact: labels equal :func:`repro.algorithms.components.weakly_connected_components`
    on the same graph, element for element. ``pool`` only matters on the
    seeding (batch) pass, as for triangles.
    """
    engine = incremental_engine()
    if not engine.enabled or not _is_dynamic(graph):
        return None
    from repro.algorithms.common import as_csr
    from repro.algorithms.components import wcc_label_array

    version = graph.version
    csr = as_csr(graph)
    state = engine.state_for(graph)
    warm = state.wcc
    if warm is not None and warm[0] == version:
        engine.record_algo("wcc", "cached")
        return dict(zip(csr.node_ids.tolist(), warm[2].tolist()))
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
    return dict(zip(csr.node_ids.tolist(), labels.tolist()))


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------


def _sym_row(sym, orig_id: int) -> np.ndarray:
    """A node's projection neighbours in *original* id space (sorted)."""
    ids = sym.node_ids
    position = int(np.searchsorted(ids, orig_id))
    if position >= len(ids) or ids[position] != orig_id:
        return _EMPTY
    lo = int(sym.out_indptr[position])
    hi = int(sym.out_indptr[position + 1])
    return ids[sym.out_indices[lo:hi]]


def _sym_has(sym, u: int, v: int) -> bool:
    row = _sym_row(sym, u)
    position = int(np.searchsorted(row, v))
    return position < len(row) and int(row[position]) == v


def _key(u: int, v: int) -> "tuple[int, int]":
    return (u, v) if u <= v else (v, u)


def _advance_triangles(old_sym, new_sym, delta) -> "dict[int, int]":
    """Per-node triangle-count *changes* keyed by original node id.

    Changed projection edges are replayed one at a time — deletions
    against the shrinking old projection, then additions against the
    grown new projection — so each destroyed/created triangle is
    counted exactly once (at its first deleted / last added edge).
    """
    candidates: set[tuple[int, int]] = set()
    for pairs in (delta.edges_added, delta.edges_deleted):
        for u, v in pairs:
            if u != v:
                candidates.add(_key(u, v))
    deleted = []
    added = []
    for pair in sorted(candidates):
        in_old = _sym_has(old_sym, *pair)
        in_new = _sym_has(new_sym, *pair)
        if in_old and not in_new:
            deleted.append(pair)
        elif in_new and not in_old:
            added.append(pair)
    changes: dict[int, int] = {}

    def bump(node: int, amount: int) -> None:
        changes[node] = changes.get(node, 0) + amount

    removed: set[tuple[int, int]] = set()
    for u, v in deleted:
        common = np.intersect1d(
            _sym_row(old_sym, u), _sym_row(old_sym, v), assume_unique=True
        )
        for w in common.tolist():
            if _key(u, w) in removed or _key(v, w) in removed:
                continue
            bump(u, -1)
            bump(v, -1)
            bump(w, -1)
        removed.add((u, v))
    pending = set(added)
    for u, v in added:
        pending.discard((u, v))
        common = np.intersect1d(
            _sym_row(new_sym, u), _sym_row(new_sym, v), assume_unique=True
        )
        for w in common.tolist():
            if _key(u, w) in pending or _key(v, w) in pending:
                continue
            bump(u, 1)
            bump(v, 1)
            bump(w, 1)
    return changes


def incremental_triangle_counts(graph, pool=None) -> "dict[int, int] | None":
    """Delta-advanced per-node triangle counts, or ``None``.

    Exact: equals :func:`repro.algorithms.triangles.triangle_counts` on
    the same graph. The warm state keeps the previous symmetrised
    projection alongside the counts — membership and common-neighbour
    queries against the *old* edge set need it. ``pool`` only matters
    on the seeding (batch) pass; warm advances are serial by design.
    """
    engine = incremental_engine()
    if not engine.enabled or not _is_dynamic(graph):
        return None
    from repro.algorithms.common import as_csr, counts_to_dict

    version = graph.version
    sym = as_csr(graph).undirected_projection()
    state = engine.state_for(graph)
    warm = state.triangles
    if warm is not None and warm[0] == version:
        engine.record_algo("triangles", "cached")
        return counts_to_dict(sym, warm[2])
    counts = None
    if warm is not None:
        prev_version, prev_ids, prev_counts, prev_sym = warm
        window = engine.delta_between(graph, prev_version, version)
        if window is not None and window[1] <= engine.compact_threshold(
            max(prev_sym.num_edges, 1)
        ):
            changes = _advance_triangles(prev_sym, sym, window[0])
            new_ids = sym.node_ids
            counts = np.zeros(sym.num_nodes, dtype=np.int64)
            if len(prev_ids):
                positions = np.minimum(
                    np.searchsorted(prev_ids, new_ids), len(prev_ids) - 1
                )
                known = prev_ids[positions] == new_ids
                counts[known] = prev_counts[positions[known]]
            for orig, amount in changes.items():
                position = int(np.searchsorted(new_ids, orig))
                if position < len(new_ids) and new_ids[position] == orig:
                    counts[position] += amount
    mode = "warm"
    if counts is None:
        counts = sym.triangle_counts(pool)
        mode = "seed"
    state.triangles = (version, sym.node_ids, counts, sym)
    engine.record_algo("triangles", mode)
    return counts_to_dict(sym, counts)
