"""Op-stream ingestion — folding mutation streams into live graphs.

One code path serves every caller: the ``ApplyOps`` entry of the op
table (:data:`repro.recovery.ops.OPS`) is the only place
:func:`apply_graph_ops` is called from, so

* **live ingest** (``Ringo.ApplyOps``),
* **crash replay** and **replication followers**
  (:func:`repro.recovery.ops.apply_record`), and
* **live streaming** — ``Ringo.TailWal`` tailing another session's WAL,
  keeping a follower graph (and its delta overlay, and its warm
  incremental analytics) fresh without a rebuild —

all re-apply exactly the op stream the original session committed.

Ops are JSON-safe lists — ``["add_node", id]``, ``["del_node", id]``,
``["add_edge", src, dst]``, ``["del_edge", src, dst]`` — because they
ride inside WAL records. A batch is **atomic** and keeps its in-order
meaning: :func:`resolve_ops` sorts it once by edge key (and node id)
and position, works out what each op does against the state the ops
before it leave, and raises for the first bad op — naming its position
— before anything is mutated. What is left is the batch's net change,
which the graph applies as arrays in one step (``_apply_net``): one
merge per touched adjacency row instead of one insert or delete per op,
one version bump, and one append of the net change to the graph's
:class:`~repro.incremental.delta.MutationLog`, so the snapshot cache
still advances by delta instead of rebuilding.
"""

from __future__ import annotations

import numpy as np

from repro.convert.table_to_graph import _dedup_sorted_pairs
from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs.base import NetChange, distinct
from repro.incremental.delta import ADD_EDGE, ADD_NODE, DEL_EDGE, DEL_NODE, KIND_CODES

#: op kind -> expected operand count
_OP_ARITY = {
    "add_node": 1,
    "del_node": 1,
    "add_edge": 2,
    "del_edge": 2,
}


class OpBatch(list):
    """A normalised op list: what :func:`validate_ops` returns.

    :func:`apply_graph_ops` does not re-check one, so a durable
    ``ApplyOps`` validates its batch once for both the WAL record and
    the apply.
    """


def validate_ops(ops) -> OpBatch:
    """Normalize an op list; raises :class:`GraphError` on malformed input.

    >>> validate_ops([["add_edge", 1, 2], ("del_node", 7)])
    [('add_edge', 1, 2), ('del_node', 7)]
    """
    if not isinstance(ops, (list, tuple)):
        raise GraphError(f"ops must be a list, got {type(ops).__name__}")
    normalized = OpBatch()
    append = normalized.append
    for position, op in enumerate(ops):
        try:
            kind = op[0] if isinstance(op, (list, tuple)) else None
            arity = _OP_ARITY[kind]
            if len(op) == 3 and arity == 2:
                append((kind, int(op[1]), int(op[2])))
            elif len(op) == 2 and arity == 1:
                append((kind, int(op[1])))
            else:
                raise ValueError
        except (LookupError, TypeError, ValueError, OverflowError):
            _reject(position, op)
    return normalized


def _reject(position: int, op) -> None:
    """Raise the :class:`GraphError` that says what is wrong with op #position."""
    if not isinstance(op, (list, tuple)) or not op:
        raise GraphError(f"op #{position} is not a [kind, ...] list: {op!r}")
    kind = op[0]
    arity = _OP_ARITY.get(kind) if isinstance(kind, str) else None
    if arity is None:
        raise GraphError(
            f"op #{position} has unknown kind {kind!r} "
            f"(expected one of {sorted(_OP_ARITY)})"
        )
    if len(op) != arity + 1:
        raise GraphError(
            f"op #{position} ({kind}) takes {arity} operand(s), got {len(op) - 1}"
        )
    raise GraphError(
        f"op #{position} ({kind}) has non-integer operands: {tuple(op[1:])!r}"
    )


def _op_arrays(batch: OpBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kind codes, first operands, second operands or -1)`` of a batch."""
    count = len(batch)
    codes = np.fromiter((KIND_CODES[op[0]] for op in batch), dtype=np.int64, count=count)
    try:
        first = np.fromiter((op[1] for op in batch), dtype=np.int64, count=count)
        second = np.fromiter(
            (op[2] if len(op) == 3 else -1 for op in batch), dtype=np.int64, count=count
        )
    except OverflowError:
        position = next(
            index for index, op in enumerate(batch)
            if any(not -(2**63) <= value < 2**63 for value in op[1:])
        )
        raise GraphError(
            f"op #{position} ({batch[position][0]}) has a node id outside int64"
        ) from None
    return codes, first, second


def _deleted_between(del_keys: np.ndarray, stride: int, ranks, lo, hi) -> np.ndarray:
    """Whether node ``ranks[i]`` has a ``del_node`` at a position in ``[lo, hi)``.

    ``del_keys`` is the sorted ``rank * stride + position`` of every
    ``del_node`` op, ``stride`` the batch length.
    """
    base = ranks * stride
    return np.searchsorted(del_keys, base + hi) > np.searchsorted(del_keys, base + lo)


def resolve_ops(graph, batch: OpBatch) -> tuple[NetChange, int]:
    """What a validated batch does to ``graph``: ``(net change, skipped)``.

    Mutates nothing. Each op means what it would mean applied in order:
    the state before an op on an edge key (or node id) is the previous
    op's result on that key, or the graph's state for the first op on
    it. ``add_node``/``add_edge`` on something present is skipped;
    ``add_edge`` creates missing endpoints; ``del_edge`` and
    ``del_node`` need their target present, and ``del_node`` first
    deletes every incident edge present just before it. The first bad
    op raises :class:`EdgeNotFoundError` / :class:`NodeNotFoundError` /
    :class:`GraphError` naming its position (``op #k``).
    """
    codes, first, second = _op_arrays(batch)
    count = len(codes)
    failures: list[tuple[int, Exception]] = []

    adds = (codes == ADD_NODE) | (codes == ADD_EDGE)
    negative = adds & ((first < 0) | ((codes == ADD_EDGE) & (second < 0)))
    if negative.any():
        position = int(np.flatnonzero(negative)[0])
        bad = min(batch[position][1:])
        failures.append((position, GraphError(
            f"op #{position} ({batch[position][0]}): "
            f"node ids must be non-negative, got {bad}"
        )))

    # Every id named in the batch, and each operand's rank among them.
    edge_pos = np.flatnonzero(codes >= ADD_EDGE)
    universe, ranks = np.unique(
        np.concatenate((first, second[edge_pos])), return_inverse=True
    )
    first_rank = ranks[:count]
    second_rank = np.full(count, -1, dtype=np.int64)
    second_rank[edge_pos] = ranks[count:]
    span = len(universe)

    # --- Nodes: one timeline per id, sorted by (id, position). ---------
    # add_edge creates its endpoints, src before dst, at its position.
    node_pos = np.flatnonzero(codes < ADD_EDGE)
    add_edge_pos = np.flatnonzero(codes == ADD_EDGE)
    ev_rank = np.concatenate(
        (first_rank[node_pos], first_rank[add_edge_pos], second_rank[add_edge_pos])
    )
    ev_time = np.concatenate((2 * node_pos, 2 * add_edge_pos, 2 * add_edge_pos + 1))
    ev_del = np.concatenate(
        (codes[node_pos] == DEL_NODE, np.zeros(2 * len(add_edge_pos), dtype=bool))
    )
    ev_add_node = np.concatenate(
        (codes[node_pos] == ADD_NODE, np.zeros(2 * len(add_edge_pos), dtype=bool))
    )
    order = np.lexsort((ev_time, ev_rank))
    ev_rank, ev_time, ev_del, ev_add_node = (
        ev_rank[order], ev_time[order], ev_del[order], ev_add_node[order]
    )
    ev_first = np.ones(len(ev_rank), dtype=bool)
    ev_first[1:] = ev_rank[1:] != ev_rank[:-1]
    starts = np.flatnonzero(ev_first)
    segment = np.cumsum(ev_first) - 1
    seg_nodes = universe[ev_rank[starts]]
    initial = graph._has_nodes(seg_nodes)
    prev_del = np.concatenate(([False], ev_del[:-1]))
    present_before = np.where(ev_first, initial[segment], ~prev_del)
    missing = ev_del & ~present_before
    if missing.any():
        position = int(ev_time[missing].min()) // 2
        failures.append((position, NodeNotFoundError(batch[position][1], op=position)))
    skipped = int(np.count_nonzero(ev_add_node & present_before))

    if len(starts):
        final = ~ev_del[np.append(starts[1:], len(ev_rank)) - 1]
        last_del = np.maximum.reduceat(np.where(ev_del, ev_time, -1), starts)
    else:
        final = np.empty(0, dtype=bool)
        last_del = np.empty(0, dtype=np.int64)
    had_del = last_del >= 0
    # A node ends up at the end of the table if it is new, or if a
    # del_node removed it and a later op created it again: by the time
    # of the first creation after its last delete.
    creations = np.flatnonzero(~ev_del & (ev_time > last_del[segment]))
    first_creation = creations[
        np.concatenate(([True], segment[creations][1:] != segment[creations][:-1]))
    ] if len(creations) else creations
    placed_at = np.full(len(starts), -1, dtype=np.int64)
    placed_at[segment[first_creation]] = ev_time[first_creation]
    placed = np.flatnonzero(final & (~initial | had_del))
    placed = placed[np.argsort(placed_at[placed], kind="stable")]

    # --- Edges: one timeline per key, sorted by (key, position). -------
    del_node_pos = np.flatnonzero(codes == DEL_NODE)
    del_keys = np.sort(first_rank[del_node_pos] * count + del_node_pos)
    src, dst = first[edge_pos], second[edge_pos]
    src_rank, dst_rank = first_rank[edge_pos], second_rank[edge_pos]
    if not graph.is_directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
        src_rank, dst_rank = np.minimum(src_rank, dst_rank), np.maximum(src_rank, dst_rank)
    keys = src_rank * span + dst_rank
    order = np.lexsort((edge_pos, keys))
    keys, positions, src, dst, src_rank, dst_rank = (
        keys[order], edge_pos[order], src[order], dst[order],
        src_rank[order], dst_rank[order],
    )
    is_add = codes[positions] == ADD_EDGE
    key_first = np.ones(len(keys), dtype=bool)
    key_first[1:] = keys[1:] != keys[:-1]
    heads = np.flatnonzero(key_first)

    # Edges present before the batch that no op names but a del_node
    # removed with its node: deleted for good.
    cascade_src, cascade_dst = _cascade(
        graph, seg_nodes[had_del & initial], universe, keys[heads]
    )
    # One read of every row the batch can touch, for the edge checks
    # below and for the merge that applies the change.
    owners = [src[heads], cascade_src]
    if not graph.is_directed:
        owners += [dst[heads], cascade_dst]
    out_rows = graph._out_rows(distinct(np.concatenate(owners)))
    initial_edge = out_rows.contain(src[heads], dst[heads])

    prev_pos = np.where(key_first, -1, np.concatenate(([-1], positions[:-1])))
    prev_add = np.concatenate(([False], is_add[:-1]))
    state = np.where(key_first, initial_edge[np.cumsum(key_first) - 1], prev_add)
    # A del_node of either endpoint since the previous op on the key
    # deleted the edge along with the node.
    for endpoint in (src_rank, dst_rank):
        state &= ~_deleted_between(del_keys, count, endpoint, prev_pos + 1, positions)
    dangling = ~is_add & ~state
    if dangling.any():
        position = int(positions[np.flatnonzero(dangling)].min())
        failures.append((position, EdgeNotFoundError(*batch[position][1:], op=position)))
    skipped += int(np.count_nonzero(is_add & state))

    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]

    tails = np.append(heads[1:], len(keys))[:len(heads)] - 1
    final_edge = is_add[tails]
    for endpoint in (src_rank, dst_rank):
        final_edge &= ~_deleted_between(
            del_keys, count, endpoint[tails], positions[tails] + 1, count
        )
    added = final_edge & ~initial_edge
    deleted = initial_edge & ~final_edge
    explicit_del = edge_pos[codes[edge_pos] == DEL_EDGE]
    change = NetChange(
        removed_nodes=seg_nodes[initial & ~final],
        placed_nodes=seg_nodes[placed],
        added_nodes=seg_nodes[final & ~initial],
        del_src=np.concatenate((src[tails][deleted], cascade_src)),
        del_dst=np.concatenate((dst[tails][deleted], cascade_dst)),
        add_src=src[tails][added],
        add_dst=dst[tails][added],
        deleted_nodes=seg_nodes[had_del],
        deleted_src=first[explicit_del],
        deleted_dst=second[explicit_del],
        out_rows=out_rows,
    )
    return change, skipped


def _cascade(
    graph, doomed: np.ndarray, universe: np.ndarray, named_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges of ``doomed`` nodes that no op names, once each, as key arrays.

    ``named_keys`` are the sorted ``rank(src) * len(universe) +
    rank(dst)`` keys of the edges the batch's ops name; those follow
    their own timeline instead.
    """
    if not len(doomed):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for node in doomed.tolist():
        if graph.is_directed:
            outs = graph.out_neighbors(node)
            ins = graph.in_neighbors(node)
            sources += [np.full(len(outs), node, dtype=np.int64), ins]
            targets += [outs, np.full(len(ins), node, dtype=np.int64)]
        else:
            nbrs = graph.neighbors(node)
            sources.append(np.minimum(nbrs, node))
            targets.append(np.maximum(nbrs, node))
    src = np.concatenate(sources)
    dst = np.concatenate(targets)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    keep = _dedup_sorted_pairs(src, dst)
    src, dst = src[keep], dst[keep]
    if not len(named_keys):
        return src, dst
    pair = np.stack((src, dst))
    pair_rank = np.minimum(np.searchsorted(universe, pair), len(universe) - 1)
    pair_keys = pair_rank[0] * len(universe) + pair_rank[1]
    hit = np.minimum(np.searchsorted(named_keys, pair_keys), len(named_keys) - 1)
    named = np.all(universe[pair_rank] == pair, axis=0) & (named_keys[hit] == pair_keys)
    return src[~named], dst[~named]


def apply_graph_ops(graph, ops) -> dict:
    """Apply an op batch to ``graph`` atomically, as one net change.

    Idempotent-friendly semantics: adding an existing node/edge is a
    no-op (counted under ``skipped``), deleting a missing node/edge
    raises — a delete of something that never existed means the stream
    and the graph have diverged, which must not pass silently. A batch
    that raises changes nothing; one that applies steps the graph's
    version once (not at all if it nets out to no change).

    Returns a JSON-safe summary: ``{"applied": int, "skipped": int,
    "version": int, "nodes": int, "edges": int}``.

    >>> from repro.graphs.directed import DirectedGraph
    >>> graph = DirectedGraph()
    >>> apply_graph_ops(graph, [["add_edge", 1, 2], ["add_edge", 1, 2]])
    {'applied': 1, 'skipped': 1, 'version': 1, 'nodes': 2, 'edges': 1}
    """
    batch = ops if isinstance(ops, OpBatch) else validate_ops(ops)
    if not hasattr(graph, "_apply_net"):
        raise GraphError(f"ApplyOps cannot mutate a {type(graph).__name__}")
    change, skipped = resolve_ops(graph, batch)
    graph._apply_net(change)
    return {
        "applied": len(batch) - skipped,
        "skipped": skipped,
        "version": graph.version,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
    }
