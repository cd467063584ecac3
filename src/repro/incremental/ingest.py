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
ride inside WAL records. Mutations go through the graph's public
mutators, so the per-graph :class:`~repro.incremental.delta.MutationLog`
observes every one of them and the snapshot cache can advance by delta
instead of rebuilding.
"""

from __future__ import annotations

from repro.exceptions import GraphError

#: op kind -> expected operand count
_OP_ARITY = {
    "add_node": 1,
    "del_node": 1,
    "add_edge": 2,
    "del_edge": 2,
}


def validate_ops(ops) -> "list[tuple]":
    """Normalize an op list; raises :class:`GraphError` on malformed input.

    >>> validate_ops([["add_edge", 1, 2], ("del_node", 7)])
    [('add_edge', 1, 2), ('del_node', 7)]
    """
    if not isinstance(ops, (list, tuple)):
        raise GraphError(f"ops must be a list, got {type(ops).__name__}")
    normalized = []
    for position, op in enumerate(ops):
        if not isinstance(op, (list, tuple)) or not op:
            raise GraphError(f"op #{position} is not a [kind, ...] list: {op!r}")
        kind = op[0]
        arity = _OP_ARITY.get(kind)
        if arity is None:
            raise GraphError(
                f"op #{position} has unknown kind {kind!r} "
                f"(expected one of {sorted(_OP_ARITY)})"
            )
        operands = op[1:]
        if len(operands) != arity:
            raise GraphError(
                f"op #{position} ({kind}) takes {arity} operand(s), "
                f"got {len(operands)}"
            )
        try:
            operands = tuple(int(value) for value in operands)
        except (TypeError, ValueError):
            raise GraphError(
                f"op #{position} ({kind}) has non-integer operands: {operands!r}"
            ) from None
        normalized.append((kind,) + operands)
    return normalized


def apply_graph_ops(graph, ops) -> dict:
    """Apply an op stream to ``graph`` through its public mutators.

    Idempotent-friendly semantics: adding an existing node/edge is a
    no-op (counted under ``skipped``), deleting a missing node/edge
    raises — a delete of something that never existed means the stream
    and the graph have diverged, which must not pass silently.

    Returns a JSON-safe summary: ``{"applied": int, "skipped": int,
    "version": int, "nodes": int, "edges": int}``.

    >>> from repro.graphs.directed import DirectedGraph
    >>> graph = DirectedGraph()
    >>> apply_graph_ops(graph, [["add_edge", 1, 2], ["add_edge", 1, 2]])
    {'applied': 1, 'skipped': 1, 'version': 3, 'nodes': 2, 'edges': 1}
    """
    applied = 0
    skipped = 0
    for kind, *operands in validate_ops(ops):
        if kind == "add_node":
            if graph.add_node(operands[0]):
                applied += 1
            else:
                skipped += 1
        elif kind == "del_node":
            graph.del_node(operands[0])
            applied += 1
        elif kind == "add_edge":
            if graph.add_edge(operands[0], operands[1]):
                applied += 1
            else:
                skipped += 1
        else:  # del_edge
            graph.del_edge(operands[0], operands[1])
            applied += 1
    return {
        "applied": applied,
        "skipped": skipped,
        "version": graph.version,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
    }
