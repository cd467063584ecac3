"""The durable-operation table: each op declared once, run by one code path.

Every durable (catalog-mutating) session operation has exactly one
entry in :data:`OPS`. An entry says what the operation *is* — the kind
of object it yields, how many catalog objects it reads, whether it
mutates its first input in place, whether it publishes even without
durability — and holds the single ``run(session, inputs, args)`` that
calls the underlying operator (``repro.tables``, ``repro.convert``,
``repro.algorithms``). Optional ``encode``/``decode`` hooks translate
the few argument shapes that are not already JSON (schemas, predicate
masks, inline payloads, hashmap items) to and from their WAL form. The
two ops with a big transient allocation (``Join``, ``ToGraph``) also
carry an ``estimate`` that the session's memory budget admits or
refuses before any work.

Two callers execute entries, and nothing else does:

* the live session (``Ringo._run_op``) — admit the estimate, adopt
  inputs, encode, ``run``, append to the WAL, publish;
* :func:`apply_record` — decode a committed record and ``run`` it
  against a session's catalog. Crash recovery, replication followers
  and ``Ringo.TailWal`` all apply records through it.

Because both go through the same ``run``, a replayed catalog is
bit-identical to the original — including persistent row ids, which
every producing operator assigns deterministically, and seeded
generator output.

Two pseudo-ops carry *inline* state rather than a derivation:
``__adopt_table__`` / ``__adopt_graph__`` snapshot an input object that
was built outside the session's recorded surface (for example a table
passed in from user code), making the log self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import algorithms as alg
from repro import convert, tables
from repro.algorithms.common import NodeValues
from repro.exceptions import RecoveryError, ReplayError
from repro.incremental.ingest import apply_graph_ops
from repro.memory.budget import estimate_graph_build_bytes, estimate_join_bytes
from repro.tables.schema import ColumnType, Schema
from repro.tables.table import Table

# ----------------------------------------------------------------------
# JSON-safe encoding helpers
# ----------------------------------------------------------------------


def encode_value(value):
    """Encode one argument value into JSON-safe form."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, (dict, NodeValues)):
        return {str(k): encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise RecoveryError(
        f"cannot encode {type(value).__name__} value into a WAL record"
    )


def decode_value(value):
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_schema(schema) -> "list | None":
    """``Schema`` (or schema-shaped sequence) → ``[[name, type], ...]``."""
    if schema is None:
        return None
    if not isinstance(schema, Schema):
        schema = Schema(schema)
    return [[name, col_type.value] for name, col_type in schema]


def decode_schema(encoded) -> "Schema | None":
    """Invert :func:`encode_schema`."""
    if encoded is None:
        return None
    return Schema([(name, ColumnType.parse(type_name)) for name, type_name in encoded])


def encode_predicate(predicate, table) -> dict:
    """Encode a Select predicate for faithful replay.

    Predicate strings are logged as-is (readable provenance). Any other
    predicate form — a boolean mask or a pre-built ``Predicate`` — is
    materialised against the input table *before* the operation runs
    and logged as an explicit mask, which replays identically.
    """
    if isinstance(predicate, str):
        return {"expr": predicate}
    from repro.tables.expressions import as_predicate

    mask = as_predicate(predicate).mask(table)
    return {"mask": np.asarray(mask, dtype=bool).tolist()}


def decode_predicate(encoded: dict):
    """Invert :func:`encode_predicate`."""
    if "expr" in encoded:
        return encoded["expr"]
    return np.asarray(encoded["mask"], dtype=bool)


def encode_table_payload(table: Table) -> dict:
    """Snapshot a table's full contents inline (adoption records)."""
    columns: dict[str, object] = {}
    for name, col_type in table.schema:
        if col_type is ColumnType.STRING:
            columns[name] = list(table.values(name))
        else:
            columns[name] = table.column(name).tolist()
    return {
        "schema": encode_schema(table.schema),
        "columns": columns,
        "row_ids": table.row_ids.tolist(),
    }


def decode_table_payload(payload: dict, pool) -> Table:
    """Rebuild a table from an inline snapshot, row ids included."""
    schema = decode_schema(payload["schema"])
    table = Table.from_columns(payload["columns"], schema=schema, pool=pool)
    table._replace_columns(
        {name: table._raw_column(name) for name in schema.names},
        np.asarray(payload["row_ids"], dtype=np.int64),
    )
    return table


def encode_graph_payload(graph) -> dict:
    """Snapshot a graph's edges and nodes inline (adoption records)."""
    sources, targets = graph.edge_arrays()
    return {
        "directed": bool(graph.is_directed),
        "nodes": graph.node_array().tolist(),
        "sources": sources.tolist(),
        "targets": targets.tolist(),
    }


def decode_graph_payload(payload: dict):
    """Rebuild a graph from an inline snapshot, isolated nodes included."""
    return convert.graph_from_edge_arrays(
        np.asarray(payload["sources"], dtype=np.int64),
        np.asarray(payload["targets"], dtype=np.int64),
        directed=payload["directed"],
        nodes=np.asarray(payload["nodes"], dtype=np.int64),
    )


def name_suffix(name: str) -> int:
    """The numeric suffix of a catalog name (``table-12`` → 12)."""
    try:
        return int(name.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0


# ----------------------------------------------------------------------
# The op table
# ----------------------------------------------------------------------


def _encode_plain(session, args, inputs):
    return encode_value(args)


def _decode_plain(session, args):
    return decode_value(args)


@dataclass(frozen=True)
class Op:
    """One durable operation.

    ``run(session, inputs, args)`` is the only call site of the
    underlying operator; ``inputs`` are the resolved catalog objects
    and ``args`` the operation's arguments as the engine method builds
    them — by convention the operator's own keyword arguments, so most
    entries just splat them. ``encode(session, args, inputs)`` turns those
    into the JSON-safe WAL form — it is called *before* ``run``, so it
    sees a to-be-mutated input's original state — and
    ``decode(session, wal_args)`` inverts it.

    ``mutates`` is ``True`` for an operation that always changes
    ``inputs[0]`` in place, or the name of the boolean argument that
    decides (``"in_place"``). A mutating call logs its target as both
    input and output and publishes nothing; ``run``'s return value is
    then only the caller's result. ``always_publish`` marks the ops
    that publish to the catalog even in a non-durable session.

    ``estimate(inputs, args)`` gives the bytes the operation allocates
    transiently, for the session's memory budget to admit; ``None``
    marks an op the budget does not check.
    """

    kind: str
    arity: int
    run: Callable
    encode: Callable = _encode_plain
    decode: Callable = _decode_plain
    mutates: "bool | str" = False
    always_publish: bool = False
    estimate: "Callable | None" = None

    def mutates_with(self, args: dict) -> bool:
        """Whether a call with ``args`` mutates ``inputs[0]`` in place."""
        if isinstance(self.mutates, str):
            return bool(args[self.mutates])
        return self.mutates


# An inline op's record *is* its result: ``args["object"]``, snapshotted.
_INLINE_TABLE = Op(
    "table", 0, lambda s, i, a: a["object"],
    encode=lambda s, a, i: {"payload": encode_table_payload(a["object"])},
    decode=lambda s, a: {"object": decode_table_payload(a["payload"], s.pool)},
)


def _encode_group_by(session, args, inputs):
    encoded = encode_value(args)
    outputs = list(args["aggregations"] or ())
    if outputs != sorted(outputs):
        # Canonical JSON sorts object keys; output columns follow the
        # caller's order, so that order has to be logged too.
        encoded["order"] = outputs
    return encoded


def _decode_group_by(session, args):
    args = decode_value(args)
    order = args.pop("order", None)
    if order is not None:
        args["aggregations"] = {out: args["aggregations"][out] for out in order}
    return args


#: op name → :class:`Op`; one entry per durable operation.
OPS: "dict[str, Op]" = {
    "LoadTableTSV": Op(
        "table", 0,
        lambda s, i, a: tables.load_table_tsv(
            a["schema"], a["path"], pool=s.pool, **a["kwargs"]
        ),
        # The engine resolves the schema first, so replay skips inference.
        encode=lambda s, a, i: {
            "schema": encode_schema(a["schema"]), "path": a["path"],
            "kwargs": encode_value(a["kwargs"]),
        },
        decode=lambda s, a: dict(decode_value(a), schema=decode_schema(a["schema"])),
        always_publish=True,
    ),
    "LoadTableBinary": Op(
        "table", 0, lambda s, i, a: tables.load_table_npz(pool=s.pool, **a),
        always_publish=True,
    ),
    # Column data has no durable provenance: the built table is logged inline.
    "TableFromColumns": _INLINE_TABLE,
    "TableFromHashMap": Op(
        "table", 0,
        lambda s, i, a: convert.table_from_hashmap(
            a["mapping"], a["key_col"], a["value_col"], pool=s.pool
        ),
        encode=lambda s, a, i: {
            "items": [
                [encode_value(k), encode_value(v)] for k, v in a["mapping"].items()
            ],
            "key_col": a["key_col"], "value_col": a["value_col"],
        },
        decode=lambda s, a: {
            "mapping": {decode_value(k): decode_value(v) for k, v in a["items"]},
            "key_col": a["key_col"], "value_col": a["value_col"],
        },
    ),
    "Select": Op(
        "table", 1,
        lambda s, i, a: tables.select(i[0], **a),
        # Non-string predicates are materialised against the table as it
        # is before the (possibly in-place) operation runs.
        encode=lambda s, a, i: dict(
            a, predicate=encode_predicate(a["predicate"], i[0])
        ),
        decode=lambda s, a: dict(a, predicate=decode_predicate(a["predicate"])),
        mutates="in_place",
    ),
    "Join": Op(
        "table", 2,
        lambda s, i, a: tables.join(
            i[0], i[1], a["left_on"], a["right_on"], **a["kwargs"]
        ),
        always_publish=True,
        estimate=lambda i, a: estimate_join_bytes(
            i[0].num_rows, i[1].num_rows, len(i[0].schema) + len(i[1].schema)
        ),
    ),
    "Project": Op("table", 1, lambda s, i, a: tables.project(i[0], a["columns"])),
    "Rename": Op("table", 1, lambda s, i, a: tables.rename(i[0], **a)),
    "GroupBy": Op(
        "table", 1, lambda s, i, a: tables.group_by(i[0], **a),
        encode=_encode_group_by, decode=_decode_group_by,
    ),
    "OrderBy": Op(
        "table", 1, lambda s, i, a: tables.order_by(i[0], **a), mutates="in_place"
    ),
    "Union": Op("table", 2, lambda s, i, a: tables.union(i[0], i[1], **a)),
    "Intersect": Op("table", 2, lambda s, i, a: tables.intersect(i[0], i[1])),
    "Minus": Op("table", 2, lambda s, i, a: tables.minus(i[0], i[1])),
    "SimJoin": Op(
        "table", 2,
        lambda s, i, a: tables.sim_join(
            i[0], i[1], a["on"], a["threshold"], **a["kwargs"]
        ),
    ),
    "NextK": Op("table", 1, lambda s, i, a: tables.next_k(i[0], **a)),
    "Distinct": Op("table", 1, lambda s, i, a: tables.distinct(i[0], **a)),
    "Limit": Op("table", 1, lambda s, i, a: tables.limit(i[0], **a)),
    "TopK": Op("table", 1, lambda s, i, a: tables.top_k(i[0], **a)),
    "ValueCounts": Op("table", 1, lambda s, i, a: tables.value_counts(i[0], **a)),
    # with_column appends to its input and returns it: a mutation.
    "WithColumn": Op(
        "table", 1, lambda s, i, a: tables.with_column(i[0], **a), mutates=True
    ),
    "Sample": Op("table", 1, lambda s, i, a: tables.sample_rows(i[0], **a)),
    "ToGraph": Op(
        "graph", 1, lambda s, i, a: convert.to_graph(i[0], **a),
        always_publish=True,
        estimate=lambda i, a: estimate_graph_build_bytes(i[0].num_rows),
    ),
    "GetEdgeTable": Op(
        "table", 1, lambda s, i, a: convert.to_edge_table(i[0], string_pool=s.pool)
    ),
    "GetNodeTable": Op(
        "table", 1,
        lambda s, i, a: convert.to_node_table(i[0], string_pool=s.pool, **a),
    ),
    "GenRMat": Op("graph", 0, lambda s, i, a: alg.rmat(**a)),
    "GenPrefAttach": Op("graph", 0, lambda s, i, a: alg.barabasi_albert(**a)),
    "GenErdosRenyi": Op("graph", 0, lambda s, i, a: alg.erdos_renyi_gnm(**a)),
    "GenPlantedPartition": Op(
        "graph", 0, lambda s, i, a: alg.planted_partition(**a)
    ),
    "GenConfigurationModel": Op(
        "graph", 0, lambda s, i, a: alg.configuration_model(**a)
    ),
    "Rewire": Op("graph", 1, lambda s, i, a: alg.rewire(i[0], **a)),
    # Live ingest, crash replay, replicas and TailWal all fold op streams
    # through apply_graph_ops, so every graph's mutation log advances alike.
    "ApplyOps": Op(
        "graph", 1, lambda s, i, a: apply_graph_ops(i[0], **a),
        # Ringo.ApplyOps hands over the batch validate_ops normalised
        # (tuples, which JSON writes as arrays), so the record replays
        # byte-identically — and is plain JSON already, so decoding need
        # not walk the whole batch.
        encode=lambda s, a, i: {"ops": a["ops"]},
        decode=lambda s, a: a,
        mutates=True,
    ),
    "__adopt_table__": _INLINE_TABLE,
    "__adopt_graph__": Op(
        "graph", 0, lambda s, i, a: a["object"],
        encode=lambda s, a, i: {"payload": encode_graph_payload(a["object"])},
        decode=lambda s, a: {"object": decode_graph_payload(a["payload"])},
    ),
}


def apply_record(session, record):
    """Apply one committed WAL record to ``session``'s catalog.

    Resolves the record's inputs by catalog name, runs the op-table
    entry on the decoded arguments, and — unless the record mutated an
    existing object in place — publishes the result under the recorded
    name (which also advances the session's publish counter past it).
    Returns what ``run`` returned. Structural problems (unknown op,
    missing inputs) raise :class:`~repro.exceptions.ReplayError`;
    operator failures propagate as themselves.
    """
    op = OPS.get(record.op)
    if op is None:
        raise ReplayError(record.lsn, record.op, "unknown operation in WAL")
    if len(record.inputs) < op.arity:
        raise ReplayError(
            record.lsn, record.op,
            f"record names {len(record.inputs)} input object(s), needs {op.arity}",
        )
    try:
        inputs = [session._catalog[name] for name in record.inputs]
    except KeyError as missing:
        raise ReplayError(record.lsn, record.op, f"input {missing} not in catalog")
    result = op.run(session, inputs, op.decode(session, record.args))
    if not record.mutates:
        session._publish_as(record.output, result)
    return result
