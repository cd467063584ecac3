"""The session op table: every session operation declared once, run by one path.

Each public CamelCase method of :class:`~repro.core.engine.Ringo` but
the catalog accessors ``Objects``/``GetObject`` has one entry in
:data:`SESSION_OPS`, holding the single ``run(session, inputs, args)``
that calls the operator (``repro.tables``, ``repro.convert``,
``repro.algorithms``). A **durable** entry changes the catalog: in a
durable session its inputs are adopted, it appends a WAL record and
publishes its result (:data:`OPS`, the ops a WAL record may name). A
**mutating** entry changes something besides its return value: a
durable op its first input in place, ``TailWal`` catalog graphs, the
``SaveTable*`` ops files. A replica serves the entries that are neither
(:attr:`Op.read_only`).

Two callers execute entries, and nothing else does: the live session
(``Ringo._run_op``: admit the estimate, adopt inputs, encode, ``run``,
append to the WAL, publish) and :func:`apply_record` (decode a committed
record and ``run`` it), through which crash recovery, replication
followers and ``Ringo.TailWal`` apply records. Both do their
bookkeeping in :func:`observed`, so every call, live or replayed, is one
``engine.<Op>`` span and one ``call_timings()`` entry. Because both
go through the same ``run``, a replayed catalog is bit-identical to the
original — persistent row ids and seeded generator output included.

Two pseudo-ops carry *inline* state rather than a derivation:
``__adopt_table__`` / ``__adopt_graph__`` snapshot an input object that
was built outside the session's recorded surface (for example a table
passed in from user code), making the log self-contained.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import algorithms as alg
from repro import convert, obs, tables
from repro.algorithms.common import NodeValues
from repro.exceptions import RecoveryError, ReplayError
from repro.faults import fault_point
from repro.graphs.directed import DirectedGraph
from repro.graphs.ops import ego_network
from repro.graphs.undirected import UndirectedGraph
from repro.incremental.ingest import apply_graph_ops
from repro.memory.budget import estimate_graph_build_bytes, estimate_join_bytes
from repro.parallel.resilience import run_with_retry
from repro.recovery.wal import WAL_FILENAME, WalTail, iter_wal
from repro.tables.schema import ColumnType, Schema
from repro.tables.table import Table
from repro.workflows.temporal import temporal_snapshots

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
    columns = dict(payload["columns"])
    for name, col_type in schema:
        if col_type is ColumnType.STRING and name in columns:
            columns[name] = pool.encode_many(columns[name])
    return Table(schema, columns, pool=pool, row_ids=payload["row_ids"])


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


@dataclass(frozen=True)
class Op:
    """One session operation.

    ``run(session, inputs, args)`` is the only call site of the
    underlying operator; ``inputs`` are the objects it reads and
    ``args`` its other arguments as the engine method builds them — by
    convention the operator's own keyword arguments, so most entries
    just splat them.

    An entry with a ``kind`` (``"table"``/``"graph"``, what it yields)
    is durable and reads ``arity`` catalog inputs;
    ``encode(session, args, inputs)`` turns its arguments into their
    JSON-safe WAL form *before* ``run`` (so it sees a to-be-mutated
    input's original state) and ``decode(session, wal_args)`` inverts
    it. ``always_publish`` marks durable ops that publish even without
    durability. ``mutates`` marks an op that changes anything besides
    its return value; a durable one changes ``inputs[0]`` in place (or,
    naming a boolean argument such as ``"in_place"``, when that is
    true), logs it as both input and output and publishes nothing.
    ``estimate(inputs, args)`` gives the transient bytes the memory
    budget admits (``None``: unchecked); ``rates(inputs, result)`` the
    ``(metric, units)`` throughput pairs :func:`observed` records.
    """

    run: Callable
    kind: "str | None" = None
    arity: int = 0
    encode: Callable = lambda s, a, i: encode_value(a)
    decode: Callable = lambda s, a: decode_value(a)
    mutates: "bool | str" = False
    always_publish: bool = False
    estimate: "Callable | None" = None
    rates: "Callable | None" = None

    @property
    def durable(self) -> bool:
        """Whether the op changes the catalog (and so is WAL-recorded)."""
        return self.kind is not None

    @property
    def read_only(self) -> bool:
        """Neither durable nor mutating — what a replica serves."""
        return self.kind is None and not self.mutates

    def mutates_with(self, args: dict) -> bool:
        """Whether a call with ``args`` mutates ``inputs[0]`` in place."""
        if isinstance(self.mutates, str):
            return bool(args[self.mutates])
        return self.mutates


# An inline op's record *is* its result: ``args["object"]``, snapshotted.
_INLINE_TABLE = Op(
    lambda s, i, a: a["object"], "table",
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


#: ``Ringo`` method name → :class:`Op` (plus the two adoption pseudo-ops).
SESSION_OPS: "dict[str, Op]" = {
    # -- durable: tables ----------------------------------------------
    "LoadTableTSV": Op(
        lambda s, i, a: tables.load_table_tsv(
            a["schema"], a["path"], pool=s.pool, **a["kwargs"]
        ),
        "table",
        # The engine resolves the schema first, so replay skips inference.
        encode=lambda s, a, i: {
            "schema": encode_schema(a["schema"]), "path": a["path"],
            "kwargs": encode_value(a["kwargs"]),
        },
        decode=lambda s, a: dict(decode_value(a), schema=decode_schema(a["schema"])),
        always_publish=True,
        rates=lambda i, r: [("io.tsv.rows", r.num_rows)],
    ),
    "LoadTableBinary": Op(
        lambda s, i, a: tables.load_table_npz(pool=s.pool, **a), "table",
        always_publish=True,
    ),
    # Column data has no durable provenance: the built table is logged inline.
    "TableFromColumns": _INLINE_TABLE,
    "TableFromHashMap": Op(
        lambda s, i, a: convert.table_from_hashmap(
            a["mapping"], a["key_col"], a["value_col"], pool=s.pool
        ),
        "table",
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
        lambda s, i, a: tables.select(i[0], **a), "table", 1,
        # Non-string predicates are materialised against the table as it
        # is before the (possibly in-place) operation runs.
        encode=lambda s, a, i: dict(
            a, predicate=encode_predicate(a["predicate"], i[0])
        ),
        decode=lambda s, a: dict(a, predicate=decode_predicate(a["predicate"])),
        mutates="in_place",
    ),
    "Join": Op(
        lambda s, i, a: tables.join(
            i[0], i[1], a["left_on"], a["right_on"], **a["kwargs"]
        ),
        "table", 2,
        always_publish=True,
        estimate=lambda i, a: estimate_join_bytes(
            i[0].num_rows, i[1].num_rows, len(i[0].schema) + len(i[1].schema)
        ),
    ),
    "Project": Op(lambda s, i, a: tables.project(i[0], a["columns"]), "table", 1),
    "Rename": Op(lambda s, i, a: tables.rename(i[0], **a), "table", 1),
    "GroupBy": Op(
        lambda s, i, a: tables.group_by(i[0], **a), "table", 1,
        encode=_encode_group_by, decode=_decode_group_by,
    ),
    "OrderBy": Op(
        lambda s, i, a: tables.order_by(i[0], **a), "table", 1, mutates="in_place"
    ),
    "Union": Op(lambda s, i, a: tables.union(i[0], i[1], **a), "table", 2),
    "Intersect": Op(lambda s, i, a: tables.intersect(i[0], i[1]), "table", 2),
    "Minus": Op(lambda s, i, a: tables.minus(i[0], i[1]), "table", 2),
    "SimJoin": Op(
        lambda s, i, a: tables.sim_join(
            i[0], i[1], a["on"], a["threshold"], **a["kwargs"]
        ),
        "table", 2,
    ),
    "NextK": Op(lambda s, i, a: tables.next_k(i[0], **a), "table", 1),
    "Distinct": Op(lambda s, i, a: tables.distinct(i[0], **a), "table", 1),
    "Limit": Op(lambda s, i, a: tables.limit(i[0], **a), "table", 1),
    "TopK": Op(lambda s, i, a: tables.top_k(i[0], **a), "table", 1),
    "ValueCounts": Op(lambda s, i, a: tables.value_counts(i[0], **a), "table", 1),
    # with_column appends to its input and returns it: a mutation.
    "WithColumn": Op(
        lambda s, i, a: tables.with_column(i[0], **a), "table", 1, mutates=True
    ),
    "Sample": Op(lambda s, i, a: tables.sample_rows(i[0], **a), "table", 1),
    # -- durable: conversions and graphs -----------------------------
    "ToGraph": Op(
        lambda s, i, a: convert.to_graph(i[0], **a), "graph", 1,
        always_publish=True,
        estimate=lambda i, a: estimate_graph_build_bytes(i[0].num_rows),
        # The paper-styled rate metrics: rows/s in, edges/s out.
        rates=lambda i, r: [
            ("engine.tograph.rows", i[0].num_rows),
            ("engine.tograph.edges", r.num_edges),
        ],
    ),
    "GetEdgeTable": Op(
        lambda s, i, a: convert.to_edge_table(i[0], string_pool=s.pool),
        "table", 1,
        rates=lambda i, r: [("engine.edge_export.edges", r.num_rows)],
    ),
    "GetNodeTable": Op(
        lambda s, i, a: convert.to_node_table(i[0], string_pool=s.pool, **a),
        "table", 1,
    ),
    "GenRMat": Op(lambda s, i, a: alg.rmat(**a), "graph"),
    "GenPrefAttach": Op(lambda s, i, a: alg.barabasi_albert(**a), "graph"),
    "GenErdosRenyi": Op(lambda s, i, a: alg.erdos_renyi_gnm(**a), "graph"),
    "GenPlantedPartition": Op(lambda s, i, a: alg.planted_partition(**a), "graph"),
    "GenConfigurationModel": Op(lambda s, i, a: alg.configuration_model(**a), "graph"),
    "Rewire": Op(lambda s, i, a: alg.rewire(i[0], **a), "graph", 1),
    # Live ingest, crash replay, replicas and TailWal all fold op streams
    # through apply_graph_ops, so every graph's mutation log advances alike.
    "ApplyOps": Op(
        lambda s, i, a: apply_graph_ops(i[0], **a), "graph", 1,
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
        lambda s, i, a: a["object"], "graph",
        encode=lambda s, a, i: {"payload": encode_graph_payload(a["object"])},
        decode=lambda s, a: {"object": decode_graph_payload(a["payload"])},
    ),
    # -- not durable, but mutating: never served by a replica ----------
    "TailWal": Op(lambda s, i, a: tail_wal(s, **a), mutates=True),
    "SaveTableTSV": Op(lambda s, i, a: tables.save_table_tsv(i[0], **a), mutates=True),
    "SaveTableBinary": Op(lambda s, i, a: tables.save_table_npz(i[0], **a), mutates=True),
    # -- reads ----------------------------------------------------------
    "ToWeightedNetwork": Op(
        lambda s, i, a: convert.weighted_network_from_edges(i[0], **a)
    ),
    "ToCoOccurrenceGraph": Op(lambda s, i, a: convert.co_occurrence_graph(i[0], **a)),
    "GetSnapshots": Op(lambda s, i, a: temporal_snapshots(i[0], **a)),
    "Describe": Op(lambda s, i, a: tables.describe(i[0], pool=s.pool)),
    "Crosstab": Op(lambda s, i, a: tables.crosstab(i[0], **a)),
    "Quantiles": Op(lambda s, i, a: tables.quantiles(i[0], **a)),
    "GetKTruss": Op(lambda s, i, a: alg.k_truss(i[0], **a)),
    "GetPageRank": Op(lambda s, i, a: alg.pagerank(i[0], **a)),
    "GetHits": Op(lambda s, i, a: alg.hits(i[0], **a)),
    "GetTriangles": Op(lambda s, i, a: alg.total_triangles(i[0], pool=s.workers)),
    "GetTriangleCounts": Op(lambda s, i, a: alg.triangle_counts(i[0], pool=s.workers)),
    "GetClusteringCoefficients": Op(
        lambda s, i, a: alg.clustering_coefficients(i[0], pool=s.workers)
    ),
    "GetKCore": Op(lambda s, i, a: alg.k_core(i[0], **a)),
    "GetCoreNumbers": Op(lambda s, i, a: alg.core_numbers(i[0])),
    "GetSssp": Op(lambda s, i, a: alg.dijkstra(i[0], **a)),
    "GetBfsLevels": Op(lambda s, i, a: alg.bfs_levels(i[0], **a)),
    "GetScc": Op(lambda s, i, a: alg.strongly_connected_components(i[0])),
    "GetWcc": Op(
        lambda s, i, a: alg.weakly_connected_components(i[0], pool=s.workers)
    ),
    "GetDegreeCentrality": Op(lambda s, i, a: alg.degree_centrality(i[0], **a)),
    "GetCommunities": Op(lambda s, i, a: alg.label_propagation(i[0], **a)),
    "GetDiameter": Op(lambda s, i, a: alg.diameter(i[0], **a)),
    "GetEffectiveDiameter": Op(lambda s, i, a: alg.effective_diameter(i[0], **a)),
    "GetDegreeDistribution": Op(lambda s, i, a: alg.degree_distribution(i[0], **a)),
    "GetKatz": Op(lambda s, i, a: alg.katz_centrality(i[0], **a)),
    "GetTriadCensus": Op(lambda s, i, a: alg.triad_census(i[0])),
    "GetArticulationPoints": Op(lambda s, i, a: alg.articulation_points(i[0])),
    "GetBridges": Op(lambda s, i, a: alg.bridges(i[0])),
    "GetColoring": Op(lambda s, i, a: alg.greedy_coloring(i[0], **a)),
    "IsBipartite": Op(lambda s, i, a: alg.is_bipartite(i[0])),
    "GetLinkPredictions": Op(
        lambda s, i, a: alg.top_predicted_links(
            i[0], scorer=a["scorer"] or alg.jaccard_coefficient, k=a["k"]
        )
    ),
    "GetWeightedPageRank": Op(lambda s, i, a: alg.pagerank_weighted(i[0], **a)),
    "GetEgonet": Op(lambda s, i, a: ego_network(i[0], **a)),
    "GetMaxFlow": Op(lambda s, i, a: alg.max_flow(i[0], **a)),
    "GetMinCut": Op(lambda s, i, a: alg.min_cut_partition(i[0], **a)),
    "GetMatching": Op(lambda s, i, a: alg.hopcroft_karp(i[0])),
    "FindCycle": Op(lambda s, i, a: alg.find_cycle(i[0])),
    "GetGirth": Op(lambda s, i, a: alg.girth(i[0])),
    "GetSpectralBisection": Op(lambda s, i, a: alg.spectral_bisection(i[0], **a)),
    "GetAlgebraicConnectivity": Op(
        lambda s, i, a: alg.algebraic_connectivity(i[0], **a)
    ),
    "Functions": Op(lambda s, i, a: s.registry.names(**a)),
    "NumFunctions": Op(lambda s, i, a: len(s.registry)),
}

#: The durable entries: the operations a WAL record may name.
OPS: "dict[str, Op]" = {name: op for name, op in SESSION_OPS.items() if op.durable}


def observed(session, name: str, op: Op, inputs, call: Callable):
    """Run ``call()`` as one call of ``name``, live or replayed: an
    ``engine.<name>`` span and a ``call_timings()`` entry, plus, while
    tracing is armed, the ``engine.<name>.seconds`` histogram and the
    entry's ``rates``."""
    start = time.perf_counter()
    with obs.trace(f"engine.{name}"):
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            session._record_timing(name, elapsed)
            if obs.enabled():
                obs.registry().histogram(f"engine.{name}.seconds").observe(elapsed)
        if op.rates is not None and obs.enabled():
            for metric, units in op.rates(inputs, result):
                obs.observe_rate(metric, units, elapsed)
    return result


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

    def replay():
        result = op.run(session, inputs, op.decode(session, record.args))
        if not record.mutates:
            session._publish_as(record.output, result)
        return result

    return observed(session, record.op, op, inputs, replay)


def tail_wal(session, directory, cursor: int = 0, retry_policy=None) -> dict:
    """Apply another WAL's ``ApplyOps`` records (``Ringo.TailWal``)."""
    wal_path = os.path.join(os.fspath(directory), WAL_FILENAME)
    durability = session._durability
    if durability is not None and (
        os.path.realpath(wal_path) == os.path.realpath(durability.wal.path)
    ):
        # The stream would re-read every record this loop appends.
        raise RecoveryError("a session cannot tail its own write-ahead log")
    report = {"applied_records": 0, "applied_ops": 0, "skipped": 0,
              "cursor": int(cursor), "error": None}
    for record in iter_wal(wal_path, WalTail()):
        if record.lsn <= report["cursor"]:
            continue

        def step(record=record):
            fault_point("incremental.wal.tail")
            if record.op != "ApplyOps":
                return None
            with session._catalog_lock:
                target = session._catalog.get(record.output)
            if not isinstance(target, (DirectedGraph, UndirectedGraph)):
                return None
            summary = apply_record(session, record)
            if durability is not None:
                durability.wal.append(
                    record.op, record.args, list(record.inputs), record.output
                )
            return summary

        try:
            if retry_policy is None:
                summary = step()
            else:
                summary = run_with_retry(
                    step, retry_policy, metric_prefix="incremental.wal.tail"
                )
        except Exception as err:
            # A fired fault or a diverged stream: report and stop with
            # the last fully-processed LSN so the caller can retry from
            # it. Nothing is applied twice or misreported as success.
            report["error"] = f"{type(err).__name__}: {err}"
            break
        if summary is None:
            report["skipped"] += 1
        else:
            report["applied_records"] += 1
            report["applied_ops"] += summary["applied"]
        report["cursor"] = record.lsn
    return report
