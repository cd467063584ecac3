"""The Ringo session — the paper's Python front-end (paper §2.5, §4.1).

One :class:`Ringo` object plays the role of the ``ringo`` module in the
paper's demo listing; its methods keep the paper's exact names and call
shapes::

    ringo = Ringo()
    P  = ringo.LoadTableTSV(schema, 'posts.tsv')
    JP = ringo.Select(P, 'Tag=Java')
    Q  = ringo.Select(JP, 'Type=question')
    A  = ringo.Select(JP, 'Type=answer')
    QA = ringo.Join(Q, A, 'AnswerId', 'PostId')
    G  = ringo.ToGraph(QA, 'UserId-1', 'UserId-2')
    PR = ringo.GetPageRank(G)
    S  = ringo.TableFromHashMap(PR, 'User', 'Scr')

The session owns a shared string pool (so every table it creates is
join-compatible) and a worker pool (the §2.5 OpenMP stand-in) used by
the parallel operations.
"""

from __future__ import annotations

import copy
import functools
import os
import threading
import time
from typing import Mapping, Sequence

from repro import algorithms as alg
from repro import convert, obs, tables
from repro.algorithms.common import NodeValues
from repro.analysis import sanitize as _sanitize
from repro.core.registry import FunctionRegistry, build_default_registry
from repro.exceptions import RecoveryError
from repro.faults import fault_point
from repro.graphs.directed import DirectedGraph
from repro.graphs.snapshot import snapshot_cache as _default_snapshot_cache
from repro.graphs.undirected import UndirectedGraph
from repro.incremental.engine import incremental_engine as _incremental_engine
from repro.incremental.ingest import validate_ops
from repro.recovery import ops as _rops
from repro.recovery.wal import SessionDurability
from repro.memory.budget import MemoryBudget
from repro.parallel.executor import WorkerPool
from repro.parallel.resilience import RetryPolicy, run_with_retry
from repro.tables.strings import StringPool
from repro.tables.table import Table


def _timed(method):
    """Record per-call wall-clock time under the method's name.

    Applied to the analytics and conversion methods so an interactive
    session can show where its time went (``call_timings()`` /
    ``health()["timings"]``) — in particular, that a warm repeat of an
    algorithm skips the snapshot-conversion cost.

    When tracing is armed the call also becomes an ``engine.<Method>``
    span (the root of that operation's span tree) and its latency lands
    in the ``engine.<Method>.seconds`` histogram.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        start = time.perf_counter()
        with obs.trace(f"engine.{method.__name__}"):
            try:
                return method(self, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._record_timing(method.__name__, elapsed)
                if obs.enabled():
                    obs.registry().histogram(
                        f"engine.{method.__name__}.seconds"
                    ).observe(elapsed)

    return wrapper


class Ringo:
    """An interactive analytics session.

    ``memory_budget`` caps the estimated transient allocation of big
    conversions and joins (bytes, or a pre-built
    :class:`~repro.memory.budget.MemoryBudget`): an operation whose
    estimate exceeds it raises
    :class:`~repro.exceptions.MemoryBudgetError` before any work.
    ``retry_policy`` arms the worker pool's transparent retries of
    :class:`~repro.exceptions.TransientError`.

    Objects built by the session are published to its catalog only after
    a build fully succeeds, so a mid-build failure never leaves a
    partial table or graph visible through :meth:`Objects`.

    The constructor configures this session only. Process-wide layers
    are configured through their own modules, never by a session: the
    versioned CSR snapshot cache via
    ``repro.graphs.snapshot.snapshot_cache().configure(...)`` and delta
    maintenance via ``repro.incremental.incremental_engine().configure(...)``.
    Back-to-back analytics on an unchanged graph
    share one conversion, verifiable via ``health()["snapshot_cache"]``
    and the per-call timers in ``call_timings()``.

    ``trace`` arms the observability layer (:mod:`repro.obs`): ``True``
    installs the process-wide tracer with its in-memory recorder, a
    string adds a JSON-lines sink at that path, and the default ``None``
    defers to the ``RINGO_TRACE`` environment variable. Span and metric
    counters surface under ``health()["obs"]``; :meth:`profile` renders
    the recorded span tree.

    ``durability`` arms crash-consistent durability
    (:mod:`repro.recovery`): pass a directory and every
    catalog-mutating operation appends a CRC32-framed, fsync'd
    write-ahead-log record *before* its result is published.
    :meth:`checkpoint` snapshots the catalog atomically with per-array
    checksums; after a crash, :meth:`recover` reconstructs the session
    from the newest valid checkpoint plus WAL replay. Durable sessions
    publish every recorded result to the catalog (so derivations can
    reference their inputs by id); the durability directory must be
    empty the first time — resume an existing one with
    :meth:`recover`.

    >>> ringo = Ringo(workers=1)
    >>> table = ringo.TableFromColumns({"a": [1, 2], "b": [2, 3]})
    >>> graph = ringo.ToGraph(table, "a", "b")
    >>> graph.num_edges
    2
    """

    def __init__(
        self,
        workers: int | None = None,
        memory_budget: "MemoryBudget | int | None" = None,
        retry_policy: RetryPolicy | None = None,
        trace: "bool | str | None" = None,
        durability: "str | os.PathLike[str] | None" = None,
    ) -> None:
        self.pool = StringPool()
        self.workers = WorkerPool(workers, retry_policy=retry_policy)
        self.budget = MemoryBudget.coerce(memory_budget)
        self.registry: FunctionRegistry = build_default_registry()
        # Catalog state is guarded so health()/Objects() polled from a
        # monitoring thread (the session service's health endpoint) can
        # never observe a dict mid-mutation. Mutating *operations* stay
        # single-threaded per session — the lock makes reads safe, it
        # does not make two concurrent Selects safe.
        self._catalog_lock = threading.RLock()
        self._catalog: dict[str, object] = {}
        self._publish_counter = 0
        self._object_names: dict[int, str] = {}
        self._durability: "SessionDurability | None" = None
        self._recovery_report: "dict | None" = None
        if durability:
            self._arm_durability(durability, resume=False)
        # The snapshot cache is process-wide; the session only reports it.
        self._snapshot_cache = _default_snapshot_cache()
        self._timings: dict[str, dict] = {}
        self._timings_lock = threading.Lock()
        # Tracing is process-wide; the session owns (and tears down)
        # only a tracer it actually installed.
        self._owned_tracer: "obs.Tracer | None" = None
        if trace is None and not obs.enabled():
            self._owned_tracer = obs.enable_from_env()
        elif trace:
            if obs.enabled():
                pass  # an armed tracer (session fixture, CLI) wins
            elif isinstance(trace, str):
                self._owned_tracer = obs.enable(
                    sinks=[obs.RingBufferSink(), obs.JsonlSink(trace)]
                )
            else:
                self._owned_tracer = obs.enable()

    # ------------------------------------------------------------------
    # Catalog: atomic publish of session-built objects
    # ------------------------------------------------------------------

    def _publish(self, kind: str, obj):
        """Register a fully built object; called only after success."""
        with self._catalog_lock:
            return self._publish_as(f"{kind}-{self._publish_counter + 1}", obj)

    def _publish_as(self, name: str, obj):
        """Register an object under an explicit catalog name (replay),
        advancing the publish counter past it."""
        with self._catalog_lock:
            self._catalog[name] = obj
            self._object_names[id(obj)] = name
            self._publish_counter = max(
                self._publish_counter, _rops.name_suffix(name)
            )
        return obj

    def _arm_durability(self, directory, resume: bool = False) -> None:
        """Open the write-ahead log under ``directory``.

        A fresh session refuses a directory that already holds durable
        state (LSNs and catalog names would collide with the old run's);
        :meth:`recover` passes ``resume=True`` after reconstructing the
        catalog, so appends continue the existing sequence.
        """
        from repro.recovery.checkpoint import ensure_fresh

        if self._durability is not None:
            raise RecoveryError("session durability is already armed")
        if not resume:
            ensure_fresh(directory)
        self._durability = SessionDurability(directory)

    def _require_ref(self, obj) -> str:
        """The catalog id of ``obj``, adopting it into the WAL if unknown.

        Durable operations reference their inputs by catalog id. An
        input built outside the recorded surface (a table handed in
        from user code) is *adopted*: its full contents are logged as
        an inline ``__adopt_*__`` record and it is published, making
        the log self-contained.
        """
        with self._catalog_lock:
            name = self._object_names.get(id(obj))
            if name is not None and self._catalog.get(name) is obj:
                return name
        if isinstance(obj, Table):
            op = "__adopt_table__"
        elif isinstance(obj, (DirectedGraph, UndirectedGraph)):
            op = "__adopt_graph__"
        else:
            raise RecoveryError(
                f"durable operations cannot reference a {type(obj).__name__} "
                f"input that is not in the session catalog"
            )
        self._run_op(op, (), {"object": obj})
        return self._object_names[id(obj)]

    def _run_op(self, name: str, inputs: tuple, args: dict):
        """Run one durable operation through its op-table entry.

        The single live path for every entry of
        :data:`repro.recovery.ops.OPS`, in one fixed order: an entry
        with an ``estimate`` is admitted by the session's memory budget
        (an over-budget call raises before anything is logged); inputs
        not yet in the catalog are adopted (snapshotted into the WAL)
        *before* the operator can mutate them; the arguments are
        encoded against that same pre-state; the operator runs; the
        record is appended (flushed + fsync'd); and only then does the
        result become visible through :meth:`Objects` — the on-disk
        record is the commit point, so recovery can reconstruct every
        object a caller ever observed. An in-place mutation logs its
        target as both input and output and publishes nothing new.

        Without durability armed this reduces to the legacy behaviour:
        only ops that always published (loads, Join, ToGraph) publish,
        everything else passes through.
        """
        op = _rops.OPS[name]
        if self.budget is not None and op.estimate is not None:
            self.budget.admit(name, op.estimate(inputs, args))
        if self._durability is None:
            result = op.run(self, inputs, args)
            if op.always_publish:
                self._publish(op.kind, result)
            return result
        refs = [self._require_ref(value) for value in inputs]
        wal_args = op.encode(self, args, inputs)
        result = op.run(self, inputs, args)
        if op.mutates_with(args):
            self._durability.wal.append(name, wal_args, refs, refs[0])
            return result
        output = f"{op.kind}-{self._publish_counter + 1}"
        self._durability.wal.append(name, wal_args, refs, output)
        return self._publish_as(output, result)

    def _record_timing(self, name: str, seconds: float) -> None:
        """Fold one call's wall-clock time into the per-method counters."""
        with self._timings_lock:
            entry = self._timings.setdefault(name, {"calls": 0, "seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += seconds

    def Objects(self) -> list[str]:
        """Names of objects the session has successfully published."""
        with self._catalog_lock:
            return list(self._catalog)

    def GetObject(self, name: str):
        """Look up a published object by catalog name."""
        with self._catalog_lock:
            return self._catalog[name]

    def checkpoint(self, directory=None) -> dict:
        """Write an atomic, checksummed snapshot of the session catalog.

        Every catalogued table and graph is serialised with per-array
        CRC32 digests into a temp directory that is renamed into place
        in one step, so a crash mid-checkpoint never leaves a
        readable-but-wrong state. Returns the checkpoint manifest.
        Defaults to the armed durability directory; recovery replays
        only the WAL suffix past the newest valid checkpoint.
        """
        from repro.recovery.checkpoint import write_checkpoint

        if directory is None:
            if self._durability is None:
                raise RecoveryError(
                    "checkpoint() needs a directory when durability is not armed"
                )
            directory = self._durability.directory
        with obs.trace("recovery.checkpoint"):
            manifest = write_checkpoint(self, directory)
        if self._durability is not None:
            self._durability.checkpoints_written += 1
        return manifest

    @classmethod
    def recover(cls, directory, strict: bool = False, **session_kwargs) -> "Ringo":
        """Reconstruct a crashed session from its durability directory.

        Restores the newest valid checkpoint (checksum-verified;
        corrupt artifacts are quarantined with a typed
        :class:`~repro.exceptions.CorruptionError`, never loaded
        silently) and replays the write-ahead log through the normal
        operator dispatch. The returned session is re-armed on the same
        directory; its recovery report is available under
        ``health()["recovery"]["last_recovery"]``. With ``strict=True``
        an unrecoverable object raises instead of being reported.
        """
        from repro.recovery.recover import recover_session

        return recover_session(cls, directory, strict=strict, **session_kwargs)

    def close(self) -> None:
        """Shut down the worker pool (and any tracer this session armed)."""
        self.workers.close()
        if self._durability is not None:
            self._durability.close()
        if self._owned_tracer is not None and obs.current_tracer() is self._owned_tracer:
            obs.disable()

    def __enter__(self) -> "Ringo":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Table input/output
    # ------------------------------------------------------------------

    @_timed
    def LoadTableTSV(self, schema, path, **kwargs) -> Table:
        """Load a TSV file into a table (paper §4.1 listing, line 1)."""
        start = time.perf_counter()
        if schema is None:
            # Resolved here so the record names it and replay skips
            # re-inference.
            schema = tables.infer_schema_tsv(path, **kwargs)
        args = {"schema": schema, "path": os.fspath(path), "kwargs": kwargs}
        table = self._run_op("LoadTableTSV", (), args)
        if obs.enabled():
            obs.observe_rate(
                "io.tsv.rows", table.num_rows, time.perf_counter() - start
            )
        return table

    def SaveTableTSV(self, table: Table, path, **kwargs) -> int:
        """Write a table as TSV; returns the row count."""
        return tables.save_table_tsv(table, path, **kwargs)

    def TableFromColumns(self, data, schema=None) -> Table:
        """Build a table from per-column data (session-pooled)."""
        table = Table.from_columns(data, schema=schema, pool=self.pool)
        return self._run_op("TableFromColumns", (), {"object": table})

    def TableFromHashMap(self, mapping: Mapping, key_col: str, value_col: str) -> Table:
        """Result map → two-column table (paper §4.1 listing, last line)."""
        args = {"mapping": mapping, "key_col": key_col, "value_col": value_col}
        return self._run_op("TableFromHashMap", (), args)

    # ------------------------------------------------------------------
    # Relational operations (§2.3)
    # ------------------------------------------------------------------

    def Select(self, table: Table, predicate, in_place: bool = False) -> Table:
        """Filter rows by predicate string/mask (``'Tag=Java'``)."""
        args = {"predicate": predicate, "in_place": bool(in_place)}
        return self._run_op("Select", (table,), args)

    @_timed
    def Join(self, left: Table, right: Table, left_col, right_col=None, **kwargs) -> Table:
        """Inner equi-join; always a new table, clashes suffixed -1/-2.

        Under a session memory budget an over-budget join raises
        :class:`~repro.exceptions.MemoryBudgetError` before any work.
        """
        args = {"left_on": left_col, "right_on": right_col, "kwargs": kwargs}
        return self._run_op("Join", (left, right), args)

    def Project(self, table: Table, columns: Sequence[str]) -> Table:
        """Keep only the named columns."""
        return self._run_op("Project", (table,), {"columns": list(columns)})

    def Rename(self, table: Table, mapping: Mapping[str, str]) -> Table:
        """Rename columns (new table, shared data)."""
        return self._run_op("Rename", (table,), {"mapping": dict(mapping)})

    def GroupBy(self, table: Table, keys, aggregations=None) -> Table:
        """Group & aggregate."""
        args = {"keys": keys, "aggregations": aggregations}
        return self._run_op("GroupBy", (table,), args)

    def OrderBy(self, table: Table, keys, ascending: bool = True, in_place: bool = False) -> Table:
        """Sort rows."""
        args = {
            "keys": keys, "ascending": bool(ascending), "in_place": bool(in_place),
        }
        return self._run_op("OrderBy", (table,), args)

    def Union(self, left: Table, right: Table, distinct: bool = True) -> Table:
        """Set union (UNION ALL with ``distinct=False``)."""
        return self._run_op("Union", (left, right), {"distinct": bool(distinct)})

    def Intersect(self, left: Table, right: Table) -> Table:
        """Set intersection."""
        return self._run_op("Intersect", (left, right), {})

    def Minus(self, left: Table, right: Table) -> Table:
        """Set difference."""
        return self._run_op("Minus", (left, right), {})

    def SimJoin(self, left: Table, right: Table, on, threshold: float, **kwargs) -> Table:
        """Similarity join: rows whose key distance is below threshold."""
        args = {"on": on, "threshold": float(threshold), "kwargs": kwargs}
        return self._run_op("SimJoin", (left, right), args)

    def NextK(self, table: Table, order_col: str, k: int, group_col: str | None = None) -> Table:
        """Temporal predecessor/successor join."""
        args = {"order_col": order_col, "k": int(k), "group_col": group_col}
        return self._run_op("NextK", (table,), args)

    def Distinct(self, table: Table, columns: Sequence[str] | None = None) -> Table:
        """Unique rows (first occurrence kept)."""
        args = {"columns": None if columns is None else list(columns)}
        return self._run_op("Distinct", (table,), args)

    def Limit(self, table: Table, count: int) -> Table:
        """The first ``count`` rows."""
        return self._run_op("Limit", (table,), {"count": int(count)})

    def TopK(self, table: Table, column: str, k: int, ascending: bool = False) -> Table:
        """The ``k`` extreme rows by one column."""
        args = {"column": column, "k": int(k), "ascending": bool(ascending)}
        return self._run_op("TopK", (table,), args)

    def ValueCounts(self, table: Table, column: str) -> Table:
        """Distinct values with occurrence counts, descending."""
        return self._run_op("ValueCounts", (table,), {"column": column})

    def WithColumn(self, table: Table, name: str, expression: str, as_int: bool = False) -> Table:
        """Append a computed column from an arithmetic expression.

        The column is added to ``table`` itself, which is returned.
        """
        args = {"name": name, "expression": expression, "as_int": bool(as_int)}
        return self._run_op("WithColumn", (table,), args)

    def Sample(self, table: Table, count: int, seed: int = 0) -> Table:
        """A uniform random row sample."""
        args = {"count": int(count), "seed": int(seed)}
        return self._run_op("Sample", (table,), args)

    # ------------------------------------------------------------------
    # Conversions (§2.4)
    # ------------------------------------------------------------------

    @_timed
    def ToGraph(self, table: Table, src_col: str, dst_col: str, directed: bool = True):
        """Edge table → graph via the sort-first algorithm.

        Under a session memory budget an over-budget conversion raises
        :class:`~repro.exceptions.MemoryBudgetError` before any work. The
        graph is built privately and published to the session catalog
        only on success.
        """
        start = time.perf_counter()
        args = {"src_col": src_col, "dst_col": dst_col, "directed": bool(directed)}
        graph = self._run_op("ToGraph", (table,), args)
        if obs.enabled():
            # The paper-styled rate metrics: rows/s in, edges/s out.
            elapsed = time.perf_counter() - start
            obs.observe_rate("engine.tograph.rows", table.num_rows, elapsed)
            obs.observe_rate("engine.tograph.edges", graph.num_edges, elapsed)
        return graph

    @_timed
    def ToWeightedNetwork(
        self, table: Table, src_col: str, dst_col: str,
        weight_col: str | None = None,
    ):
        """Collapse duplicate edges into a weight-attributed Network."""
        return convert.weighted_network_from_edges(
            table, src_col, dst_col, weight_col=weight_col
        )

    @_timed
    def ApplyOps(self, graph, ops) -> dict:
        """Fold a mutation op stream into a dynamic graph.

        ``ops`` is a JSON-safe list of ``["add_node", id]`` /
        ``["del_node", id]`` / ``["add_edge", src, dst]`` /
        ``["del_edge", src, dst]`` entries. The batch is atomic: it is
        validated once and resolved against the graph in order — each op
        sees the state the ops before it leave — and the first bad op
        raises, naming its position (``op #k``), before anything
        changes. The net change is then applied as arrays in one step,
        with one version bump, and recorded in the per-graph mutation
        log so subsequent analytics advance by delta instead of
        rebuilding. With durability armed the batch commits as one WAL
        record; recovery replays it through the same code path, and
        another session can stream it live via :meth:`TailWal`.

        Returns the ingest summary (``applied`` / ``skipped`` /
        ``version`` / ``nodes`` / ``edges``).
        """
        return self._run_op("ApplyOps", (graph,), {"ops": validate_ops(ops)})

    @_timed
    def TailWal(
        self,
        directory,
        cursor: int = 0,
        retry_policy: "RetryPolicy | None" = None,
    ) -> dict:
        """Stream committed ``ApplyOps`` records out of another WAL.

        Reads the write-ahead log under ``directory`` and applies every
        ``ApplyOps`` record with ``lsn > cursor`` whose target graph
        exists in *this* session's catalog (same name), through
        :func:`repro.recovery.ops.apply_record` — live streaming, crash
        replay and replication followers share one application path. A
        durable tailer commits each applied record to its own log as
        well. Records for unknown objects or other operations are
        counted under ``skipped`` and passed over.

        Returns ``{"applied_records", "applied_ops", "skipped",
        "cursor", "error"}``. ``cursor`` is the last LSN fully
        processed: on a fault (site ``incremental.wal.tail``) or apply
        failure, ``error`` is set and the tail stops early — calling
        again with the returned cursor resumes exactly where it left
        off, applying nothing twice.

        ``retry_policy`` hardens a long-lived tailer (the replication
        follower): transient per-record failures — an injected
        ``incremental.wal.tail`` fault, a torn read mid-rotation — are
        absorbed in place with jittered backoff instead of surfacing as
        a stopped tail; only exhaustion (or a non-transient error)
        stops with the resumable cursor. ``None`` keeps the strict
        stop-on-first-error semantics.
        """
        from repro.recovery.wal import WAL_FILENAME, read_wal

        records, _tail = read_wal(os.path.join(os.fspath(directory), WAL_FILENAME))
        applied_records = 0
        applied_ops = 0
        skipped = 0
        position = int(cursor)
        error = None
        for record in records:
            if record.lsn <= position:
                continue

            def step(record=record):
                fault_point("incremental.wal.tail")
                if record.op != "ApplyOps":
                    return None
                with self._catalog_lock:
                    target = self._catalog.get(record.output)
                if not isinstance(target, (DirectedGraph, UndirectedGraph)):
                    return None
                summary = _rops.apply_record(self, record)
                if self._durability is not None:
                    self._durability.wal.append(
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
                if summary is None:
                    skipped += 1
                else:
                    applied_records += 1
                    applied_ops += summary["applied"]
            except Exception as err:
                # A fired fault or a diverged stream: report and stop
                # with the last fully-processed LSN so the caller can
                # retry from it. Nothing is applied twice or half-way
                # misreported as success.
                error = f"{type(err).__name__}: {err}"
                break
            position = record.lsn
        return {
            "applied_records": applied_records,
            "applied_ops": applied_ops,
            "skipped": skipped,
            "cursor": position,
            "error": error,
        }

    @_timed
    def GetKTruss(self, graph, k: int):
        """The k-truss subgraph (edges with >= k-2 triangle supports)."""
        return alg.k_truss(graph, k)

    @_timed
    def GetEdgeTable(self, graph) -> Table:
        """Graph → edge table (one gather of the adjacency vectors)."""
        start = time.perf_counter()
        table = self._run_op("GetEdgeTable", (graph,), {})
        if obs.enabled():
            obs.observe_rate(
                "engine.edge_export.edges", table.num_rows,
                time.perf_counter() - start,
            )
        return table

    @_timed
    def GetNodeTable(self, graph, include_degrees: bool = False) -> Table:
        """Graph → node table, optionally with degree columns."""
        args = {"include_degrees": bool(include_degrees)}
        return self._run_op("GetNodeTable", (graph,), args)

    # ------------------------------------------------------------------
    # Graph analytics (§2.2's algorithm surface, paper-named)
    # ------------------------------------------------------------------

    @_timed
    def GetPageRank(self, graph, **kwargs) -> NodeValues:
        """PageRank scores (the demo's expert-ranking step)."""
        return alg.pagerank(graph, **kwargs)

    @_timed
    def GetHits(self, graph, **kwargs) -> tuple[NodeValues, NodeValues]:
        """HITS ``(hubs, authorities)``."""
        return alg.hits(graph, **kwargs)

    @_timed
    def GetTriangles(self, graph) -> int:
        """Total distinct triangles (Table 3's second benchmark)."""
        return alg.total_triangles(graph, pool=self.workers)

    @_timed
    def GetTriangleCounts(self, graph) -> NodeValues:
        """Per-node triangle participation counts."""
        return alg.triangle_counts(graph, pool=self.workers)

    @_timed
    def GetClusteringCoefficients(self, graph) -> NodeValues:
        """Local clustering coefficient per node."""
        return alg.clustering_coefficients(graph, pool=self.workers)

    @_timed
    def GetKCore(self, graph, k: int):
        """The k-core subgraph (Table 6 benchmarks ``k=3``)."""
        return alg.k_core(graph, k)

    @_timed
    def GetCoreNumbers(self, graph) -> NodeValues:
        """Core number per node."""
        return alg.core_numbers(graph)

    @_timed
    def GetSssp(self, graph, source: int, weight=None) -> Mapping[int, float]:
        """Single-source shortest paths (Table 6's SSSP)."""
        return alg.dijkstra(graph, source, weight=weight)

    @_timed
    def GetBfsLevels(self, graph, source: int, direction: str = "out") -> NodeValues:
        """BFS hop distances from a source."""
        return alg.bfs_levels(graph, source, direction=direction)

    @_timed
    def GetScc(self, graph) -> NodeValues:
        """Strongly connected component labels (Table 6's SCC)."""
        return alg.strongly_connected_components(graph)

    @_timed
    def GetWcc(self, graph) -> NodeValues:
        """Weakly connected component labels."""
        return alg.weakly_connected_components(graph, pool=self.workers)

    @_timed
    def GetDegreeCentrality(self, graph, mode: str = "total") -> NodeValues:
        """Degree centrality."""
        return alg.degree_centrality(graph, mode)

    @_timed
    def GetCommunities(self, graph, **kwargs) -> NodeValues:
        """Label-propagation communities."""
        return alg.label_propagation(graph, **kwargs)

    @_timed
    def GetDiameter(self, graph, **kwargs) -> int:
        """(Sampled) diameter."""
        return alg.diameter(graph, **kwargs)

    @_timed
    def GetEffectiveDiameter(self, graph, **kwargs) -> float:
        """(Sampled) 90th-percentile effective diameter."""
        return alg.effective_diameter(graph, **kwargs)

    @_timed
    def GetDegreeDistribution(self, graph, mode: str = "total") -> Table:
        """Degree histogram as a session table."""
        return alg.degree_distribution(graph, mode)

    def GenRMat(self, scale: int, num_edges: int, seed: int = 0, directed: bool = True):
        """R-MAT synthetic graph."""
        args = {
            "scale": int(scale), "num_edges": int(num_edges),
            "seed": int(seed), "directed": bool(directed),
        }
        return self._run_op("GenRMat", (), args)

    def GenPrefAttach(self, num_nodes: int, edges_per_node: int, seed: int = 0):
        """Barabási–Albert synthetic graph."""
        args = {
            "num_nodes": int(num_nodes),
            "edges_per_node": int(edges_per_node),
            "seed": int(seed),
        }
        return self._run_op("GenPrefAttach", (), args)

    def GenErdosRenyi(self, num_nodes: int, num_edges: int, directed: bool = False, seed: int = 0):
        """G(n, m) synthetic graph."""
        args = {
            "num_nodes": int(num_nodes), "num_edges": int(num_edges),
            "directed": bool(directed), "seed": int(seed),
        }
        return self._run_op("GenErdosRenyi", (), args)

    def GenPlantedPartition(
        self, num_communities: int, community_size: int,
        p_in: float, p_out: float, seed: int = 0,
    ):
        """Planted-partition synthetic graph (community-detection testbed)."""
        args = {
            "num_communities": int(num_communities),
            "community_size": int(community_size),
            "p_in": float(p_in), "p_out": float(p_out), "seed": int(seed),
        }
        return self._run_op("GenPlantedPartition", (), args)

    @_timed
    def GetKatz(self, graph, **kwargs) -> NodeValues:
        """Katz centrality."""
        return alg.katz_centrality(graph, **kwargs)

    @_timed
    def GetTriadCensus(self, graph) -> dict[str, int]:
        """The 16-class directed triad census."""
        return alg.triad_census(graph)

    @_timed
    def GetArticulationPoints(self, graph) -> set[int]:
        """Cut vertices of the undirected projection."""
        return alg.articulation_points(graph)

    @_timed
    def GetBridges(self, graph) -> set[tuple[int, int]]:
        """Cut edges of the undirected projection."""
        return alg.bridges(graph)

    @_timed
    def GetColoring(self, graph, strategy: str = "degree") -> NodeValues:
        """Greedy proper node colouring."""
        return alg.greedy_coloring(graph, strategy)

    @_timed
    def IsBipartite(self, graph) -> bool:
        """Whether the undirected projection is 2-colourable."""
        return alg.is_bipartite(graph)

    @_timed
    def GetLinkPredictions(self, graph, k: int = 10, scorer=None) -> list:
        """Top-k predicted links by a similarity index (Jaccard default)."""
        if scorer is None:
            scorer = alg.jaccard_coefficient
        return alg.top_predicted_links(graph, scorer=scorer, k=k)

    @_timed
    def GetWeightedPageRank(self, network, weight_attr: str, **kwargs) -> NodeValues:
        """PageRank with rank spread proportional to edge weights."""
        return alg.pagerank_weighted(network, weight_attr, **kwargs)

    def GetEgonet(self, graph, center: int, radius: int = 1, direction: str = "both"):
        """The induced subgraph around one node."""
        from repro.graphs.ops import ego_network

        return ego_network(graph, center, radius=radius, direction=direction)

    def Describe(self, table: Table) -> Table:
        """Per-column summary statistics."""
        return tables.describe(table, pool=self.pool)

    def Crosstab(self, table: Table, row_col: str, col_col: str, agg: str = "count", value_col: str | None = None) -> Table:
        """Wide-format cross-tabulation of two key columns."""
        return tables.crosstab(table, row_col, col_col, agg=agg, value_col=value_col)

    def Quantiles(self, table: Table, column: str, probabilities) -> list[float]:
        """Quantiles of a numeric column."""
        return tables.quantiles(table, column, probabilities)

    @_timed
    def GetMaxFlow(self, graph, source: int, sink: int, capacity=None) -> float:
        """Maximum s-t flow (Dinic)."""
        return alg.max_flow(graph, source, sink, capacity=capacity)

    @_timed
    def GetMinCut(self, graph, source: int, sink: int, capacity=None) -> tuple[set[int], set[int]]:
        """Minimum s-t cut node partition."""
        return alg.min_cut_partition(graph, source, sink, capacity=capacity)

    @_timed
    def GetMatching(self, graph) -> dict[int, int]:
        """Maximum bipartite matching (Hopcroft-Karp)."""
        return alg.hopcroft_karp(graph)

    @_timed
    def ToCoOccurrenceGraph(
        self, table: Table, group_col: str, actor_col: str,
        max_group_size: int | None = None,
    ):
        """Link actors sharing a group value (§4.1's alternative build)."""
        return convert.co_occurrence_graph(
            table, group_col, actor_col, max_group_size=max_group_size
        )

    def GetSnapshots(
        self, table: Table, time_col: str, src_col: str, dst_col: str,
        window: float, cumulative: bool = False,
    ):
        """Time-windowed interaction graphs from an event table."""
        from repro.workflows.temporal import temporal_snapshots

        return temporal_snapshots(
            table, time_col, src_col, dst_col, window, cumulative=cumulative
        )

    @_timed
    def FindCycle(self, graph) -> "list[int] | None":
        """One directed cycle (closed node list), or None."""
        return alg.find_cycle(graph)

    @_timed
    def GetGirth(self, graph) -> "int | None":
        """Shortest cycle length of the undirected projection."""
        return alg.girth(graph)

    @_timed
    def GetSpectralBisection(self, graph, seed: int = 0) -> tuple[set[int], set[int]]:
        """Two-way partition by the Fiedler vector's sign."""
        return alg.spectral_bisection(graph, seed=seed)

    @_timed
    def GetAlgebraicConnectivity(self, graph, seed: int = 0) -> float:
        """Second-smallest Laplacian eigenvalue."""
        return alg.algebraic_connectivity(graph, seed=seed)

    def GenConfigurationModel(self, degrees, seed: int = 0):
        """Random graph approximating a degree sequence."""
        args = {"degrees": [int(d) for d in degrees], "seed": int(seed)}
        return self._run_op("GenConfigurationModel", (), args)

    def Rewire(self, graph, swaps: int | None = None, seed: int = 0):
        """Degree-preserving double-edge-swap null model."""
        args = {"swaps": None if swaps is None else int(swaps), "seed": int(seed)}
        return self._run_op("Rewire", (graph,), args)

    def SaveTableBinary(self, table: Table, path) -> None:
        """Snapshot a table to a binary .npz archive."""
        tables.save_table_npz(table, path)

    def LoadTableBinary(self, path) -> Table:
        """Load a binary table snapshot (session-pooled)."""
        return self._run_op("LoadTableBinary", (), {"path": os.fspath(path)})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def workers_info(self) -> dict:
        """The worker pool's configuration and lifetime execution counters."""
        info: dict = {
            "workers": self.workers.workers,
            "mode": "serial" if self.workers.workers == 1 else "threads",
            "closed": self.workers.closed,
            "retry_policy": (
                None
                if self.workers.retry_policy is None
                else {
                    "max_attempts": self.workers.retry_policy.max_attempts,
                    "base_delay": self.workers.retry_policy.base_delay,
                }
            ),
        }
        info.update(self.workers.stats.snapshot())
        return info

    def call_timings(self) -> dict:
        """Per-method call counts and cumulative seconds.

        Every timed analytics/conversion method contributes
        ``{"calls": n, "seconds": total}`` under its own name; the warm
        repeat of an algorithm on an unchanged graph shows up here as a
        second call that took a fraction of the first.
        """
        with self._timings_lock:
            return {name: dict(entry) for name, entry in self._timings.items()}

    def health(self) -> dict:
        """One structured snapshot of the session's resilience state.

        Reports worker downgrades/retries/timeouts, the count of kernel
        dispatches to the worker pool (under ``"parallel"``), memory-budget
        admissions and denials, the published-object count, the snapshot
        cache's hit/miss/invalidation/byte counters, the per-call timing
        totals, the snapshot sanitizer's counters under ``"analysis"``,
        and the observability
        layer's span/metric state under ``"obs"`` — the session-level
        view an operator (or a test) checks after a fault or when
        validating conversion reuse.

        The returned structure is a deep copy: callers may mutate it
        freely without reaching back into live engine state.
        """
        # One consistent view of the catalog, not a racing iteration.
        with self._catalog_lock:
            object_names = list(self._catalog)
        report = {
            "workers": self.workers_info(),
            # benchmarks/e2e/wl_analytics.py reads exactly this shape;
            # kernels only run on the session's thread pool, so
            # "processes" is always 0.
            "parallel": {
                "decisions": {"threads": self.workers.stats.calls, "processes": 0}
            },
            "memory_budget": None if self.budget is None else self.budget.snapshot(),
            "snapshot_cache": self._snapshot_cache.stats(),
            "incremental": _incremental_engine().stats(),
            "analysis": {"sanitizer": _sanitize.stats()},
            "obs": self._obs_report(),
            "recovery": self._recovery_report_section(),
            "timings": self.call_timings(),
            "objects": {
                "published": len(object_names),
                "names": object_names,
            },
        }
        # Sub-providers mostly hand back fresh dicts already, but some
        # nest lists (object names) or may evolve to share
        # state; one deep copy here makes the no-live-references
        # contract unconditional.
        return copy.deepcopy(report)

    def _recovery_report_section(self) -> dict:
        """The ``health()["recovery"]`` section: durability + last recovery."""
        report: dict = {"armed": self._durability is not None}
        if self._durability is not None:
            report.update(self._durability.stats())
        report["last_recovery"] = self._recovery_report
        return report

    def _obs_report(self) -> dict:
        """The ``health()["obs"]`` section: spans, metrics, derived ratios."""
        tracer = obs.current_tracer()
        cache = self._snapshot_cache.stats()
        lookups = cache["hits"] + cache["misses"] + cache["invalidations"]
        report: dict = {
            "enabled": tracer is not None,
            "spans": None if tracer is None else tracer.stats(),
            "metrics": obs.registry().snapshot(),
            "derived": {
                "snapshot_hit_ratio": (
                    cache["hits"] / lookups if lookups else None
                ),
            },
        }
        return report

    def profile(self, min_total_s: float = 0.0) -> str:
        """Render the recorded span tree with per-node self/total times.

        Requires tracing (``Ringo(trace=True)`` / ``RINGO_TRACE``); the
        report covers whatever the tracer's in-memory recorder currently
        retains, newest-capacity-bounded (see
        :class:`repro.obs.RingBufferSink`).
        """
        tracer = obs.current_tracer()
        if tracer is None:
            return "(tracing is not enabled — pass Ringo(trace=True) or set RINGO_TRACE=1)"
        return obs.render_profile(tracer.ring_records(), min_total_s=min_total_s)

    def Functions(self, category: str | None = None) -> list[str]:
        """Registered function names (optionally one category)."""
        return self.registry.names(category)

    def NumFunctions(self) -> int:
        """Size of the analytics surface — the paper's "over 200" claim."""
        return len(self.registry)
