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
import os
import threading
from typing import Mapping, Sequence

from repro import obs, tables
from repro.algorithms.common import NodeValues
from repro.analysis import sanitize as _sanitize
from repro.core.registry import FunctionRegistry, build_default_registry
from repro.exceptions import RecoveryError
from repro.graphs.directed import DirectedGraph
from repro.graphs.snapshot import snapshot_cache as _default_snapshot_cache
from repro.graphs.undirected import UndirectedGraph
from repro.incremental.engine import incremental_engine as _incremental_engine
from repro.incremental.ingest import validate_ops
from repro.recovery import ops as _rops
from repro.recovery.wal import SessionDurability, WalTail
from repro.memory.budget import MemoryBudget
from repro.parallel.executor import WorkerPool
from repro.parallel.resilience import RetryPolicy
from repro.tables.strings import StringPool
from repro.tables.table import Table


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

    The constructor configures this session only. Delta maintenance is
    configured process-wide through
    ``repro.incremental.incremental_engine().configure(...)``, never by a
    session; the versioned CSR snapshot cache
    (``repro.graphs.snapshot.snapshot_cache()``) has nothing to set.
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
            self._arm_durability(durability)
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

    def _arm_durability(self, directory, tail: "WalTail | None" = None) -> None:
        """Open the write-ahead log under ``directory``.

        A fresh session (``tail=None``) refuses a directory that already
        holds durable state (LSNs and catalog names would collide with
        the old run's), so its log starts empty. :meth:`recover` passes
        the :class:`~repro.recovery.wal.WalTail` its replay scan ended
        at, so appends continue the existing sequence without a rescan.
        """
        from repro.recovery.checkpoint import ensure_fresh

        if self._durability is not None:
            raise RecoveryError("session durability is already armed")
        if tail is None:
            ensure_fresh(directory)
            tail = WalTail()
        self._durability = SessionDurability(directory, tail)

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
        """Run one entry of :data:`repro.recovery.ops.SESSION_OPS` — the
        one live path of every CamelCase method but the catalog
        accessors — as :meth:`_execute` under
        :func:`repro.recovery.ops.observed`'s bookkeeping."""
        op = _rops.SESSION_OPS[name]
        return _rops.observed(
            self, name, op, inputs, lambda: self._execute(name, op, inputs, args)
        )

    def _execute(self, name: str, op, inputs: tuple, args: dict):
        """Carry out one op-table entry, in one fixed order.

        An entry with an ``estimate`` is admitted by the memory budget
        (an over-budget call raises before anything is logged). A
        durable entry in a durable session then adopts inputs not yet in
        the catalog (snapshotted into the WAL) *before* the operator can
        mutate them; the arguments are encoded against that pre-state;
        the operator runs; the record is appended (flushed + fsync'd);
        and only then does the result become visible through
        :meth:`Objects` — the on-disk record is the commit point, so
        recovery can reconstruct every object a caller ever observed. An
        in-place mutation logs its target as both input and output and
        publishes nothing new. Any other call just runs, and publishes
        only if the op always does (loads, Join, ToGraph).
        """
        if self.budget is not None and op.estimate is not None:
            self.budget.admit(name, op.estimate(inputs, args))
        if self._durability is None or not op.durable:
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

        return recover_session(cls, directory, strict=strict, **session_kwargs)[0]

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

    def LoadTableTSV(self, schema, path, **kwargs) -> Table:
        """Load a TSV file into a table (paper §4.1 listing, line 1)."""
        if schema is None:
            # Resolved here so the record names it and replay skips
            # re-inference.
            schema = tables.infer_schema_tsv(path, **kwargs)
        args = {"schema": schema, "path": os.fspath(path), "kwargs": kwargs}
        return self._run_op("LoadTableTSV", (), args)

    def SaveTableTSV(self, table: Table, path, **kwargs) -> int:
        """Write a table as TSV; returns the row count."""
        return self._run_op("SaveTableTSV", (table,), dict(kwargs, path=path))

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

    def ToGraph(self, table: Table, src_col: str, dst_col: str, directed: bool = True):
        """Edge table → graph via the sort-first algorithm.

        Under a session memory budget an over-budget conversion raises
        :class:`~repro.exceptions.MemoryBudgetError` before any work. The
        graph is built privately and published to the session catalog
        only on success.
        """
        args = {"src_col": src_col, "dst_col": dst_col, "directed": bool(directed)}
        return self._run_op("ToGraph", (table,), args)

    def ToWeightedNetwork(
        self, table: Table, src_col: str, dst_col: str,
        weight_col: str | None = None,
    ):
        """Collapse duplicate edges into a weight-attributed Network."""
        args = {"src_col": src_col, "dst_col": dst_col, "weight_col": weight_col}
        return self._run_op("ToWeightedNetwork", (table,), args)

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
        args = {"directory": directory, "cursor": cursor, "retry_policy": retry_policy}
        return self._run_op("TailWal", (), args)

    def GetKTruss(self, graph, k: int):
        """The k-truss subgraph (edges with >= k-2 triangle supports)."""
        return self._run_op("GetKTruss", (graph,), {"k": k})

    def GetEdgeTable(self, graph) -> Table:
        """Graph → edge table (one gather of the adjacency vectors)."""
        return self._run_op("GetEdgeTable", (graph,), {})

    def GetNodeTable(self, graph, include_degrees: bool = False) -> Table:
        """Graph → node table, optionally with degree columns."""
        args = {"include_degrees": bool(include_degrees)}
        return self._run_op("GetNodeTable", (graph,), args)

    # ------------------------------------------------------------------
    # Graph analytics (§2.2's algorithm surface, paper-named)
    # ------------------------------------------------------------------

    def GetPageRank(self, graph, **kwargs) -> NodeValues:
        """PageRank scores (the demo's expert-ranking step)."""
        return self._run_op("GetPageRank", (graph,), kwargs)

    def GetHits(self, graph, **kwargs) -> tuple[NodeValues, NodeValues]:
        """HITS ``(hubs, authorities)``."""
        return self._run_op("GetHits", (graph,), kwargs)

    def GetTriangles(self, graph) -> int:
        """Total distinct triangles (Table 3's second benchmark)."""
        return self._run_op("GetTriangles", (graph,), {})

    def GetTriangleCounts(self, graph) -> NodeValues:
        """Per-node triangle participation counts."""
        return self._run_op("GetTriangleCounts", (graph,), {})

    def GetClusteringCoefficients(self, graph) -> NodeValues:
        """Local clustering coefficient per node."""
        return self._run_op("GetClusteringCoefficients", (graph,), {})

    def GetKCore(self, graph, k: int):
        """The k-core subgraph (Table 6 benchmarks ``k=3``)."""
        return self._run_op("GetKCore", (graph,), {"k": k})

    def GetCoreNumbers(self, graph) -> NodeValues:
        """Core number per node."""
        return self._run_op("GetCoreNumbers", (graph,), {})

    def GetSssp(self, graph, source: int, weight=None) -> Mapping[int, float]:
        """Single-source shortest paths (Table 6's SSSP)."""
        return self._run_op("GetSssp", (graph,), {"source": source, "weight": weight})

    def GetBfsLevels(self, graph, source: int, direction: str = "out") -> NodeValues:
        """BFS hop distances from a source."""
        args = {"source": source, "direction": direction}
        return self._run_op("GetBfsLevels", (graph,), args)

    def GetScc(self, graph) -> NodeValues:
        """Strongly connected component labels (Table 6's SCC)."""
        return self._run_op("GetScc", (graph,), {})

    def GetWcc(self, graph) -> NodeValues:
        """Weakly connected component labels."""
        return self._run_op("GetWcc", (graph,), {})

    def GetDegreeCentrality(self, graph, mode: str = "total") -> NodeValues:
        """Degree centrality."""
        return self._run_op("GetDegreeCentrality", (graph,), {"mode": mode})

    def GetCommunities(self, graph, **kwargs) -> NodeValues:
        """Label-propagation communities."""
        return self._run_op("GetCommunities", (graph,), kwargs)

    def GetDiameter(self, graph, **kwargs) -> int:
        """(Sampled) diameter."""
        return self._run_op("GetDiameter", (graph,), kwargs)

    def GetEffectiveDiameter(self, graph, **kwargs) -> float:
        """(Sampled) 90th-percentile effective diameter."""
        return self._run_op("GetEffectiveDiameter", (graph,), kwargs)

    def GetDegreeDistribution(self, graph, mode: str = "total") -> Table:
        """Degree histogram as a session table."""
        return self._run_op("GetDegreeDistribution", (graph,), {"mode": mode})

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

    def GetKatz(self, graph, **kwargs) -> NodeValues:
        """Katz centrality."""
        return self._run_op("GetKatz", (graph,), kwargs)

    def GetTriadCensus(self, graph) -> dict[str, int]:
        """The 16-class directed triad census."""
        return self._run_op("GetTriadCensus", (graph,), {})

    def GetArticulationPoints(self, graph) -> set[int]:
        """Cut vertices of the undirected projection."""
        return self._run_op("GetArticulationPoints", (graph,), {})

    def GetBridges(self, graph) -> set[tuple[int, int]]:
        """Cut edges of the undirected projection."""
        return self._run_op("GetBridges", (graph,), {})

    def GetColoring(self, graph, strategy: str = "degree") -> NodeValues:
        """Greedy proper node colouring."""
        return self._run_op("GetColoring", (graph,), {"strategy": strategy})

    def IsBipartite(self, graph) -> bool:
        """Whether the undirected projection is 2-colourable."""
        return self._run_op("IsBipartite", (graph,), {})

    def GetLinkPredictions(self, graph, k: int = 10, scorer=None) -> list:
        """Top-k predicted links by a similarity index (Jaccard default)."""
        return self._run_op("GetLinkPredictions", (graph,), {"k": k, "scorer": scorer})

    def GetWeightedPageRank(self, network, weight_attr: str, **kwargs) -> NodeValues:
        """PageRank with rank spread proportional to edge weights."""
        args = dict(kwargs, weight_attr=weight_attr)
        return self._run_op("GetWeightedPageRank", (network,), args)

    def GetEgonet(self, graph, center: int, radius: int = 1, direction: str = "both"):
        """The induced subgraph around one node."""
        args = {"center": center, "radius": radius, "direction": direction}
        return self._run_op("GetEgonet", (graph,), args)

    def Describe(self, table: Table) -> Table:
        """Per-column summary statistics."""
        return self._run_op("Describe", (table,), {})

    def Crosstab(self, table: Table, row_col: str, col_col: str, agg: str = "count", value_col: str | None = None) -> Table:
        """Wide-format cross-tabulation of two key columns."""
        args = dict(row_col=row_col, col_col=col_col, agg=agg, value_col=value_col)
        return self._run_op("Crosstab", (table,), args)

    def Quantiles(self, table: Table, column: str, probabilities) -> list[float]:
        """Quantiles of a numeric column."""
        args = {"column": column, "probabilities": probabilities}
        return self._run_op("Quantiles", (table,), args)

    def GetMaxFlow(self, graph, source: int, sink: int, capacity=None) -> float:
        """Maximum s-t flow (Dinic)."""
        args = {"source": source, "sink": sink, "capacity": capacity}
        return self._run_op("GetMaxFlow", (graph,), args)

    def GetMinCut(self, graph, source: int, sink: int, capacity=None) -> tuple[set[int], set[int]]:
        """Minimum s-t cut node partition."""
        args = {"source": source, "sink": sink, "capacity": capacity}
        return self._run_op("GetMinCut", (graph,), args)

    def GetMatching(self, graph) -> dict[int, int]:
        """Maximum bipartite matching (Hopcroft-Karp)."""
        return self._run_op("GetMatching", (graph,), {})

    def ToCoOccurrenceGraph(
        self, table: Table, group_col: str, actor_col: str,
        max_group_size: int | None = None,
    ):
        """Link actors sharing a group value (§4.1's alternative build)."""
        args = dict(
            group_col=group_col, actor_col=actor_col, max_group_size=max_group_size
        )
        return self._run_op("ToCoOccurrenceGraph", (table,), args)

    def GetSnapshots(
        self, table: Table, time_col: str, src_col: str, dst_col: str,
        window: float, cumulative: bool = False,
    ):
        """Time-windowed interaction graphs from an event table."""
        args = dict(
            time_col=time_col, src_col=src_col, dst_col=dst_col,
            window=window, cumulative=cumulative,
        )
        return self._run_op("GetSnapshots", (table,), args)

    def FindCycle(self, graph) -> "list[int] | None":
        """One directed cycle (closed node list), or None."""
        return self._run_op("FindCycle", (graph,), {})

    def GetGirth(self, graph) -> "int | None":
        """Shortest cycle length of the undirected projection."""
        return self._run_op("GetGirth", (graph,), {})

    def GetSpectralBisection(self, graph, seed: int = 0) -> tuple[set[int], set[int]]:
        """Two-way partition by the Fiedler vector's sign."""
        return self._run_op("GetSpectralBisection", (graph,), {"seed": seed})

    def GetAlgebraicConnectivity(self, graph, seed: int = 0) -> float:
        """Second-smallest Laplacian eigenvalue."""
        return self._run_op("GetAlgebraicConnectivity", (graph,), {"seed": seed})

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
        return self._run_op("SaveTableBinary", (table,), {"path": path})

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
        # One cache reading feeds both its section and the derived hit
        # ratio, so the two always agree.
        cache = self._snapshot_cache.stats()
        report = {
            "workers": self.workers_info(),
            # benchmarks/e2e/wl_analytics.py reads exactly this shape;
            # kernels only run on the session's thread pool, so
            # "processes" is always 0.
            "parallel": {
                "decisions": {"threads": self.workers.stats.calls, "processes": 0}
            },
            "memory_budget": None if self.budget is None else self.budget.snapshot(),
            "snapshot_cache": cache,
            "incremental": _incremental_engine().stats(),
            "analysis": {"sanitizer": _sanitize.stats()},
            "obs": self._obs_report(cache),
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

    def _obs_report(self, cache: dict) -> dict:
        """The ``health()["obs"]`` section: spans, metrics, derived ratios
        (the hit ratio from ``cache``, the section's own cache reading)."""
        tracer = obs.current_tracer()
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
        return self._run_op("Functions", (), {"category": category})

    def NumFunctions(self) -> int:
        """Size of the analytics surface — the paper's "over 200" claim."""
        return self._run_op("NumFunctions", (), {})
