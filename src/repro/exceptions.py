"""Exception hierarchy for the Ringo reproduction.

Every error raised deliberately by this package derives from
:class:`RingoError`, so callers embedding the engine can catch one type.
"""

from __future__ import annotations


class RingoError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RingoError):
    """A table schema is malformed or an operation violates it."""


class ColumnNotFoundError(SchemaError):
    """A referenced column does not exist in the table."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = tuple(available)
        hint = f"; available columns: {', '.join(self.available)}" if available else ""
        super().__init__(f"column {name!r} not found{hint}")


class TypeMismatchError(SchemaError):
    """An operation combined columns or values of incompatible types."""


class GraphError(RingoError):
    """A graph structure was used incorrectly."""


class NodeNotFoundError(GraphError):
    """A referenced node id is not present in the graph."""

    def __init__(self, node_id: int, op: "int | None" = None):
        self.node_id = node_id
        where = "" if op is None else f"op #{op}: "
        super().__init__(f"{where}node {node_id} not in graph")


class EdgeNotFoundError(GraphError):
    """A referenced edge is not present in the graph."""

    def __init__(self, src: int, dst: int, op: "int | None" = None):
        self.src = src
        self.dst = dst
        where = "" if op is None else f"op #{op}: "
        super().__init__(f"{where}edge ({src} -> {dst}) not in graph")


class ExpressionError(RingoError):
    """A selection predicate string could not be parsed or evaluated."""


class ExecutionError(RingoError):
    """Parallel or resilient execution failed (pool, retry, deadline)."""


class PoolClosedError(ExecutionError):
    """A :class:`WorkerPool` was used after ``close()``."""

    def __init__(self, workers: int):
        self.workers = workers
        super().__init__(
            f"worker pool ({workers} workers) was used after close()"
        )


class WorkerTimeoutError(ExecutionError):
    """A pool call exceeded its deadline; outstanding work was cancelled."""

    def __init__(self, timeout: float, pending: int, cancelled: int):
        self.timeout = timeout
        self.pending = pending
        self.cancelled = cancelled
        super().__init__(
            f"parallel call exceeded {timeout:.3f}s deadline; "
            f"{pending} partition(s) unfinished, {cancelled} cancelled"
        )


class TransientError(ExecutionError):
    """A retryable failure — a :class:`RetryPolicy` may re-attempt it."""


class InjectedFaultError(TransientError):
    """A fault deliberately raised by :mod:`repro.faults` at a fault site."""

    def __init__(self, site: str, trigger: int):
        self.site = site
        self.trigger = trigger
        super().__init__(f"injected fault at site {site!r} (trigger #{trigger})")


class RetryExhaustedError(ExecutionError):
    """A retried operation kept failing through all allowed attempts."""

    def __init__(self, attempts: int, last_error: BaseException):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"operation failed after {attempts} attempt(s); "
            f"last error: {type(last_error).__name__}: {last_error}"
        )


class MemoryBudgetError(RingoError):
    """An operation's estimated allocation exceeds the session budget."""

    def __init__(self, operation: str, estimated: int, limit: int):
        self.operation = operation
        self.estimated = estimated
        self.limit = limit
        super().__init__(
            f"{operation} estimated at {estimated} bytes exceeds the "
            f"session memory budget of {limit} bytes"
        )


class AnalysisError(RingoError):
    """The static-analysis / runtime-checking subsystem found a problem.

    Base class for the correctness tooling in :mod:`repro.analysis`:
    lint-framework failures and snapshot-sanitizer violations both
    derive from it, so a session embedding the checkers can catch one
    type.
    """


class SanitizerError(AnalysisError):
    """A CSR snapshot violated a structural invariant after conversion."""

    def __init__(self, check: str, detail: str):
        self.check = check
        self.detail = detail
        super().__init__(f"snapshot sanitizer: {check} failed — {detail}")


class CorruptionError(RingoError):
    """A persisted artifact failed integrity verification.

    Raised (or reported through ``Ringo.health()["recovery"]``) when a
    checksum does not match the bytes on disk: a bit-flipped checkpoint
    array, a torn write-ahead-log frame, or a garbled snapshot file.
    Carries the artifact path and a human-readable reason so operators
    can find the quarantined file.
    """

    def __init__(self, path: str, reason: str, array: "str | None" = None):
        self.path = str(path)
        self.array = array
        self.reason = reason
        where = f" (array {array!r})" if array else ""
        super().__init__(f"{path}{where}: {reason}")


class CorruptInputError(CorruptionError):
    """An input file (NPZ/TSV snapshot) is truncated or garbled.

    The typed replacement for the raw ``zipfile``/``numpy`` exceptions a
    damaged binary snapshot used to leak, and for the generic schema
    error a mid-row-truncated TSV used to raise. ``path`` names the
    file and ``array`` (when known) the offending member.
    """


class RecoveryError(RingoError):
    """The durability layer was misused or could not make progress."""


class ReplayError(RecoveryError):
    """Replaying a write-ahead-log record did not reproduce the catalog.

    Raised when a logged operation cannot be re-executed (unknown op,
    missing input object) or re-executes to a different catalog name
    than the one the log committed.
    """

    def __init__(self, lsn: int, op: str, reason: str):
        self.lsn = lsn
        self.op = op
        self.reason = reason
        super().__init__(f"WAL record {lsn} ({op}): {reason}")


class ServiceError(RingoError):
    """The multi-tenant session service refused or failed a request.

    Base class for the typed rejections :mod:`repro.service` returns in
    place of crashes: admission denials, shed requests, and expired
    deadlines all derive from it, so a client can catch one type.
    """


class AdmissionRejected(ServiceError):
    """The service's byte ledger cannot admit another resident session.

    The typed replacement for an OOM: a tenant whose budget does not fit
    the machine (even after evicting every idle session) is refused at
    the front door rather than allowed to take the server down.
    """

    def __init__(self, tenant: str, requested: int, available: int):
        self.tenant = tenant
        self.requested = requested
        self.available = available
        super().__init__(
            f"tenant {tenant!r} needs {requested} bytes but only "
            f"{available} bytes of the service memory ledger are free"
        )


class AdmissionContention(AdmissionRejected, TransientError):
    """Admission denied by *current* contention, not by capacity.

    The tenant's budget would fit an empty ledger, but every charged
    byte belongs to a busy session right now. Sessions go idle and get
    evicted, so this clears on its own — hence transient: clients (and
    the service's retry machinery) may back off and retry, where a
    plain :class:`AdmissionRejected` (budget exceeds total capacity,
    can never fit) must not be retried.
    """


class RequestRejected(ServiceError):
    """A request was shed (queue saturation) or refused (server draining).

    ``reason`` distinguishes ``"shed"`` (load shedding dropped it,
    oldest-deadline-first) from ``"draining"`` (the server is shutting
    down and no longer accepts work).
    """

    def __init__(self, request_id: object, reason: str):
        self.request_id = request_id
        self.reason = reason
        super().__init__(f"request {request_id!r} rejected: {reason}")


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before (or while) it executed.

    ``phase`` records where the deadline hit: ``"queued"`` (the request
    never started — cooperative cancellation) or ``"running"`` (the
    engine call outlived its budget; its session-side effects may still
    have committed, as with any RPC timeout).
    """

    def __init__(self, request_id: object, deadline_s: float, phase: str):
        self.request_id = request_id
        self.deadline_s = deadline_s
        self.phase = phase
        super().__init__(
            f"request {request_id!r} exceeded its {deadline_s:.3f}s "
            f"deadline while {phase}"
        )


class ReplicationError(RingoError):
    """The hot-standby replication layer refused or failed an operation.

    Base class for the typed failures :mod:`repro.replication` raises
    instead of silently serving wrong answers: fenced writers, detected
    divergence, and stale replicas all derive from it.
    """


class FencedError(ReplicationError):
    """A deposed writer tried to append at a superseded epoch.

    Epoch fencing is the split-brain guard: promotion bumps a monotonic
    term stamped into every WAL frame and checkpoint manifest, and
    writes the new term (with a fence marker) into the old primary's
    durability directory. A revived or still-running old primary sees
    the fence on its next append and gets this error instead of
    committing a record the promoted service will never see.
    """

    def __init__(self, path: str, writer_epoch: int, current_epoch: int):
        self.path = str(path)
        self.writer_epoch = writer_epoch
        self.current_epoch = current_epoch
        super().__init__(
            f"writer at epoch {writer_epoch} is fenced: {path} has been "
            f"promoted to epoch {current_epoch}; this session must not "
            f"commit further writes"
        )


class DivergenceError(ReplicationError):
    """A replica's catalog digest stopped matching its primary's.

    Raised when the periodic digest exchange at a ship watermark finds a
    mismatch (or the shipped op stream can no longer be applied). The
    replica quarantines its state and waits for a re-seed from the
    primary's latest checkpoint — it never keeps serving answers it
    knows to be wrong.
    """

    def __init__(self, tenant: str, lsn: int, reason: str):
        self.tenant = tenant
        self.lsn = lsn
        self.reason = reason
        super().__init__(
            f"replica state for tenant {tenant!r} diverged at LSN {lsn}: "
            f"{reason}"
        )


class ReplicaLagError(ReplicationError, TransientError):
    """A replica refused a read because it has fallen too far behind.

    Transient by design: replication catches up (or a promotion makes
    the replica authoritative), so clients — and the shared
    :class:`RetryPolicy` machinery — may back off and retry rather than
    accept a stale answer past the configured lag threshold.
    """

    def __init__(self, tenant: str, lag_records: int, threshold: int):
        self.tenant = tenant
        self.lag_records = lag_records
        self.threshold = threshold
        super().__init__(
            f"replica is {lag_records} record(s) behind for tenant "
            f"{tenant!r} (degrade threshold {threshold}); retry after it "
            f"catches up"
        )


class ConversionError(RingoError):
    """A table/graph conversion was requested with invalid inputs."""


class AlgorithmError(RingoError):
    """A graph algorithm was invoked with invalid parameters or input."""


class ConvergenceError(AlgorithmError):
    """An iterative algorithm failed to converge within its iteration cap."""

    def __init__(self, algorithm: str, iterations: int, residual: float):
        self.algorithm = algorithm
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"{algorithm} did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
