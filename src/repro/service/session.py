"""Tenant session lifecycle: dispatch, eviction-to-checkpoint, revival.

Every tenant owns one durable :class:`~repro.core.engine.Ringo` session
spooled under ``<spool_dir>/<tenant>/`` (its WAL and checkpoints — the
:mod:`repro.recovery` layout). The manager moves each session through a
simple lifecycle::

          open (charge ledger)            evict (release ledger)
    cold ------------------------> resident ----------------------> evicted
                                      ^                                |
                                      +--- revive (charge ledger) <---+

*Resident* means the engine object is in memory and charged against the
service's :class:`~repro.service.admission.MemoryLedger`; *evicted*
means the session exists only as its checkpoint + WAL on disk. Because a
checkpointed session is a swappable session, resident sessions can be a
small fraction of total sessions: idle ones are swept out on a timer,
and admission pressure evicts idle sessions on demand before rejecting a
tenant.

Execution discipline: one dispatcher task per tenant pulls requests in
FIFO order and runs at most one engine call at a time (a Ringo session
is not safe for concurrent mutation); engine calls run on a shared
thread-pool executor so the event loop — the part every tenant shares —
never blocks on tenant work. Faults at the ``service.dispatch`` site and
engine-raised :class:`~repro.exceptions.TransientError` are absorbed by
the shared :class:`~repro.parallel.resilience.RetryPolicy`; faults at
``service.evict`` abort the eviction cleanly and leave the session
resident.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

from repro import obs
from repro.core.engine import Ringo
from repro.exceptions import (
    AdmissionContention,
    AdmissionRejected,
    DeadlineExceededError,
    RequestRejected,
    ServiceError,
)
from repro.faults import fault_point
from repro.obs.metrics import Histogram
from repro.parallel.resilience import run_with_retry
from repro.recovery.checkpoint import durability_state
from repro.recovery.digest import catalog_digest
from repro.service.admission import MemoryLedger
from repro.service.protocol import (
    Request,
    decode_args,
    encode_result,
    error_response,
    ok_response,
)
from repro.service.queueing import DeadlineQueue

#: Worker threads inside each tenant's Ringo session (and each replica
#: follower's): tenants share the machine, so one apiece.
SESSION_WORKERS = 1

#: Seconds a drain waits for one session's in-flight request to finish;
#: a session still busy after that counts as a checkpoint failure.
DRAIN_TIMEOUT_S = 30.0


def dispatch_engine(
    session: Ringo, tenant: str, op: str, args: dict, columns: bool,
    watermark: "tuple[int, int]", retry_policy=None, on_retry=None,
) -> object:
    """Run one engine request against ``session``; returns the encoded result.

    The one dispatch path for a primary tenant and a replica read.
    ``watermark`` is the (LSN, epoch) the session's catalog reflects, so
    ``digest_at`` answers the consistent (LSN, digest) pair the
    replication shipper exchanges. Engine operations publish atomically
    (no partial state escapes a failed call), so re-running a whole
    request after a transient failure is safe; ``retry_policy`` does
    exactly that. The ``service.dispatch`` fault site draws from the
    tenant's own stream, however tenants' executor threads interleave.
    """

    def attempt() -> object:
        fault_point("service.dispatch", tenant)
        if op == "objects":
            return session.Objects()
        if op == "digest":
            return catalog_digest(session)
        if op == "digest_at":
            lsn, epoch = watermark
            return {"lsn": lsn, "epoch": epoch, "digest": catalog_digest(session)}
        if op == "checkpoint":
            return session.checkpoint()
        return getattr(session, op)(**decode_args(session, args))

    with obs.trace("service.dispatch", tenant=tenant, op=op):
        if retry_policy is None:
            result = attempt()
        else:
            result = run_with_retry(
                attempt, retry_policy, on_retry=on_retry, metric_prefix="service"
            )
    return encode_result(session, result, columns)


class TenantStats:
    """Per-tenant request counters (thread-safe: retries are recorded
    from executor threads while the rest updates on the event loop)."""

    _FIELDS = (
        "requests", "completed", "failed", "shed", "expired_queued",
        "expired_running", "retries", "admission_waits", "opens",
        "revivals", "evictions", "eviction_failures",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self._FIELDS:
            setattr(self, field, 0)

    def record(self, field: str, amount: int = 1) -> None:
        """Increment one counter by ``amount``."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def record_retry(self, attempt: int, error: BaseException) -> None:
        """``on_retry`` hook shape shared with :class:`PoolStats`."""
        self.record("retries")

    def snapshot(self) -> dict:
        """A plain-dict copy for health reporting."""
        with self._lock:
            return {field: getattr(self, field) for field in self._FIELDS}


class TenantSession:
    """One tenant's session record: queue, engine (maybe), and stats."""

    def __init__(self, manager: "SessionManager", tenant: str, budget_bytes: int):
        self.manager = manager
        self.tenant = tenant
        self.budget_bytes = budget_bytes
        self.directory = Path(manager.spool_dir) / tenant
        self.queue = DeadlineQueue(manager.max_queue_depth)
        self.stats = TenantStats()
        self.ringo: "Ringo | None" = None
        self.dirty = False
        self.last_active = manager.loop.time()
        self.in_flight: "Request | None" = None
        self._orphan: "asyncio.Future | None" = None
        # Serialises residency changes (open/revive/evict) against the
        # dispatcher's execute step; held only across one state change
        # or one request, never while idle.
        self.state_lock = asyncio.Lock()
        self.task: "asyncio.Task | None" = None

    # -- residency -----------------------------------------------------

    @property
    def resident(self) -> bool:
        """Whether the engine is in memory (and charged to the ledger)."""
        return self.ringo is not None

    @property
    def busy(self) -> bool:
        """Whether the session has queued or running work."""
        return self.in_flight is not None or len(self.queue) > 0

    def _open_engine(self) -> Ringo:
        """Open or revive the durable engine (runs on an executor thread)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        state = durability_state(self.directory)
        if state["wal_exists"] or state["checkpoints"]:
            session = Ringo.recover(
                self.directory,
                workers=SESSION_WORKERS,
                memory_budget=self.budget_bytes,
            )
            self.stats.record("revivals")
        else:
            session = Ringo(
                workers=SESSION_WORKERS,
                memory_budget=self.budget_bytes,
                durability=self.directory,
            )
            self.stats.record("opens")
        return session

    def _evict_engine(self) -> None:
        """Checkpoint (if dirty) and close the engine (executor thread).

        The ``service.evict`` fault site fires before any work: a fired
        fault aborts the eviction with the session untouched. A fault
        inside ``checkpoint()`` (``recovery.checkpoint.write``) likewise
        commits nothing — the partial temp directory is removed before
        the exception reaches the caller.
        """
        fault_point("service.evict")
        assert self.ringo is not None
        if self.dirty:
            self.ringo.checkpoint()
        self.ringo.close()

    def _wal_lsn(self) -> int:
        durability = self.ringo._durability if self.ringo is not None else None
        return 0 if durability is None else durability.wal.last_lsn

    def _wal_epoch(self) -> int:
        durability = self.ringo._durability if self.ringo is not None else None
        return 0 if durability is None else durability.wal.epoch

    # -- the dispatcher ------------------------------------------------

    async def run(self) -> None:
        """The per-tenant dispatcher: FIFO, deadline-checked, retried."""
        loop = self.manager.loop
        while True:
            request = await self.queue.pop()
            self._publish_queue_depth()
            if request.deadline <= loop.time():
                self.stats.record("expired_queued")
                self._respond_error(
                    request,
                    DeadlineExceededError(
                        request.id, request.deadline - request.accepted_at, "queued"
                    ),
                )
                continue
            if self._orphan is not None:
                # A timed-out engine call may still be running; session
                # access is exclusive, so let it finish (discarding its
                # outcome) before touching the session again.
                try:
                    await self._orphan
                # Its outcome was already reported as a deadline error;
                # rethrowing would double-fault.
                except Exception:
                    pass
                self._orphan = None
                if request.deadline <= loop.time():
                    self.stats.record("expired_queued")
                    self._respond_error(
                        request,
                        DeadlineExceededError(
                            request.id, request.deadline - request.accepted_at,
                            "queued",
                        ),
                    )
                    continue
            async with self.state_lock:
                self.in_flight = request
                try:
                    if self.ringo is None:
                        await self._become_resident(request)
                    result = await self._execute(request)
                except asyncio.CancelledError:
                    self._respond_error(
                        request, RequestRejected(request.id, "draining")
                    )
                    raise
                except BaseException as error:
                    self.stats.record("failed")
                    self._respond_error(request, error)
                else:
                    self.stats.record("completed")
                    self._respond_ok(request, result)
                finally:
                    self.in_flight = None
                    self.last_active = loop.time()

    async def _become_resident(self, request: Request) -> None:
        """Acquire residency, waiting out admission *contention*.

        A full-but-not-oversubscribed ledger clears on its own (busy
        sessions go idle and get evicted), so the request waits in line
        with jittered backoff up to its deadline instead of bouncing a
        transient condition back to the client. The permanent
        :class:`AdmissionRejected` (budget exceeds total capacity) still
        fails immediately.
        """
        loop = self.manager.loop
        policy = self.manager.retry_policy
        attempt = 0
        while True:
            try:
                await self.manager._make_resident(self)
                return
            except AdmissionContention:
                attempt += 1
                if policy is None:
                    delay = 0.05
                else:
                    delay = policy.delay(min(attempt, policy.max_attempts))
                if loop.time() + delay >= request.deadline:
                    raise
                self.stats.record("admission_waits")
                await asyncio.sleep(delay)

    async def _execute(self, request: Request) -> object:
        """Run one engine call on the executor under the deadline."""
        loop = self.manager.loop
        remaining = request.deadline - loop.time()
        lsn_before = self._wal_lsn()
        future = loop.run_in_executor(
            self.manager.executor, self._call_engine, request
        )
        try:
            result = await asyncio.wait_for(asyncio.shield(future), timeout=remaining)
        except (asyncio.TimeoutError, TimeoutError):
            self._orphan = future
            self._orphan.add_done_callback(self._note_orphan_done)
            self.stats.record("expired_running")
            raise DeadlineExceededError(
                request.id, request.deadline - request.accepted_at, "running"
            ) from None
        self.dirty = self.dirty or self._wal_lsn() != lsn_before
        return result

    def _note_orphan_done(self, future: "asyncio.Future") -> None:
        # An orphaned call may have committed WAL records after its
        # deadline response went out; assume it did so the next drain
        # or eviction checkpoints this session.
        future.exception()  # consume, never unhandled
        if self.ringo is not None:
            self.dirty = True

    def _call_engine(self, request: Request) -> object:
        """One request against the engine (runs on an executor thread).

        The dispatcher serializes engine calls, so nothing can commit
        between reading the watermark here and a ``digest_at`` digest.
        """
        assert self.ringo is not None
        return dispatch_engine(
            self.ringo, self.tenant, request.op, request.args, request.columns,
            (self._wal_lsn(), self._wal_epoch()),
            self.manager.retry_policy, on_retry=self.stats.record_retry,
        )

    # -- responses -----------------------------------------------------

    def _respond_ok(self, request: Request, result: object) -> None:
        self.manager._finish(self, request, ok_response(request.id, result))

    def _respond_error(self, request: Request, error: BaseException) -> None:
        if isinstance(error, asyncio.CancelledError):  # pragma: no cover
            error = RequestRejected(request.id, "draining")
        self.manager._finish(self, request, error_response(request.id, error))

    def _publish_queue_depth(self) -> None:
        if obs.enabled():
            obs.registry().gauge(
                f"service.tenant.{self.tenant}.queue_depth"
            ).set(len(self.queue))


class SessionManager:
    """All tenants, the memory ledger, and the eviction machinery."""

    def __init__(
        self,
        *,
        loop: asyncio.AbstractEventLoop,
        executor,
        spool_dir,
        global_budget_bytes: int,
        default_tenant_budget_bytes: int,
        max_queue_depth: int,
        idle_evict_s: float,
        retry_policy=None,
    ) -> None:
        self.loop = loop
        self.executor = executor
        self.spool_dir = Path(spool_dir)
        self.default_tenant_budget_bytes = default_tenant_budget_bytes
        self.max_queue_depth = max_queue_depth
        self.idle_evict_s = idle_evict_s
        self.retry_policy = retry_policy
        self.ledger = MemoryLedger(global_budget_bytes)
        self.tenants: dict[str, TenantSession] = {}
        self.latency = Histogram("service.request.seconds", reservoir=1024)
        self.draining = False

    # -- tenant records ------------------------------------------------

    def tenant(self, name: str, budget_bytes: "int | None" = None) -> TenantSession:
        """Get (or lazily create) a tenant's session record.

        The record is cold until its first dispatched request makes it
        resident; ``budget_bytes`` can only be set while cold.
        """
        record = self.tenants.get(name)
        if record is None:
            record = TenantSession(
                self, name, budget_bytes or self.default_tenant_budget_bytes
            )
            self.tenants[name] = record
        elif budget_bytes is not None and budget_bytes != record.budget_bytes:
            if record.resident:
                raise ServiceError(
                    f"tenant {name!r} is resident; its budget cannot change "
                    f"until it is evicted"
                )
            record.budget_bytes = budget_bytes
        if record.task is None or record.task.done():
            record.task = self.loop.create_task(
                record.run(), name=f"repro-service-{name}"
            )
        return record

    def submit(self, session: TenantSession, request: Request) -> None:
        """Enqueue one request, shedding oldest-deadline-first when full."""
        session.stats.record("requests")
        obs.count(f"service.tenant.{session.tenant}.requests_total")
        victim = session.queue.push(request)
        session._publish_queue_depth()
        if victim is not None:
            session.stats.record("shed")
            session._respond_error(
                victim,
                RequestRejected(victim.id, "shed (queue full, oldest deadline first)"),
            )

    # -- residency / eviction ------------------------------------------

    async def _make_resident(self, session: TenantSession) -> None:
        """Charge the ledger (evicting idle sessions if needed) and open.

        Callers hold ``session.state_lock``. On any failure the charge
        is rolled back and the typed error propagates to the request
        that triggered residency.
        """
        needed = session.budget_bytes
        if not self.ledger.would_fit(needed):
            await self._evict_idle_until(needed, sparing=session)
        self.ledger.charge(session.tenant, needed)  # may raise AdmissionRejected
        try:
            session.ringo = await self.loop.run_in_executor(
                self.executor, session._open_engine
            )
        except BaseException:
            self.ledger.release(session.tenant)
            raise
        session.dirty = False

    async def _evict_idle_until(self, needed: int, sparing: TenantSession) -> None:
        """Evict idle resident sessions, LRU first, until ``needed`` fits."""
        candidates = sorted(
            (
                t for t in self.tenants.values()
                if t.resident and not t.busy and t is not sparing
            ),
            key=lambda t: t.last_active,
        )
        for candidate in candidates:
            if self.ledger.would_fit(needed):
                return
            await self.evict(candidate)

    async def adopt(self, name: str, ringo: Ringo) -> TenantSession:
        """Install an already-open engine as a tenant's resident session.

        The promotion path: a replica's just-armed follower sessions are
        adopted wholesale so the first post-failover request hits a warm
        engine instead of a cold revival. If the ledger cannot admit the
        session it is closed and the tenant reverts to lazy revival from
        its (fully current) durability directory — slower, never wrong.
        """
        record = self.tenant(name)
        async with record.state_lock:
            if record.resident:
                raise ServiceError(
                    f"tenant {name!r} is already resident; cannot adopt over it"
                )
            try:
                self.ledger.charge(name, record.budget_bytes)
            except AdmissionRejected:
                await self.loop.run_in_executor(self.executor, ringo.close)
                raise
            record.ringo = ringo
            record.dirty = True  # unknown checkpoint state: drain must checkpoint
            record.last_active = self.loop.time()
            record.stats.record("opens")
        return record

    async def evict(self, session: TenantSession) -> bool:
        """Evict one idle resident session to its checkpoint.

        Returns True on success. A fault (``service.evict`` or a
        ``recovery.*`` site inside ``checkpoint()``) aborts cleanly: the
        session stays resident, fully usable, and a later sweep retries.
        """
        if session.state_lock.locked():
            return False  # a request is running; not idle after all
        async with session.state_lock:
            if not session.resident or session.busy:
                return False
            try:
                await self.loop.run_in_executor(
                    self.executor, session._evict_engine
                )
            except Exception:
                session.stats.record("eviction_failures")
                return False
            session.ringo = None
            session.dirty = False
            self.ledger.release(session.tenant)
            session.stats.record("evictions")
            obs.count("service.evictions_total")
            return True

    async def sweep(self, now: float) -> None:
        """One scheduler tick: expire queued requests, evict idle sessions.

        Expiry here is the cooperative-cancellation half of the deadline
        contract — a request whose deadline passes while queued is
        answered within one tick, even while a long request runs ahead
        of it.
        """
        for session in list(self.tenants.values()):
            for request in session.queue.remove_expired(now):
                session.stats.record("expired_queued")
                session._respond_error(
                    request,
                    DeadlineExceededError(
                        request.id, request.deadline - request.accepted_at, "queued"
                    ),
                )
            if (
                session.resident
                and not session.busy
                and now - session.last_active >= self.idle_evict_s
            ):
                await self.evict(session)

    # -- drain ----------------------------------------------------------

    async def drain(self) -> dict:
        """Reject queued work, finish in-flight requests, checkpoint all.

        Nothing committed is ever lost here even if a checkpoint fails —
        every committed operation is already in the tenant's WAL — but a
        successful drain leaves each dirty session with a fresh
        checkpoint so revival is a restore, not a full replay.
        """
        self.draining = True
        report = {"rejected": 0, "checkpointed": 0, "checkpoint_failures": 0}
        for session in list(self.tenants.values()):
            for request in session.queue.drain():
                report["rejected"] += 1
                session._respond_error(
                    request, RequestRejected(request.id, "draining")
                )
        for session in list(self.tenants.values()):
            try:
                # Timed acquire can't use `with`; the paired release is in
                # the finally below.
                await asyncio.wait_for(
                    session.state_lock.acquire(),  # ringo-lint: disable=R004
                    timeout=DRAIN_TIMEOUT_S,
                )
            except (asyncio.TimeoutError, TimeoutError):
                report["checkpoint_failures"] += 1
                continue
            try:
                if session.resident:
                    try:
                        await self.loop.run_in_executor(
                            self.executor, session._evict_engine
                        )
                        report["checkpointed"] += 1
                    except Exception:
                        session.stats.record("eviction_failures")
                        report["checkpoint_failures"] += 1
                        try:
                            session.ringo.close()
                        except Exception:
                            pass
                    session.ringo = None
                    self.ledger.release(session.tenant)
            finally:
                session.state_lock.release()
            if session.task is not None:
                session.task.cancel()
        return report

    # -- reporting ------------------------------------------------------

    def _finish(self, session: TenantSession, request: Request, response: dict) -> None:
        """Resolve a request's future and record its latency."""
        elapsed = self.loop.time() - request.accepted_at
        self.latency.observe(elapsed)
        if obs.enabled():
            obs.registry().histogram("service.request.seconds").observe(elapsed)
        if not request.future.done():
            request.future.set_result(response)

    def health(self) -> dict:
        """The ``health()["service"]`` section: ledger, latency, tenants."""
        tenants = {}
        for name, session in self.tenants.items():
            entry = session.stats.snapshot()
            entry.update(
                resident=session.resident,
                queue_depth=len(session.queue),
                dirty=session.dirty,
                budget_bytes=session.budget_bytes,
            )
            tenants[name] = entry
        return {
            "draining": self.draining,
            "ledger": self.ledger.snapshot(),
            "latency": self.latency.snapshot(),
            "resident_sessions": sum(
                1 for t in self.tenants.values() if t.resident
            ),
            "known_sessions": len(self.tenants),
            "tenants": tenants,
        }
