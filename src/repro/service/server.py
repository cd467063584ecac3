"""The asyncio session server: accept loop, scheduler tick, drain.

:class:`SessionService` is the zero-dependency front door that hosts
many concurrent :class:`~repro.core.engine.Ringo` sessions over
line-delimited JSON on TCP (see :mod:`repro.service.protocol`). The
event loop owns only cheap coordination — parsing, queueing, deadline
sweeps, response writing; every engine call runs on a bounded
thread-pool executor, so one tenant's heavy (or faulted) request can
never stall another tenant's accept path.

Robustness properties, in the order the ISSUE states them:

* **admission control** — the session manager's byte ledger refuses a
  session the machine cannot hold (typed ``AdmissionRejected``), and
  each session's own ``memory_budget`` refuses oversized operations
  (typed ``MemoryBudgetError``) — never an OOM.
* **request QoS** — bounded FIFO queues with absolute deadlines,
  cooperative expiry of queued requests each scheduler tick,
  retry-with-jittered-backoff for transient failures, and
  oldest-deadline-first shedding under saturation.
* **session lifecycle** — idle sessions are evicted to
  :mod:`repro.recovery` checkpoints and revived lazily, so resident
  sessions stay a small fraction of known sessions.
* **fault isolation** — ``service.accept`` / ``service.dispatch`` /
  ``service.evict`` faults surface as typed per-request errors or
  aborted evictions; the accept loop never dies with a tenant.
* **graceful drain** — SIGTERM (via :func:`serve_forever`) stops
  accepting, rejects queued work, finishes in-flight requests, and
  checkpoints every dirty session before exit.

:class:`ServiceHandle` hosts the same service on a dedicated event-loop
thread with a blocking ``submit()`` — the in-process client the tests
and benchmarks drive.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

from repro import obs
from repro.exceptions import RequestRejected, RingoError, ServiceError
from repro.faults import fault_point
from repro.parallel.resilience import RetryPolicy
from repro.recovery.ops import SESSION_OPS
from repro.service.protocol import (
    ACCEPT_COLUMNS,
    Request,
    accepts_columns,
    decode_result,
    dump_line,
    error_response,
    load_line,
    ok_response,
    parse_request,
    raise_remote_error,
)
from repro.service.session import SessionManager, dispatch_engine


@dataclass
class ServiceConfig:
    """Tunables for one :class:`SessionService` instance.

    ``spool_dir`` is the root under which each tenant's durable state
    (WAL + checkpoints) lives, one subdirectory per tenant.

    Replication (see :mod:`repro.replication`): ``role`` is ``"primary"``
    or ``"replica"``. A primary with a ``replica_address``
    (``"host:port"`` or a ``(host, port)`` tuple) starts a
    :class:`~repro.replication.WalShipper` next to its accept loop; a
    replica answers the ``replicate`` / ``replicate_seed`` / ``promote``
    verbs, serves reads from its followers (degrading past
    ``lag_degrade_records`` with a retryable typed error), and refuses
    writes until promoted.
    """

    spool_dir: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from the service
    global_budget_bytes: int = 1 << 30
    default_tenant_budget_bytes: int = 128 << 20
    max_queue_depth: int = 16
    default_deadline_s: float = 30.0
    tick_s: float = 0.02
    idle_evict_s: float = 60.0
    session_workers: int = 1
    executor_threads: int = 8
    retry_policy: "RetryPolicy | None" = None
    role: str = "primary"
    replica_address: "object | None" = None
    ship_interval_s: float = 0.05
    ship_batch_records: int = 64
    digest_every_batches: int = 4
    lag_degrade_records: int = 1024

    def __post_init__(self) -> None:
        if self.retry_policy is None:
            self.retry_policy = RetryPolicy(max_attempts=4, base_delay=0.005)
        if self.tick_s <= 0 or self.default_deadline_s <= 0:
            raise RingoError("tick_s and default_deadline_s must be positive")
        if self.role not in ("primary", "replica"):
            raise RingoError(f"role must be 'primary' or 'replica', got {self.role!r}")

    def replica_addresses(self) -> "list[tuple[str, int]]":
        """``replica_address`` normalised to an ordered address list."""
        value = self.replica_address
        if value is None:
            return []
        if isinstance(value, str):
            value = [value]
        if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], int):
            value = [value]
        addresses = []
        for entry in value:
            if isinstance(entry, str):
                host, _, port = entry.rpartition(":")
                if not host or not port.isdigit():
                    raise RingoError(
                        f"replica address {entry!r} must look like 'host:port'"
                    )
                addresses.append((host, int(port)))
            else:
                host, port = entry
                addresses.append((str(host), int(port)))
        return addresses


class SessionService:
    """The multi-tenant session server (must run inside an event loop)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.loop: "asyncio.AbstractEventLoop | None" = None
        self.executor: "ThreadPoolExecutor | None" = None
        self.manager: "SessionManager | None" = None
        self.port: "int | None" = None
        self.role = config.role
        self.applier = None  # ReplicaApplier when role == "replica"
        self.shipper = None  # WalShipper when primary ships to a replica
        self._server: "asyncio.base_events.Server | None" = None
        self._tick_task: "asyncio.Task | None" = None
        self._started_at = 0.0
        self._requests_accepted = 0

    async def start(self) -> None:
        """Bind the TCP listener and start the scheduler tick."""
        self.loop = asyncio.get_running_loop()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-service",
        )
        self.manager = SessionManager(
            loop=self.loop,
            executor=self.executor,
            spool_dir=self.config.spool_dir,
            global_budget_bytes=self.config.global_budget_bytes,
            default_tenant_budget_bytes=self.config.default_tenant_budget_bytes,
            max_queue_depth=self.config.max_queue_depth,
            idle_evict_s=self.config.idle_evict_s,
            session_workers=self.config.session_workers,
            retry_policy=self.config.retry_policy,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self.loop.time()
        self._tick_task = self.loop.create_task(
            self._tick_loop(), name="repro-service-tick"
        )
        if self.role == "replica":
            from repro.replication.apply import ReplicaApplier

            self.applier = ReplicaApplier(
                self.config.spool_dir,
                lag_degrade_records=self.config.lag_degrade_records,
                session_workers=self.config.session_workers,
            )
        addresses = self.config.replica_addresses()
        if self.role == "primary" and addresses:
            from repro.replication.ship import WalShipper

            self.shipper = WalShipper(
                self.config.spool_dir,
                addresses,
                service=self,
                interval_s=self.config.ship_interval_s,
                batch_records=self.config.ship_batch_records,
                digest_every_batches=self.config.digest_every_batches,
            )
            self.shipper.start()

    async def _tick_loop(self) -> None:
        """The scheduler tick: expire queued deadlines, evict idle."""
        assert self.loop is not None and self.manager is not None
        while True:
            await asyncio.sleep(self.config.tick_s)
            try:
                await self.manager.sweep(self.loop.time())
            except Exception:  # never let a sweep bug kill the scheduler
                obs.count("service.sweep_errors_total")

    # -- request intake -------------------------------------------------

    async def submit(self, raw: object) -> dict:
        """Accept one decoded request and await its response envelope.

        This is the whole service behind one call — the TCP handler and
        the in-process client both come through here. It never raises:
        every failure becomes a typed error envelope, which is the
        fault-isolation contract (a bad request, an injected accept
        fault, or a crashed engine call answers *that request* and
        nothing else).
        """
        assert self.loop is not None and self.manager is not None
        request_id = raw.get("id") if isinstance(raw, Mapping) else None
        try:
            fault_point("service.accept")
            request_id, tenant_name, op, args, deadline_s = parse_request(raw)
            columns = accepts_columns(raw)
            self._requests_accepted += 1
            if op == "ping":
                return ok_response(request_id, "pong")
            if op == "health":
                return ok_response(request_id, self.health())
            if self.manager.draining:
                return error_response(
                    request_id, RequestRejected(request_id, "draining")
                )
            if op in ("replicate", "replicate_seed", "promote"):
                return await self._replication_op(request_id, tenant_name, op, args)
            if self.role == "replica":
                return await self._replica_read(
                    request_id, tenant_name, op, args, columns
                )
            if op == "open":
                return self._open_tenant(request_id, tenant_name, args)
            record = self.manager.tenant(tenant_name)
            now = self.loop.time()
            request = Request(
                id=request_id,
                tenant=tenant_name,
                op=op,
                args=args,
                deadline=now + (deadline_s or self.config.default_deadline_s),
                accepted_at=now,
                future=self.loop.create_future(),
                columns=columns,
            )
            self.manager.submit(record, request)
        except Exception as error:
            return error_response(request_id, error)
        return await request.future

    # -- the replica face ------------------------------------------------

    async def _replication_op(
        self, request_id: object, tenant_name: str, op: str, args: dict
    ) -> dict:
        """Answer one replication verb (replica role only).

        ``replicate`` applies a shipped batch, ``replicate_seed``
        restores a tenant from a shipped checkpoint + WAL, and
        ``promote`` turns this replica into the new primary: drain the
        deposed primary's WAL tails, bump the epoch, fence it, adopt
        the warm follower sessions, and flip the role — every later
        request dispatches through the ordinary tenant machinery.
        """
        if self.applier is None:
            return error_response(
                request_id,
                ServiceError(
                    f"op {op!r} requires a replica service (this one's role "
                    f"is {self.role!r})"
                ),
            )
        applier = self.applier
        tenant = str(args.pop("tenant", "") or tenant_name)
        try:
            if op == "replicate":
                result = await self.loop.run_in_executor(
                    self.executor, lambda: applier.apply_batch(tenant, **args)
                )
            elif op == "replicate_seed":
                result = await self.loop.run_in_executor(
                    self.executor, lambda: applier.apply_seed(tenant, **args)
                )
            else:  # promote
                new_epoch = args.get("new_epoch")
                fence_spool = args.get("fence_spool")
                report, sessions = await self.loop.run_in_executor(
                    self.executor,
                    lambda: applier.promote(
                        new_epoch=new_epoch, fence_spool=fence_spool
                    ),
                )
                adopted = []
                adopt_failures = {}
                for name, session in sessions.items():
                    try:
                        await self.manager.adopt(name, session)
                        adopted.append(name)
                    except RingoError as adopt_error:
                        # The tenant falls back to cold lazy revival
                        # from its (fully drained) durability directory.
                        adopt_failures[name] = str(adopt_error)
                report["adopted"] = adopted
                if adopt_failures:
                    report["adopt_failures"] = adopt_failures
                self.role = "primary"
                self.applier = None
                result = report
        except Exception as error:
            return error_response(request_id, error)
        return ok_response(request_id, result)

    async def _replica_read(
        self, request_id: object, tenant_name: str, op: str, args: dict,
        columns: bool,
    ) -> dict:
        """Serve a read from a follower; refuse writes until promotion.

        The reads are ``objects``, ``digest``, ``digest_at`` and the
        op-table entries that are neither durable nor mutating
        (:attr:`~repro.recovery.ops.Op.read_only`). Each is gated by
        :meth:`ReplicaApplier.ensure_readable`: a quarantined tenant
        fails with :class:`DivergenceError` and a lagging one with the
        *retryable* :class:`ReplicaLagError` — a stale answer is never
        served silently. A read that passes runs
        through :func:`~repro.service.session.dispatch_engine`, the
        primary's own dispatch path, at the follower's watermark.
        """
        applier = self.applier
        read_only = getattr(SESSION_OPS.get(op), "read_only", False)
        if not (op in ("objects", "digest", "digest_at") or read_only):
            return error_response(
                request_id,
                ServiceError(
                    f"replica is read-only: op {op!r} must go to the primary "
                    f"(or wait for a promotion)"
                ),
            )

        def read() -> object:
            record = applier.ensure_readable(tenant_name)
            with record.lock:
                return dispatch_engine(
                    record.session, tenant_name, op, args, columns,
                    (record.applied_lsn, record.epoch), self.manager.retry_policy,
                )

        try:
            result = await self.loop.run_in_executor(self.executor, read)
        except Exception as error:
            return error_response(request_id, error)
        return ok_response(request_id, result)

    def _open_tenant(self, request_id: object, tenant_name: str, args: dict) -> dict:
        """The ``open`` service op: declare (or read back) a tenant budget."""
        budget = args.get("budget_bytes")
        if budget is not None and (not isinstance(budget, int) or budget <= 0):
            raise ServiceError("'budget_bytes' must be a positive integer")
        record = self.manager.tenant(tenant_name, budget)
        return ok_response(
            request_id,
            {
                "tenant": tenant_name,
                "budget_bytes": record.budget_bytes,
                "resident": record.resident,
            },
        )

    # -- the TCP face ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """One client connection: read lines, answer (possibly pipelined).

        Each line becomes its own task so a connection can pipeline
        requests; responses are written as they complete, correlated by
        ``id``. Any connection-level surprise closes *this* connection
        only.
        """
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def answer(raw: object) -> None:
            response = await self.submit(raw)
            async with write_lock:
                writer.write(dump_line(response))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    raw = load_line(line)
                except ServiceError as error:
                    async with write_lock:
                        writer.write(dump_line(error_response(None, error)))
                        await writer.drain()
                    continue
                task = asyncio.ensure_future(answer(raw))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle ------------------------------------------------------

    async def drain(self) -> dict:
        """Stop accepting, reject queued work, checkpoint dirty sessions."""
        assert self.manager is not None
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._tick_task is not None:
            self._tick_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._tick_task
        return await self.manager.drain()

    async def stop(self, drain: bool = True) -> dict:
        """Drain (optionally) and release the executor; returns the report."""
        report: dict = {}
        if self.shipper is not None:
            # Stop shipping before the drain checkpoint churns the WALs.
            await asyncio.to_thread(self.shipper.stop)
        if drain and self.manager is not None:
            report = await self.drain()
        if self.applier is not None:
            await asyncio.to_thread(self.applier.close)
        if self.executor is not None:
            # shutdown(wait=True) joins worker threads; hop off the event
            # loop so an in-flight engine call cannot stall other sessions.
            await asyncio.to_thread(
                self.executor.shutdown, wait=True, cancel_futures=True
            )
        return report

    def health(self) -> dict:
        """The service health report (also the ``health`` op's payload)."""
        assert self.manager is not None and self.loop is not None
        if self.shipper is not None:
            replication = self.shipper.health()
        elif self.applier is not None:
            replication = self.applier.health()
        else:
            replication = {"role": self.role, "configured": False}
        return {
            "service": self.manager.health(),
            "server": {
                "port": self.port,
                "uptime_s": self.loop.time() - self._started_at,
                "requests_accepted": self._requests_accepted,
                "tick_s": self.config.tick_s,
            },
            "replication": replication,
        }


async def serve_forever(
    config: ServiceConfig,
    signals: tuple = (),
    ready: "threading.Event | None" = None,
    announce=print,
) -> dict:
    """Run a service until one of ``signals`` fires, then drain cleanly.

    The ``repro serve`` CLI calls this with ``(SIGTERM, SIGINT)``;
    ``ready`` (if given) is set once the listener is bound, and
    ``announce`` receives the human-readable startup/drain lines.
    """
    import signal as _signal  # local so non-CLI embedders skip it

    service = SessionService(config)
    await service.start()
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in signals:
        loop.add_signal_handler(signum, stop_event.set)
    announce(
        f"repro service listening on {config.host}:{service.port} "
        f"(spool: {config.spool_dir}, "
        f"ledger: {config.global_budget_bytes >> 20} MiB)"
    )
    try:
        await stop_event.wait()
        report = await service.stop(drain=True)
    finally:
        for signum in signals:
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(signum)
    health = service.health()["service"]
    announce(
        f"repro service drained: {report.get('checkpointed', 0)} session(s) "
        f"checkpointed, {report.get('rejected', 0)} queued request(s) "
        f"rejected, {report.get('checkpoint_failures', 0)} checkpoint "
        f"failure(s), {health['ledger']['charged_bytes']} bytes resident"
    )
    return report


class ServiceHandle:
    """A service hosted on its own event-loop thread, driven blockingly.

    The in-process client the tests and benchmarks use: ``start()``
    returns once the TCP listener is bound, ``submit()``/``call()``
    bridge into the loop with ``run_coroutine_threadsafe``, and
    ``stop()`` drains exactly like SIGTERM would.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as spool:
    ...     handle = ServiceHandle(ServiceConfig(spool_dir=spool)).start()
    ...     try:
    ...         handle.call("t1", "ping")
    ...     finally:
    ...         _ = handle.stop()
    'pong'
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: "SessionService | None" = None
        self.drain_report: "dict | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()
        self._stop_requested = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._next_id = 0
        self._id_lock = threading.Lock()

    def start(self) -> "ServiceHandle":
        """Start the loop thread; returns once the listener is bound."""
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface startup failures
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = SessionService(self.config)
        stop_event = asyncio.Event()
        self._stop_event = stop_event
        await self.service.start()
        self._ready.set()
        await stop_event.wait()
        self.drain_report = await self.service.stop(drain=True)

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` clients should connect to."""
        assert self.service is not None
        return (self.config.host, self.service.port)

    def submit(self, raw: dict, timeout: "float | None" = None) -> dict:
        """Send one raw request envelope; blocks for its response."""
        assert self.service is not None and self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.service.submit(raw), self._loop
        )
        return future.result(timeout)

    def call(self, tenant: str, op: str, deadline_ms: "int | None" = None, **args):
        """Convenience: one request, unwrapped result or typed exception.

        Asks for column replies and decodes them, as
        :meth:`ServiceClient.call` does, so both return equal results.
        """
        with self._id_lock:
            self._next_id += 1
            request_id = self._next_id
        raw: dict = {
            "id": request_id, "tenant": tenant, "op": op, "args": args,
            "accept": ACCEPT_COLUMNS,
        }
        if deadline_ms is not None:
            raw["deadline_ms"] = deadline_ms
        envelope = self.submit(raw)
        if not envelope.get("ok"):
            raise_remote_error(envelope)
        return decode_result(envelope.get("result"))

    def health(self) -> dict:
        """The live service health report."""
        assert self.service is not None and self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self._health_async(), self._loop
        )
        return future.result(30.0)

    async def _health_async(self) -> dict:
        assert self.service is not None
        return self.service.health()

    def stop(self, timeout: "float | None" = 60.0) -> "dict | None":
        """Drain and stop the service; returns the drain report."""
        if self._loop is None or self._thread is None:
            return None
        if not self._stop_requested.is_set():
            self._stop_requested.set()
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        return self.drain_report

    def __enter__(self) -> "ServiceHandle":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
