"""The primary side of WAL shipping: a polling, retrying batch shipper.

:class:`WalShipper` is a daemon thread the primary service starts next
to its accept loop. Each cycle it scans the spool for tenants with a
WAL, tails each log from the byte offset its cursor already decoded
(O(new records) per cycle, not O(total WAL size)), and sends the new
frames — batched, CRC-framed, LSN-watermarked — to the
replica over the ordinary line-delimited-JSON wire protocol (the
``replicate`` verb), through a :class:`~repro.service.client.ServiceClient`
with the shared :class:`~repro.parallel.resilience.RetryPolicy`.
Backpressure falls out of that composition: a slow or faulted replica
answers with retryable envelopes, the policy backs off with jittered
delays, and the cursor makes every resend idempotent.

Every ``digest_every_batches`` batches per tenant the shipper pauses to
exchange digests: it asks its *own* service for ``digest_at`` (computed
inside the tenant's serialized dispatcher, so the digest is consistent
at one WAL watermark), ships frames up to exactly that LSN, and attaches
the digest for the replica to compare. A :class:`DivergenceError` reply
triggers the automatic re-seed: checkpoint the tenant through the same
dispatcher, ship the checkpoint artifacts plus the full WAL
(``replicate_seed``), and resume shipping from the replica's new cursor.

A :class:`FencedError` reply means this primary has been deposed — the
shipper marks itself fenced and stops shipping rather than fighting the
promoted service.
"""

from __future__ import annotations

import asyncio
import threading
from base64 import b64encode
from collections import deque
from pathlib import Path

from repro import obs
from repro.exceptions import RingoError
from repro.faults import fault_point
from repro.parallel.resilience import RetryPolicy, run_with_retry
from repro.recovery.checkpoint import CHECKPOINT_SUBDIR, find_checkpoints
from repro.recovery.epoch import read_epoch
from repro.recovery.wal import WAL_FILENAME, WalTail, framed, iter_wal
from repro.service.client import ServiceClient
from repro.service.protocol import RemoteError


def record_frame(record) -> dict:
    """Re-frame one decoded WAL record as its shippable payload + CRC.

    ``iter_wal`` verified the on-disk CRC; re-deriving it from the
    canonical payload reproduces the identical value, so the replica can
    verify end-to-end and append a byte-identical line to its own log.
    """
    return framed(record.payload())


class ShipCursor:
    """Per-tenant shipping state: cursor, watermarks, divergence count.

    The cursor also owns the incremental WAL scan: ``tail`` is the
    :class:`~repro.recovery.wal.WalTail` the next scan resumes from, and
    ``unacked`` the decoded records (with their on-disk line lengths)
    the replica has not yet acknowledged as applied. Each ship cycle
    decodes only the bytes appended since the last one — O(new
    records), not O(total WAL size) — and ``lag_bytes`` falls out of
    the retained line lengths.
    """

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.shipped_lsn = 0
        self.applied_lsn = 0
        self.tip_lsn = 0
        self.lag_bytes = 0
        self.epoch = 0
        self.batches = 0
        self.batches_since_digest = 0
        self.digests_exchanged = 0
        self.reseeds = 0
        self.fenced = False
        self.last_error: "str | None" = None
        self.tail = WalTail()
        self.unacked: "deque[tuple]" = deque()
        self.unacked_bytes = 0

    def reset_scan(self) -> None:
        """Forget the incremental scan; the next cycle re-reads from 0."""
        self.tail = WalTail()
        self.unacked.clear()
        self.unacked_bytes = 0

    def snapshot(self) -> dict:
        return {
            "shipped_lsn": self.shipped_lsn,
            "applied_lsn": self.applied_lsn,
            "tip_lsn": self.tip_lsn,
            "lag_records": max(0, self.tip_lsn - self.applied_lsn),
            "lag_bytes": self.lag_bytes,
            "epoch": self.epoch,
            "batches": self.batches,
            "digests_exchanged": self.digests_exchanged,
            "reseeds": self.reseeds,
            "fenced": self.fenced,
            "last_error": self.last_error,
        }


class WalShipper(threading.Thread):
    """Continuously ship committed WAL records to a replica service.

    ``service`` (optional) is the hosting :class:`SessionService`; when
    present the shipper uses it for consistent ``digest_at`` reads and
    re-seed checkpoints. Without it (tests driving the shipper against
    bare spool directories) digest exchange is skipped.
    """

    def __init__(
        self,
        spool_dir,
        addresses: "list[tuple[str, int]]",
        *,
        service=None,
        interval_s: float = 0.05,
        batch_records: int = 64,
        digest_every_batches: int = 4,
        retry_policy: "RetryPolicy | None" = None,
        client_timeout: float = 30.0,
    ) -> None:
        super().__init__(name="repro-wal-shipper", daemon=True)
        self.spool_dir = Path(spool_dir)
        self.interval_s = interval_s
        self.batch_records = batch_records
        self.digest_every_batches = digest_every_batches
        self.service = service
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=5, base_delay=0.02, max_delay=0.5
        )
        self.client = ServiceClient(
            addresses[0][0],
            addresses[0][1],
            tenant="__replication__",
            timeout=client_timeout,
            retry_policy=self.retry_policy,
            addresses=addresses,
        )
        self.cursors: dict[str, ShipCursor] = {}
        self.cycles = 0
        self._stop_event = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def stop(self, timeout: "float | None" = 10.0) -> None:
        """Signal the ship loop to exit and join it."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout)
        self.client.close()

    def run(self) -> None:
        while not self._stop_event.is_set():
            try:
                self.ship_once()
            except Exception as error:
                # The ship loop must outlive any single failure: record
                # it and retry next cycle from the durable cursors.
                with self._lock:
                    for cursor in self.cursors.values():
                        cursor.last_error = f"{type(error).__name__}: {error}"
                obs.count("replication.ship_cycle_errors")
            self._stop_event.wait(self.interval_s)

    # -- one shipping cycle ---------------------------------------------

    def ship_once(self) -> dict:
        """Scan every tenant WAL and ship anything past its cursor."""
        shipped = {}
        for tenant in self._spool_tenants():
            cursor = self._cursor(tenant)
            if cursor.fenced:
                continue
            shipped[tenant] = self._ship_tenant(cursor)
        self.cycles += 1
        return shipped

    def _scan_new_frames(self, cursor: ShipCursor, wal_path: Path) -> None:
        """Decode only the WAL bytes appended since the last cycle.

        Resumes the cursor's :class:`WalTail` through :func:`iter_wal`.
        An unterminated or undecodable final line is left for the next
        cycle (the writer may still be mid-append): the tail never
        advances past it. The scan restarts from byte 0 only when the
        log shrank or a resync/re-seed moved the ship cursor behind the
        retained record window.
        """
        try:
            size = wal_path.stat().st_size
        except OSError:
            size = 0
        tail = cursor.tail
        retained_floor = (
            cursor.unacked[0][0].lsn if cursor.unacked else tail.records + 1
        )
        if size < tail.valid_bytes or cursor.shipped_lsn + 1 < retained_floor:
            cursor.reset_scan()
            tail = cursor.tail
        if size <= tail.valid_bytes:
            return
        offset = tail.valid_bytes
        for record in iter_wal(wal_path, tail):
            nbytes = tail.valid_bytes - offset
            offset = tail.valid_bytes
            cursor.unacked.append((record, nbytes))
            cursor.unacked_bytes += nbytes

    @staticmethod
    def _prune_acked(cursor: ShipCursor) -> None:
        """Drop replica-acknowledged records; lag is what remains."""
        while cursor.unacked and cursor.unacked[0][0].lsn <= cursor.applied_lsn:
            _record, nbytes = cursor.unacked.popleft()
            cursor.unacked_bytes -= nbytes
        cursor.lag_bytes = cursor.unacked_bytes

    def _ship_tenant(self, cursor: ShipCursor) -> int:
        directory = self.spool_dir / cursor.tenant
        state = read_epoch(directory)
        if state.fenced:
            cursor.fenced = True
            obs.count("replication.fenced_total")
            return 0
        cursor.epoch = max(cursor.epoch, state.epoch)
        self._scan_new_frames(cursor, directory / WAL_FILENAME)
        cursor.tip_lsn = cursor.tail.records
        pending = [r for r, _bytes in cursor.unacked if r.lsn > cursor.shipped_lsn]
        sent = 0
        digest_due = (
            self.service is not None
            and self.digest_every_batches > 0
            and cursor.batches_since_digest >= self.digest_every_batches
        )
        while pending or digest_due:
            digest = None
            batch = pending[: self.batch_records]
            if digest_due:
                digest = self._consistent_digest(cursor.tenant)
                if digest is not None and digest["lsn"] > cursor.shipped_lsn:
                    # Ship exactly up to the digest watermark so the
                    # replica can compare at a matched LSN.
                    batch = [
                        r for r in pending if r.lsn <= digest["lsn"]
                    ][: self.batch_records]
                    if batch and batch[-1].lsn < digest["lsn"]:
                        digest = None  # watermark beyond this batch; next round
                elif digest is not None and digest["lsn"] == cursor.shipped_lsn:
                    batch = []  # compare at the cursor before shipping more
                else:
                    digest = None  # stale probe; nothing to compare
                digest_due = False
            try:
                with obs.trace("replication.ship", tenant=cursor.tenant,
                               frames=len(batch)):
                    self._send_batch(cursor, batch, digest)
            except RemoteError as error:
                self._handle_reject(cursor, error)
                break
            sent += len(batch)
            pending = [r for r in pending if r.lsn > cursor.shipped_lsn]
        self._prune_acked(cursor)
        return sent

    def _send_batch(self, cursor: ShipCursor, batch, digest) -> None:
        """One ``replicate`` call under the retry policy (backpressure)."""

        def attempt() -> dict:
            fault_point("replication.ship")
            return self.client.call(
                "replicate",
                tenant=cursor.tenant,
                epoch=cursor.epoch,
                frames=[record_frame(r) for r in batch],
                tip_lsn=cursor.tip_lsn,
                digest=digest,
            )

        status = run_with_retry(
            attempt, self.retry_policy, metric_prefix="replication.ship"
        )
        cursor.applied_lsn = int(status.get("applied_lsn", cursor.applied_lsn))
        if batch:
            cursor.shipped_lsn = max(cursor.shipped_lsn, batch[-1].lsn)
        cursor.shipped_lsn = max(cursor.shipped_lsn, cursor.applied_lsn)
        cursor.batches += 1
        cursor.batches_since_digest += 1
        cursor.last_error = None
        if digest is not None and status.get("digest_checked"):
            cursor.digests_exchanged += 1
            cursor.batches_since_digest = 0
        obs.count("replication.shipped_records", len(batch))

    def _handle_reject(self, cursor: ShipCursor, error: RemoteError) -> None:
        """A non-retryable replica reply: fence, re-seed, or resync."""
        cursor.last_error = str(error)
        if error.error_type == "FencedError":
            # This primary has been deposed; stop shipping, stay quiet.
            cursor.fenced = True
            obs.count("replication.fenced_total")
            return
        if error.error_type == "DivergenceError":
            self._reseed(cursor)
            return
        # A cursor gap or an unexpected typed error: resynchronise from
        # the replica's reported position with an empty status probe.
        try:
            status = self.client.call(
                "replicate", tenant=cursor.tenant, epoch=cursor.epoch, frames=[]
            )
            cursor.applied_lsn = int(status.get("applied_lsn", 0))
            cursor.shipped_lsn = cursor.applied_lsn
        except (RemoteError, RingoError, OSError) as probe_error:
            # Next cycle retries from the old cursor.
            cursor.last_error = f"resync probe failed: {probe_error}"

    # -- digest exchange and re-seed -------------------------------------

    def _service_call(self, tenant: str, op: str, **args):
        """A consistent read through our own service's dispatcher.

        Routing through ``submit`` serializes with the tenant's engine
        calls, so a ``digest_at`` or ``checkpoint`` observes a stable
        WAL watermark — no commit can interleave mid-computation.
        """
        service = self.service
        if service is None or service.loop is None:
            return None
        raw = {
            "id": f"ship-{tenant}-{op}",
            "tenant": tenant,
            "op": op,
            "args": args,
        }
        future = asyncio.run_coroutine_threadsafe(
            service.submit(raw), service.loop
        )
        envelope = future.result(self.client.timeout)
        if not envelope.get("ok"):
            return None
        return envelope.get("result")

    def _consistent_digest(self, tenant: str) -> "dict | None":
        result = self._service_call(tenant, "digest_at")
        if not isinstance(result, dict):
            return None
        return {"lsn": int(result.get("lsn", 0)), "digest": result.get("digest")}

    def _reseed(self, cursor: ShipCursor) -> None:
        """Automatic divergence recovery: checkpoint, ship state, resync.

        The tenant is checkpointed through its serialized dispatcher,
        then the newest checkpoint's artifacts plus the full WAL are
        shipped as one ``replicate_seed`` payload. The replica
        quarantines its diverged state aside and restores — after which
        shipping resumes from the replica's reported cursor.
        """
        tenant = cursor.tenant
        with obs.trace("replication.reseed", tenant=tenant):
            if self.service is not None:
                self._service_call(tenant, "checkpoint")
            directory = self.spool_dir / tenant
            files: dict[str, str] = {}
            wal_path = directory / WAL_FILENAME
            if wal_path.exists():
                # Ship only the committed prefix: a torn tail is not
                # committed state and must not seed the replica. The
                # cursor's scan is brought up to the checkpoint first,
                # so the seeded log covers every record it folded in.
                self._scan_new_frames(cursor, wal_path)
                with open(wal_path, "rb") as handle:
                    data = handle.read(cursor.tail.valid_bytes)
                files[WAL_FILENAME] = b64encode(data).decode("ascii")
            checkpoints = find_checkpoints(directory)
            if checkpoints:
                newest = checkpoints[0]
                for path in sorted(newest.rglob("*")):
                    if path.is_file():
                        rel = Path(CHECKPOINT_SUBDIR) / newest.name / path.relative_to(newest)
                        files[str(rel)] = b64encode(path.read_bytes()).decode("ascii")
            try:
                status = self.client.call(
                    "replicate_seed",
                    tenant=tenant,
                    epoch=cursor.epoch,
                    files=files,
                )
            except (RemoteError, RingoError, OSError) as error:
                cursor.last_error = f"re-seed failed: {error}"
                return
            cursor.reseeds += 1
            cursor.applied_lsn = int(status.get("applied_lsn", 0))
            cursor.shipped_lsn = cursor.applied_lsn
            cursor.batches_since_digest = 0
            cursor.last_error = None
            obs.count("replication.reseeds_total")

    # -- bookkeeping -----------------------------------------------------

    def _cursor(self, tenant: str) -> ShipCursor:
        with self._lock:
            cursor = self.cursors.get(tenant)
            if cursor is None:
                cursor = ShipCursor(tenant)
                self.cursors[tenant] = cursor
            return cursor

    def _spool_tenants(self) -> list[str]:
        if not self.spool_dir.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.spool_dir.iterdir()
            if entry.is_dir()
            and (entry / WAL_FILENAME).exists()
            # State renamed aside by checkpoint quarantine or a re-seed
            # is not a tenant; never ship (or re-create) it.
            and ".quarantined" not in entry.name
        )

    def health(self) -> dict:
        """The ``health()["replication"]`` section for a primary."""
        with self._lock:
            cursors = dict(self.cursors)
        return {
            "role": "primary",
            "replica": list(self.client.addresses),
            "interval_s": self.interval_s,
            "cycles": self.cycles,
            "tenants": {name: c.snapshot() for name, c in cursors.items()},
        }
