"""The replica side of WAL shipping: verify, persist, replay, compare.

:class:`ReplicaApplier` owns one follower state per tenant. Each shipped
batch of CRC-framed WAL payloads is:

1. **verified** — every frame's CRC is recomputed from its canonical
   JSON; a mismatch is divergence, not a retry.
2. **persisted** — the frame is appended verbatim (byte-identical to the
   primary's line) to the replica's own ``wal.jsonl`` and fsync'd, so a
   replica crash recovers exactly like a primary crash would.
3. **replayed** — the record is re-executed against an in-memory
   *follower* session by the same :func:`repro.recovery.ops.apply_record`
   (and op table) crash recovery uses, keeping the standby's
   catalog — and, through ``ApplyOps``, the incremental engine's delta
   snapshots and dynamic algorithm state — warm rather than cold bytes.

Apply is idempotent by LSN cursor: frames at or below ``applied_lsn``
are skipped, so a shipper that times out and resends a batch never
double-applies. A gap (a frame beyond ``applied_lsn + 1``) is a typed
:class:`~repro.exceptions.ReplicationError`; the shipper resynchronises
its cursor from the status this applier reports.

Divergence — a CRC mismatch, a replay failure, or a digest exchange
that disagrees at a matched LSN — **quarantines** the tenant: reads
fail typed, applies fail typed, and only a re-seed
(:meth:`ReplicaApplier.apply_seed`, which renames the diverged state
aside and restores from the primary's shipped checkpoint + WAL) clears
it. A diverged replica never silently serves answers.

Promotion (:meth:`ReplicaApplier.promote`) fences the deposed primary's
directories at the new epoch *first*, then drains their on-disk WAL
tails, bumps the epoch in the replica's directories, and arms the
follower sessions for writes — returning them so the hosting service
can adopt them as live tenants. Fence-before-drain is the ordering that
makes "zero committed-state loss" true: once the fence lands, a
still-alive old primary's next append raises
:class:`~repro.exceptions.FencedError` instead of committing a record
the drain already missed.
"""

from __future__ import annotations

import contextlib
import os
import threading
from base64 import b64decode
from pathlib import Path

from repro import obs
from repro.core.engine import Ringo
from repro.exceptions import (
    DivergenceError,
    FencedError,
    ReplicaLagError,
    ReplicationError,
)
from repro.faults import fault_point
from repro.recovery import ops as _ops
from repro.recovery.checkpoint import quarantine as _quarantine_path
from repro.recovery.digest import catalog_digest
from repro.recovery.epoch import fence, read_epoch, write_epoch
from repro.recovery.recover import recover_session
from repro.recovery.wal import (
    WAL_FILENAME,
    WalRecord,
    WalTail,
    frame_record,
    iter_wal,
    open_for_append,
    unframe,
)


def validate_tenant_name(name: str) -> str:
    """Refuse tenant names that are not plain directory names.

    Replication verbs receive the tenant name off the wire and use it
    as a path component under the replica's spool; anything path-like
    (separators, ``..``, absolute paths) would let a malicious or buggy
    shipper create directories — and, via ``replicate_seed``, write
    arbitrary file content — outside the spool.
    """
    if (
        not name
        or name in (".", "..")
        or "\x00" in name
        or "\\" in name
        or name != Path(name).name
    ):
        raise ReplicationError(
            f"invalid tenant name {name!r}: tenant names must be plain "
            f"directory names (no separators, traversal, or NUL bytes)"
        )
    return name


class ReplicaTenant:
    """One tenant's follower state on the replica."""

    def __init__(self, applier: "ReplicaApplier", tenant: str) -> None:
        self.applier = applier
        self.tenant = tenant
        self.directory = Path(applier.spool_dir) / tenant
        self.lock = threading.Lock()
        self.session: "Ringo | None" = None
        #: Where the replica's own WAL ends: its recovery scan, advanced
        #: by each persisted frame. Promotion arms the writer from it.
        self.tail = WalTail()
        self.tip_lsn = 0
        self.epoch = 0
        self.quarantined: "str | None" = None
        self.applied_records = 0
        self.skipped_frames = 0
        self.digest_checks = 0
        self.reseeds = 0
        self._wal_handle = None

    @property
    def applied_lsn(self) -> int:
        """LSN of the last record persisted to the replica's own WAL."""
        return self.tail.records

    # -- follower lifecycle ---------------------------------------------

    def open(self) -> None:
        """Recover (or freshly create) the unarmed follower session."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self.session, self.tail = recover_session(
            Ringo, self.directory, arm=False, workers=self.applier.session_workers
        )
        self.tip_lsn = max(self.tip_lsn, self.applied_lsn)
        self.epoch = max(read_epoch(self.directory).epoch, self.tail.epoch)
        self._wal_handle = open_for_append(self.directory / WAL_FILENAME, self.tail)

    def close(self) -> None:
        if self._wal_handle is not None and not self._wal_handle.closed:
            self._wal_handle.flush()
            self._wal_handle.close()
        self._wal_handle = None
        if self.session is not None:
            self.session.close()
            self.session = None

    # -- frame application ----------------------------------------------

    def apply(self, record: WalRecord) -> bool:
        """Replay and persist one verified record; False if already applied.

        Callers hold ``self.lock``. Any replay failure quarantines the
        tenant — the on-disk WAL and in-memory catalog could otherwise
        drift apart, which is exactly the divergence this layer exists
        to refuse.
        """
        lsn = record.lsn
        if lsn <= self.applied_lsn:
            self.skipped_frames += 1
            return False
        if lsn != self.applied_lsn + 1:
            raise ReplicationError(
                f"shipped frame for tenant {self.tenant!r} jumps to LSN "
                f"{lsn} (replica has applied {self.applied_lsn}); the "
                f"shipper must resynchronise its cursor"
            )
        try:
            _ops.apply_record(self.session, record)
        except Exception as error:
            self.quarantined = (
                f"replay of shipped LSN {lsn} ({record.op}) failed: "
                f"{type(error).__name__}: {error}"
            )
            obs.count("replication.divergence_total")
            raise DivergenceError(self.tenant, lsn, self.quarantined)
        # Replay succeeded: commit the byte-identical frame to the
        # replica's own log, so the follower can itself be recovered
        # (or promoted) from disk at any point. A persist failure here
        # must quarantine too: the in-memory catalog already holds the
        # mutation, so letting the shipper's resend through would
        # replay it a second time.
        line = frame_record(record.payload())
        try:
            self._wal_handle.write(line)
            self._wal_handle.flush()
            os.fsync(self._wal_handle.fileno())
        except Exception as error:
            self.quarantined = (
                f"persisting shipped LSN {lsn} ({record.op}) failed after "
                f"replay: {type(error).__name__}: {error}"
            )
            obs.count("replication.divergence_total")
            raise DivergenceError(self.tenant, lsn, self.quarantined)
        self.tail.advance(record, len(line))
        self.applied_records += 1
        return True

    def check_digest(self, expected: dict) -> bool:
        """Compare a primary digest taken at ``expected["lsn"]``.

        Only checked when the follower sits exactly at that LSN — a
        digest for a watermark the replica has moved past (or not yet
        reached) proves nothing either way. A mismatch quarantines.
        """
        lsn = int(expected.get("lsn", -1))
        if lsn != self.applied_lsn:
            return False
        local = catalog_digest(self.session)
        if local != (expected.get("digest") or {}):
            self.quarantined = (
                f"catalog digest mismatch against primary at LSN {lsn}"
            )
            obs.count("replication.divergence_total")
            raise DivergenceError(self.tenant, lsn, self.quarantined)
        self.digest_checks += 1
        return True

    def snapshot(self) -> dict:
        return {
            "applied_lsn": self.applied_lsn,
            "tip_lsn": self.tip_lsn,
            "lag_records": max(0, self.tip_lsn - self.applied_lsn),
            "epoch": self.epoch,
            "quarantined": self.quarantined,
            "applied_records": self.applied_records,
            "skipped_frames": self.skipped_frames,
            "digest_checks": self.digest_checks,
            "reseeds": self.reseeds,
        }


class ReplicaApplier:
    """All follower tenants on one replica service."""

    def __init__(
        self,
        spool_dir,
        lag_degrade_records: int = 1024,
        session_workers: int = 1,
    ) -> None:
        self.spool_dir = Path(spool_dir)
        self.lag_degrade_records = lag_degrade_records
        self.session_workers = session_workers
        self.promoted_epoch: "int | None" = None
        self._tenants: dict[str, ReplicaTenant] = {}
        self._tenants_lock = threading.Lock()

    def tenant(self, name: str) -> ReplicaTenant:
        validate_tenant_name(name)
        with self._tenants_lock:
            record = self._tenants.get(name)
            if record is None:
                record = ReplicaTenant(self, name)
                self._tenants[name] = record
        if record.session is None:
            with record.lock:
                if record.session is None:
                    record.open()
        return record

    def close(self) -> None:
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for record in tenants:
            with record.lock:
                record.close()

    # -- the ship-stream surface ----------------------------------------

    def apply_batch(
        self,
        tenant: str,
        epoch: int = 0,
        frames: "list | None" = None,
        tip_lsn: "int | None" = None,
        digest: "dict | None" = None,
    ) -> dict:
        """Apply one shipped batch; returns the replica's status for it.

        The ``replication.apply`` fault site fires before any frame is
        touched — a firing is a retryable envelope to the shipper, and
        the eventual resend is absorbed by the LSN cursor. An empty
        ``frames`` list is the status probe shippers use to
        resynchronise after an error.
        """
        fault_point("replication.apply")
        record = self.tenant(tenant)
        with record.lock, obs.trace(
            "replication.apply", tenant=tenant, frames=len(frames or ())
        ):
            if record.quarantined is not None:
                raise DivergenceError(
                    tenant, record.applied_lsn,
                    f"replica state is quarantined ({record.quarantined}); "
                    f"re-seed it from the primary's latest checkpoint",
                )
            epoch = int(epoch)
            if epoch < record.epoch:
                raise FencedError(str(record.directory), epoch, record.epoch)
            record.epoch = max(record.epoch, epoch)
            if tip_lsn is not None:
                record.tip_lsn = max(record.tip_lsn, int(tip_lsn))
            applied = 0
            for frame in frames or ():
                # The payload's canonical JSON is exactly the bytes the
                # primary framed, so its CRC must verify. A frame that
                # does not is divergence, not a retry: the stream can no
                # longer be trusted byte-for-byte.
                try:
                    shipped = WalRecord.from_payload(unframe(frame))
                except (ValueError, KeyError, TypeError) as error:
                    record.quarantined = (
                        f"shipped frame after LSN {record.applied_lsn} "
                        f"failed its check: {error}"
                    )
                    obs.count("replication.divergence_total")
                    raise DivergenceError(
                        tenant, record.applied_lsn, record.quarantined
                    ) from None
                if record.apply(shipped):
                    applied += 1
            record.tip_lsn = max(record.tip_lsn, record.applied_lsn)
            digest_checked = False
            if digest is not None:
                digest_checked = record.check_digest(digest)
            obs.count("replication.applied_records", applied)
            return {
                "tenant": tenant,
                "applied": applied,
                "applied_lsn": record.applied_lsn,
                "epoch": record.epoch,
                "digest_checked": digest_checked,
            }

    def apply_seed(
        self, tenant: str, epoch: int = 0, files: "dict | None" = None
    ) -> dict:
        """Replace a tenant's follower state with a shipped seed.

        ``files`` maps paths relative to the tenant's durability
        directory (the primary's checkpoint artifacts plus its full
        ``wal.jsonl``) to base64 content. The existing replica state —
        diverged or merely stale — is renamed aside, never deleted.
        """
        record = self.tenant(tenant)
        with record.lock, obs.trace("replication.seed", tenant=tenant):
            record.close()
            if any(record.directory.iterdir()):
                moved = _quarantine_path(record.directory)
                obs.count("replication.reseeds_total")
            else:
                record.directory.rmdir()
                moved = None
            record.directory.mkdir(parents=True)
            for rel_path, encoded in (files or {}).items():
                rel = Path(rel_path)
                if rel.is_absolute() or ".." in rel.parts:
                    raise ReplicationError(
                        f"seed file path {rel_path!r} escapes the tenant directory"
                    )
                target = record.directory / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(b64decode(encoded))
            if epoch:
                write_epoch(record.directory, int(epoch))
            record.quarantined = None
            record.reseeds += 1
            record.open()
            return {
                "tenant": tenant,
                "applied_lsn": record.applied_lsn,
                "epoch": record.epoch,
                "quarantined_to": None if moved is None else str(moved),
            }

    # -- reads ----------------------------------------------------------

    def ensure_readable(self, tenant: str) -> ReplicaTenant:
        """Gate a read: quarantined state and excess lag both fail typed."""
        record = self.tenant(tenant)
        if record.quarantined is not None:
            raise DivergenceError(tenant, record.applied_lsn, record.quarantined)
        lag = max(0, record.tip_lsn - record.applied_lsn)
        if lag > self.lag_degrade_records:
            obs.count("replication.degraded_reads_total")
            raise ReplicaLagError(tenant, lag, self.lag_degrade_records)
        return record

    # -- promotion -------------------------------------------------------

    def promote(
        self,
        new_epoch: "int | None" = None,
        fence_spool: "str | None" = None,
    ) -> "tuple[dict, dict[str, Ringo]]":
        """Promote this replica: fence, drain, bump epoch, arm.

        ``fence_spool`` is the deposed primary's spool root. Each of its
        tenant directories is fenced at the new epoch *before* anything
        else, so an old primary that is alive but wrongly declared dead
        stops committing (its per-append fence check raises
        :class:`~repro.exceptions.FencedError`) — only then are the
        tenants' WAL tails drained directly from disk (the committed
        suffix the ship stream had not delivered yet). Fence-then-drain
        is the zero-committed-state-loss ordering: drain-then-fence
        would let the old primary acknowledge records after the drain
        read its WAL, records the fence then silently discards.

        Returns ``(report, sessions)`` where ``sessions`` maps tenant
        names to armed, writable :class:`Ringo` sessions ready for the
        hosting service to adopt. The ``replication.promote`` fault site
        fires first: a firing aborts with nothing bumped or fenced.
        """
        fault_point("replication.promote")
        report: dict = {"tenants": {}, "drained_records": 0}
        with obs.trace("replication.promote"):
            tenant_names = set(self._known_tenants())
            if fence_spool is not None:
                tenant_names.update(self._spool_tenants(fence_spool))
            records = [self.tenant(name) for name in sorted(tenant_names)]
            with contextlib.ExitStack() as stack:
                for record in records:
                    stack.enter_context(record.lock)
                for record in records:
                    if record.quarantined is not None:
                        raise DivergenceError(
                            record.tenant, record.applied_lsn,
                            f"cannot promote a quarantined replica "
                            f"({record.quarantined}); re-seed first",
                        )
                if new_epoch is None:
                    highest = max((r.epoch for r in records), default=0)
                    if fence_spool is not None:
                        for name in tenant_names:
                            highest = max(
                                highest,
                                read_epoch(Path(fence_spool) / name).epoch,
                            )
                    new_epoch = highest + 1
                new_epoch = int(new_epoch)
                drained = 0
                if fence_spool is not None:
                    # Fence FIRST, drain SECOND. The primary's WAL
                    # re-checks the epoch file on every append, so once
                    # these fences land a not-actually-dead primary can
                    # commit at most one already-in-flight record; the
                    # drain that follows reads everything it managed to
                    # acknowledge. The reverse order would leave the
                    # whole promote duration as a window in which the
                    # old primary acks records the drain never saw.
                    for name in sorted(tenant_names):
                        fence(Path(fence_spool) / name, new_epoch)
                    for record in records:
                        drained += self._drain_tail(record, Path(fence_spool))
                report["drained_records"] = drained
                sessions: dict[str, Ringo] = {}
                for record in records:
                    write_epoch(record.directory, new_epoch)
                    record.epoch = new_epoch
                for record in records:
                    # Hand the *live* follower over instead of
                    # re-recovering from disk: its snapshot caches and
                    # dynamic algorithm state stay warm, which is the
                    # point of hot standby. Arming opens the replica's
                    # WAL (now at the new epoch) for writes.
                    if record._wal_handle is not None:
                        record._wal_handle.flush()
                        record._wal_handle.close()
                        record._wal_handle = None
                    session = record.session
                    record.session = None
                    session._arm_durability(record.directory, record.tail)
                    sessions[record.tenant] = session
                    report["tenants"][record.tenant] = {
                        "applied_lsn": record.applied_lsn,
                        "epoch": new_epoch,
                    }
                self.promoted_epoch = new_epoch
                report["epoch"] = new_epoch
                report["fenced_spool"] = fence_spool
                obs.count("replication.promotions_total")
                return report, sessions

    def _drain_tail(self, record: ReplicaTenant, primary_spool: Path) -> int:
        """Apply the committed suffix of the primary's on-disk WAL.

        ``iter_wal`` yields the valid prefix only, so a SIGKILL-torn
        final frame on the primary — never acknowledged as committed —
        is excluded by construction.
        """
        wal_path = primary_spool / record.tenant / WAL_FILENAME
        return sum(
            record.apply(primary_record)
            for primary_record in iter_wal(wal_path, WalTail())
            if primary_record.lsn > record.applied_lsn
        )

    # -- reporting -------------------------------------------------------

    def _known_tenants(self) -> list[str]:
        with self._tenants_lock:
            known = set(self._tenants)
        if self.spool_dir.is_dir():
            known.update(self._spool_tenants(self.spool_dir))
        return sorted(known)

    @staticmethod
    def _spool_tenants(spool: "str | os.PathLike[str]") -> list[str]:
        spool = Path(spool)
        if not spool.is_dir():
            return []
        return sorted(
            entry.name
            for entry in spool.iterdir()
            if entry.is_dir()
            and (entry / WAL_FILENAME).exists()
            # Diverged state renamed aside by a re-seed is evidence to
            # inspect, not a tenant to follow (or promote).
            and ".quarantined" not in entry.name
        )

    def health(self) -> dict:
        """The ``health()["replication"]`` section for a replica."""
        with self._tenants_lock:
            tenants = dict(self._tenants)
        snapshots = {name: record.snapshot() for name, record in tenants.items()}
        return {
            "role": "replica",
            "lag_degrade_records": self.lag_degrade_records,
            "promoted_epoch": self.promoted_epoch,
            "tenants": snapshots,
        }
