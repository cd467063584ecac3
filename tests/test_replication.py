"""Hot-standby replication: epochs, fencing, shipping, divergence, lag.

The unit layer drives :mod:`repro.recovery.epoch` and the
:class:`ReplicaApplier` directly; the integration layer runs a real
primary/replica :class:`ServiceHandle` pair and proves the ship stream
keeps the standby's catalog digest equal to the primary's, that a
diverged replica is quarantined and automatically re-seeded, and that
``promote`` turns the standby into a writable primary. The satellite
regressions live here too: ``TailWal`` absorbing seeded faults under a
retry policy, and :class:`ServiceClient` failing over an ordered
address list mid-request.
"""

import time
from pathlib import Path

import pytest

from repro.core.engine import Ringo
from repro.exceptions import (
    DivergenceError,
    FencedError,
    InjectedFaultError,
    RecoveryError,
    ReplicaLagError,
    ReplicationError,
    TransientError,
)
from repro.faults import KNOWN_SITES, inject_faults
from repro.parallel.resilience import RetryPolicy
from repro.recovery.digest import catalog_digest, object_digest
from repro.recovery.epoch import EpochState, fence, read_epoch, write_epoch
from repro.recovery.wal import WAL_FILENAME, read_wal
from repro.replication import ReplicaApplier, WalShipper
from repro.replication.ship import record_frame
from repro.service.client import EndpointFailure, ServiceClient
from repro.service.protocol import RemoteError
from repro.service.server import ServiceConfig, ServiceHandle

REPLICATION_SITES = (
    "replication.ship",
    "replication.apply",
    "replication.promote",
)


def wait_until(predicate, timeout=30.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def test_replication_sites_are_registered():
    for site in REPLICATION_SITES:
        assert site in KNOWN_SITES, site


class TestEpoch:
    def test_missing_file_is_epoch_zero_unfenced(self, tmp_path):
        assert read_epoch(tmp_path) == EpochState(epoch=0, fenced=False)

    def test_write_and_read_round_trip(self, tmp_path):
        write_epoch(tmp_path, 3)
        assert read_epoch(tmp_path) == EpochState(epoch=3, fenced=False)

    def test_backwards_epoch_is_refused(self, tmp_path):
        write_epoch(tmp_path, 5)
        with pytest.raises(RecoveryError):
            write_epoch(tmp_path, 4)

    def test_fence_marks_and_keeps_the_higher_epoch(self, tmp_path):
        write_epoch(tmp_path, 2)
        fence(tmp_path, 7)
        assert read_epoch(tmp_path) == EpochState(epoch=7, fenced=True)
        fence(tmp_path, 1)  # a stale fence never lowers the term
        assert read_epoch(tmp_path).epoch == 7


class TestWalFencing:
    def test_fenced_directory_refuses_appends(self, tmp_path):
        with Ringo(workers=1, durability=tmp_path) as session:
            session.TableFromColumns({"a": [1, 2]})
            fence(tmp_path, 1)
            with pytest.raises(FencedError) as excinfo:
                session.TableFromColumns({"b": [3]})
            assert excinfo.value.current_epoch == 1
        # Nothing past the fence reached the log.
        records, _ = read_wal(tmp_path / WAL_FILENAME)
        assert [r.op for r in records] == ["TableFromColumns"]

    def test_epoch_zero_frames_stay_byte_stable(self, tmp_path):
        with Ringo(workers=1, durability=tmp_path) as session:
            session.TableFromColumns({"a": [1]})
        line = (tmp_path / WAL_FILENAME).read_bytes()
        assert b'"epoch"' not in line  # pre-replication logs are unchanged

    def test_promoted_epoch_is_stamped_into_frames(self, tmp_path):
        write_epoch(tmp_path, 2)
        with Ringo(workers=1, durability=tmp_path) as session:
            session.TableFromColumns({"a": [1]})
            assert session.health()["recovery"]["wal"]["epoch"] == 2
        records, _ = read_wal(tmp_path / WAL_FILENAME)
        assert records[-1].epoch == 2

    def test_checkpoint_manifest_records_the_epoch(self, tmp_path):
        import json

        from repro.recovery.checkpoint import find_checkpoints

        write_epoch(tmp_path, 4)
        with Ringo(workers=1, durability=tmp_path) as session:
            session.TableFromColumns({"a": [1]})
            session.checkpoint()
        newest = find_checkpoints(tmp_path)[0]
        manifest = json.loads((newest / "MANIFEST.json").read_text())
        assert manifest["epoch"] == 4

    def test_revived_fenced_primary_cannot_append(self, tmp_path):
        with Ringo(workers=1, durability=tmp_path) as session:
            session.TableFromColumns({"a": [1, 2]})
        fence(tmp_path, 3)
        revived = Ringo.recover(tmp_path, workers=1)
        with revived:
            with pytest.raises(FencedError):
                revived.TableFromColumns({"b": [9]})


def _primary_records(directory):
    """Build a committed WAL under ``directory`` and return its records."""
    with Ringo(workers=1, durability=directory) as session:
        table = session.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 4]})
        graph = session.ToGraph(table, "a", "b")
        session.ApplyOps(graph, [["add_edge", 9, 10], ["del_edge", 1, 2]])
        digest = catalog_digest(session)
    records, _ = read_wal(Path(directory) / WAL_FILENAME)
    return records, digest


class TestReplicaApplier:
    def test_apply_replays_to_an_equal_catalog(self, tmp_path):
        records, digest = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        status = applier.apply_batch(
            "alice",
            frames=[record_frame(r) for r in records],
            tip_lsn=records[-1].lsn,
            digest={"lsn": records[-1].lsn, "digest": digest},
        )
        assert status["applied"] == len(records)
        assert status["digest_checked"] is True
        tenant = applier.tenant("alice")
        assert catalog_digest(tenant.session) == digest
        # The replica's own WAL is byte-identical to the primary's.
        assert (tmp_path / "r" / "alice" / WAL_FILENAME).read_bytes() == (
            tmp_path / "p" / "alice" / WAL_FILENAME
        ).read_bytes()
        applier.close()

    def test_shipped_with_column_lands_through_apply_record(
        self, tmp_path, monkeypatch
    ):
        """An in-place op on an adopted input replays on the follower
        through the one shared ``apply_record``, to an equal catalog."""
        from repro.recovery import ops
        from repro.tables.table import Table

        primary = tmp_path / "p" / "alice"
        with Ringo(workers=1, durability=primary) as session:
            foreign = Table.from_columns({"a": [1, 2], "b": [3, 4]}, pool=session.pool)
            session.WithColumn(foreign, "c", "a + b")
            session.Limit(foreign, 1)
            digest = catalog_digest(session)
            counter = session._publish_counter
        records, _ = read_wal(primary / WAL_FILENAME)
        assert [r.op for r in records] == ["__adopt_table__", "WithColumn", "Limit"]
        assert records[1].mutates
        applied = []
        real = ops.apply_record

        def counting(session, record):
            applied.append(record.op)
            return real(session, record)

        monkeypatch.setattr(ops, "apply_record", counting)
        applier = ReplicaApplier(tmp_path / "r")
        applier.apply_batch("alice", frames=[record_frame(r) for r in records])
        assert applied == [r.op for r in records]
        follower = applier.tenant("alice").session
        assert catalog_digest(follower) == digest
        assert follower._publish_counter == counter
        applier.close()

    def test_resent_frames_are_idempotent(self, tmp_path):
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        frames = [record_frame(r) for r in records]
        applier.apply_batch("alice", frames=frames)
        status = applier.apply_batch("alice", frames=frames)
        assert status["applied"] == 0
        assert applier.tenant("alice").skipped_frames == len(frames)
        applier.close()

    def test_lsn_gap_demands_a_resync(self, tmp_path):
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        with pytest.raises(ReplicationError):
            applier.apply_batch("alice", frames=[record_frame(records[-1])])
        applier.close()

    def test_corrupt_frame_quarantines_until_reseed(self, tmp_path):
        records, digest = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        frames = [record_frame(r) for r in records]
        frames[1]["crc"] ^= 0xFF
        with pytest.raises(DivergenceError):
            applier.apply_batch("alice", frames=frames)
        # Quarantined: neither reads nor further applies are served.
        with pytest.raises(DivergenceError):
            applier.ensure_readable("alice")
        with pytest.raises(DivergenceError):
            applier.apply_batch("alice", frames=[record_frame(records[1])])
        # Re-seed from the primary's artifacts clears the quarantine.
        import base64

        wal_bytes = (tmp_path / "p" / "alice" / WAL_FILENAME).read_bytes()
        seed = {WAL_FILENAME: base64.b64encode(wal_bytes).decode("ascii")}
        status = applier.apply_seed("alice", files=seed)
        assert status["applied_lsn"] == records[-1].lsn
        assert status["quarantined_to"] is not None
        tenant = applier.ensure_readable("alice")
        assert catalog_digest(tenant.session) == digest
        assert tenant.reseeds == 1
        applier.close()

    def test_digest_mismatch_at_watermark_quarantines(self, tmp_path):
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        wrong = {"lsn": records[-1].lsn, "digest": {"bogus": "0" * 16}}
        with pytest.raises(DivergenceError):
            applier.apply_batch(
                "alice",
                frames=[record_frame(r) for r in records],
                digest=wrong,
            )
        assert applier.tenant("alice").quarantined is not None
        applier.close()

    def test_lag_past_threshold_degrades_reads(self, tmp_path):
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r", lag_degrade_records=2)
        applier.apply_batch(
            "alice",
            frames=[record_frame(records[0])],
            tip_lsn=records[0].lsn + 10,
        )
        with pytest.raises(ReplicaLagError) as excinfo:
            applier.ensure_readable("alice")
        assert excinfo.value.lag_records == 10
        assert isinstance(excinfo.value, ReplicationError)
        applier.close()

    def test_stale_epoch_batch_is_fenced(self, tmp_path):
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        applier.apply_batch("alice", epoch=2, frames=[])
        with pytest.raises(FencedError):
            applier.apply_batch(
                "alice", epoch=1, frames=[record_frame(records[0])]
            )
        applier.close()

    def test_promote_drains_fences_and_arms(self, tmp_path):
        records, digest = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        # Ship only a prefix; promotion must drain the rest from disk.
        applier.apply_batch(
            "alice", frames=[record_frame(r) for r in records[:1]]
        )
        report, sessions = applier.promote(fence_spool=str(tmp_path / "p"))
        assert report["epoch"] == 1
        assert report["drained_records"] == len(records) - 1
        promoted = sessions["alice"]
        assert catalog_digest(promoted) == digest
        promoted.TableFromColumns({"x": [1]})  # armed and writable
        promoted.close()
        # The deposed primary is fenced at the new epoch.
        assert read_epoch(tmp_path / "p" / "alice") == EpochState(1, True)
        revived = Ringo.recover(tmp_path / "p" / "alice", workers=1)
        with revived:
            with pytest.raises(FencedError):
                revived.TableFromColumns({"q": [1]})

    def test_promote_fault_aborts_cleanly(self, tmp_path):
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        applier.apply_batch("alice", frames=[record_frame(r) for r in records])
        with inject_faults({"replication.promote": 1.0}, seed=3):
            with pytest.raises(InjectedFaultError):
                applier.promote(fence_spool=str(tmp_path / "p"))
        # Nothing was bumped or fenced; a retry succeeds.
        assert read_epoch(tmp_path / "p" / "alice").fenced is False
        report, sessions = applier.promote(fence_spool=str(tmp_path / "p"))
        assert report["epoch"] == 1
        for session in sessions.values():
            session.close()

    def test_quarantined_tenant_blocks_promotion(self, tmp_path):
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        frames = [record_frame(r) for r in records]
        frames[0]["crc"] ^= 1
        with pytest.raises(DivergenceError):
            applier.apply_batch("alice", frames=frames)
        with pytest.raises(DivergenceError):
            applier.promote(fence_spool=str(tmp_path / "p"))
        applier.close()

    def test_promote_fences_the_primary_before_draining(self, tmp_path, monkeypatch):
        # The zero-committed-state-loss ordering: if the drain ran
        # first, a primary that is alive but wrongly declared dead
        # could acknowledge commits after the drain read its WAL and
        # before the fence landed — records then lost forever.
        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        applier.apply_batch("alice", frames=[record_frame(records[0])])
        fenced_when_drained = {}
        original = ReplicaApplier._drain_tail

        def checked(self, record, primary_spool):
            fenced_when_drained[record.tenant] = read_epoch(
                primary_spool / record.tenant
            ).fenced
            return original(self, record, primary_spool)

        monkeypatch.setattr(ReplicaApplier, "_drain_tail", checked)
        report, sessions = applier.promote(fence_spool=str(tmp_path / "p"))
        assert fenced_when_drained == {"alice": True}
        assert report["drained_records"] == len(records) - 1
        for session in sessions.values():
            session.close()

    def test_persist_failure_quarantines_instead_of_double_apply(
        self, tmp_path, monkeypatch
    ):
        # A disk error while persisting an already-replayed frame must
        # quarantine: the in-memory catalog holds the mutation, so
        # accepting the shipper's resend would apply it twice.
        import repro.replication.apply as apply_mod

        records, _ = _primary_records(tmp_path / "p" / "alice")
        applier = ReplicaApplier(tmp_path / "r")
        frames = [record_frame(r) for r in records]
        applier.apply_batch("alice", frames=frames[:1])

        def failing_fsync(fd):
            raise OSError("injected disk failure")

        monkeypatch.setattr(apply_mod.os, "fsync", failing_fsync)
        with pytest.raises(DivergenceError):
            applier.apply_batch("alice", frames=frames[1:2])
        monkeypatch.undo()
        tenant = applier.tenant("alice")
        assert tenant.quarantined is not None
        assert tenant.applied_lsn == records[0].lsn
        # The resend is refused typed, not silently replayed again.
        with pytest.raises(DivergenceError):
            applier.apply_batch("alice", frames=frames[1:2])
        applier.close()

    def test_path_like_tenant_names_are_rejected(self, tmp_path):
        # Tenant names arrive off the wire and become path components
        # under the spool; anything path-like must be refused before it
        # touches the filesystem.
        applier = ReplicaApplier(tmp_path / "r")
        for name in ("", ".", "..", "a/b", "../../other", "a\\b", "a\x00b"):
            with pytest.raises(ReplicationError):
                applier.apply_batch(name, frames=[])
            with pytest.raises(ReplicationError):
                applier.apply_seed(name, files={})
        assert not (tmp_path / "r").exists()  # nothing was ever created
        applier.close()


class TestTailWalRetry:
    def _stream(self, tmp_path):
        state = tmp_path / "stream"
        with Ringo(workers=1, durability=state) as producer:
            table = producer.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 1]})
            graph = producer.ToGraph(table, "a", "b")
            producer.ApplyOps(graph, [["add_edge", 3, 4], ["add_edge", 4, 1]])
            producer.ApplyOps(graph, [["del_edge", 1, 2]])
            source_digest = object_digest(graph)
        follower = Ringo(workers=1, durability=tmp_path / "follower")
        table = follower.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 1]})
        mirror = follower.ToGraph(table, "a", "b")
        return state, follower, mirror, source_digest

    def test_retry_policy_absorbs_transient_tail_faults(self, tmp_path):
        state, follower, mirror, source_digest = self._stream(tmp_path)
        policy = RetryPolicy(max_attempts=6, base_delay=0.001)
        with follower:
            with inject_faults(
                {"incremental.wal.tail": {"rate": 0.5, "max_triggers": 4}},
                seed=9,
            ) as plan:
                summary = follower.TailWal(state, retry_policy=policy)
            assert plan.triggered["incremental.wal.tail"] >= 1
            # Every firing was absorbed in place: one pass, no stop.
            assert summary["error"] is None
            assert summary["applied_records"] == 2
            assert object_digest(mirror) == source_digest

    def test_exhaustion_still_stops_with_resumable_cursor(self, tmp_path):
        state, follower, mirror, source_digest = self._stream(tmp_path)
        policy = RetryPolicy(max_attempts=2, base_delay=0.001)
        with follower:
            with inject_faults({"incremental.wal.tail": 1.0}, seed=2):
                stalled = follower.TailWal(state, retry_policy=policy)
            assert stalled["error"] is not None
            assert "RetryExhaustedError" in stalled["error"]
            resumed = follower.TailWal(state, cursor=stalled["cursor"])
            assert resumed["error"] is None
            assert object_digest(mirror) == source_digest


class TestClientFailover:
    def test_dead_first_endpoint_fails_over(self, tmp_path):
        with ServiceHandle(ServiceConfig(spool_dir=str(tmp_path))) as handle:
            host, port = handle.address
            dead = ("127.0.0.1", 1)  # reserved port: connect always fails
            client = ServiceClient(
                host,
                port,
                tenant="alice",
                retry_policy=RetryPolicy(max_attempts=4, base_delay=0.001),
                addresses=[dead, (host, port)],
            )
            assert client.call("ping") == "pong"
            assert client.last_endpoint == (host, port)
            client.close()

    def test_mid_request_failover_between_services(self, tmp_path):
        first = ServiceHandle(
            ServiceConfig(spool_dir=str(tmp_path / "a"))
        ).start()
        second = ServiceHandle(
            ServiceConfig(spool_dir=str(tmp_path / "b"))
        ).start()
        try:
            client = ServiceClient(
                *first.address,
                tenant="alice",
                retry_policy=RetryPolicy(max_attempts=5, base_delay=0.001),
                addresses=[first.address, second.address],
            )
            assert client.call("ping") == "pong"
            assert client.last_endpoint == first.address
            first.stop()
            # The established connection dies mid-request; the retry
            # policy rotates to the standby transparently.
            assert client.call("ping") == "pong"
            assert client.last_endpoint == second.address
            client.close()
        finally:
            second.stop()

    def test_without_retry_policy_failure_is_typed(self, tmp_path):
        client = ServiceClient(
            "127.0.0.1", 1, tenant="alice",
            addresses=[("127.0.0.1", 1), ("127.0.0.1", 2)],
        )
        with pytest.raises(EndpointFailure) as excinfo:
            client.call("ping")
        assert excinfo.value.endpoint == ("127.0.0.1", 1)
        # Transient by design: a retry policy would have failed over.
        assert isinstance(excinfo.value, TransientError)

    def test_wait_on_dead_connection_is_typed(self):
        # After a failure drops the connection (or before any connect),
        # wait() for a pipelined in-flight request must raise the typed
        # retryable EndpointFailure, never AttributeError on a None file.
        client = ServiceClient(
            "127.0.0.1", 1, tenant="alice",
            addresses=[("127.0.0.1", 1), ("127.0.0.1", 2)],
        )
        with pytest.raises(EndpointFailure) as excinfo:
            client.wait(7)
        assert isinstance(excinfo.value, TransientError)


class _StubReplicaClient:
    """Acks every shipped batch in-process, no network involved."""

    def __init__(self):
        self.applied_lsn = 0
        self.addresses = [("stub", 0)]

    def call(self, op, **args):
        frames = args.get("frames") or []
        if frames:
            self.applied_lsn = frames[-1]["lsn"]
        return {"applied_lsn": self.applied_lsn, "epoch": args.get("epoch", 0)}

    def close(self):
        pass


class TestShipperIncrementalTail:
    def test_cycles_tail_from_the_stored_offset(self, tmp_path, monkeypatch):
        # Each ship cycle must decode only bytes appended since the
        # last one — idle cycles decode nothing, and new commits are
        # picked up from the cursor's offset, never a full rescan.
        import repro.recovery.wal as wal_mod

        records, _ = _primary_records(tmp_path / "spool" / "alice")
        decoded = []
        real_decode = wal_mod.decode_line

        def counting_decode(line, expected_lsn):
            decoded.append(expected_lsn)
            return real_decode(line, expected_lsn)

        monkeypatch.setattr(wal_mod, "decode_line", counting_decode)
        shipper = WalShipper(tmp_path / "spool", [("127.0.0.1", 1)])
        shipper.client = _StubReplicaClient()
        shipper.ship_once()
        cursor = shipper.cursors["alice"]
        assert cursor.applied_lsn == records[-1].lsn
        assert cursor.lag_bytes == 0
        assert decoded == [r.lsn for r in records]
        for _ in range(3):
            shipper.ship_once()
        assert len(decoded) == len(records)  # idle cycles re-read nothing
        with Ringo.recover(tmp_path / "spool" / "alice", workers=1) as session:
            session.TableFromColumns({"x": [1]})
        del decoded[len(records):]  # the recovery's replay scan, not the shipper's
        shipper.ship_once()
        assert decoded[len(records):] == [records[-1].lsn + 1]
        assert shipper.cursors["alice"].applied_lsn == records[-1].lsn + 1


class TestReplicaReadDispatch:
    def test_replica_reads_run_the_primary_dispatch(self, tmp_path):
        # A replica read goes through the primary's dispatch function:
        # one ``service.dispatch`` span per read, and ``digest_at``
        # answers at the follower's (applied LSN, epoch) watermark.
        import repro.obs.spans as spans_module
        from repro import obs

        records, digest = _primary_records(tmp_path / "p" / "alice")
        replica = ServiceHandle(
            ServiceConfig(spool_dir=str(tmp_path / "r"), role="replica",
                          tick_s=0.02)
        ).start()
        previous = spans_module._TRACER
        spans_module._TRACER = None
        tracer = obs.enable()
        try:
            replica.call(
                "alice", "replicate", frames=[record_frame(r) for r in records]
            )
            at = replica.call("alice", "digest_at")
            assert at == {"lsn": records[-1].lsn, "epoch": 0, "digest": digest}
            assert replica.call("alice", "objects") == ["table-1", "graph-2"]
            dispatched = [
                r["tags"]["op"] for r in tracer.ring_records()
                if r["name"] == "service.dispatch" and r["tags"]["tenant"] == "alice"
            ]
            assert dispatched == ["digest_at", "objects"]
        finally:
            obs.disable()
            spans_module._TRACER = previous
            replica.stop()


def _service_pair(tmp_path, **primary_overrides):
    replica = ServiceHandle(
        ServiceConfig(spool_dir=str(tmp_path / "replica"), role="replica",
                      tick_s=0.02)
    ).start()
    rhost, rport = replica.address
    primary = ServiceHandle(
        ServiceConfig(
            spool_dir=str(tmp_path / "primary"),
            replica_address=f"{rhost}:{rport}",
            ship_interval_s=0.02,
            digest_every_batches=2,
            tick_s=0.02,
            **primary_overrides,
        )
    ).start()
    return primary, replica


def _drive_writes(primary, batches=6):
    table = primary.call(
        "alice", "TableFromColumns", data={"a": [1, 2, 3], "b": [2, 3, 4]}
    )
    graph = primary.call(
        "alice", "ToGraph", table={"$ref": table["$ref"]},
        src_col="a", dst_col="b",
    )
    for i in range(batches):
        primary.call(
            "alice", "ApplyOps", graph={"$ref": graph["$ref"]},
            ops=[["add_edge", 10 + i, 11 + i]],
        )
    return graph


def _replica_caught_up(primary, tip):
    def check():
        state = primary.health()["replication"]["tenants"].get("alice")
        return state is not None and state["applied_lsn"] >= tip
    return check


class TestServicePair:
    def test_ship_stream_keeps_digests_equal(self, tmp_path):
        primary, replica = _service_pair(tmp_path)
        try:
            _drive_writes(primary, batches=6)
            wait_until(
                _replica_caught_up(primary, 8), message="replica catch-up"
            )
            assert primary.call("alice", "digest") == replica.call(
                "alice", "digest"
            )
            # Lag and epoch are first-class in both health reports.
            shipped = primary.health()["replication"]
            assert shipped["role"] == "primary"
            state = shipped["tenants"]["alice"]
            assert state["lag_records"] == 0 and state["lag_bytes"] == 0
            applied = replica.health()["replication"]
            assert applied["role"] == "replica"
            assert applied["tenants"]["alice"]["applied_lsn"] >= 8
            # The replica refuses writes with a typed error.
            with pytest.raises(RemoteError) as excinfo:
                replica.call("alice", "TableFromColumns", data={"x": [1]})
            assert "read-only" in str(excinfo.value)
        finally:
            primary.stop()
            replica.stop()

    def test_seeded_faults_are_absorbed_as_backpressure(self, tmp_path):
        primary, replica = _service_pair(tmp_path)
        try:
            # rate=1.0 with max_triggers: the first attempts at both
            # sites fail deterministically, and the shipper's retry
            # policy (plus the idempotent LSN cursor) must absorb them.
            with inject_faults(
                {
                    "replication.ship": {"rate": 1.0, "max_triggers": 2},
                    "replication.apply": {"rate": 1.0, "max_triggers": 2},
                },
                seed=11,
            ) as plan:
                _drive_writes(primary, batches=6)
                wait_until(
                    _replica_caught_up(primary, 8),
                    message="replica catch-up under faults",
                )
            assert sum(plan.triggered.values()) >= 1
            assert primary.call("alice", "digest") == replica.call(
                "alice", "digest"
            )
        finally:
            primary.stop()
            replica.stop()

    def test_divergence_is_detected_and_auto_reseeded(self, tmp_path):
        primary, replica = _service_pair(tmp_path)
        try:
            graph = _drive_writes(primary, batches=3)
            wait_until(
                _replica_caught_up(primary, 5), message="initial catch-up"
            )
            # Corrupt the follower in place: its digest now lies.
            tenant = replica.service.applier.tenant("alice")
            with tenant.lock:
                name = [
                    n for n in tenant.session.Objects() if n.startswith("graph")
                ][0]
                tenant.session.GetObject(name).add_edge(777, 778)
            # More writes force a digest exchange at the next watermark;
            # the mismatch must quarantine and then auto re-seed.
            for i in range(4):
                primary.call(
                    "alice", "ApplyOps", graph={"$ref": graph["$ref"]},
                    ops=[["add_edge", 50 + i, 51 + i]],
                )

            def reseeded():
                state = primary.health()["replication"]["tenants"]["alice"]
                return state["reseeds"] >= 1 and state["lag_records"] == 0
            wait_until(reseeded, message="divergence detection + re-seed")
            assert primary.call("alice", "digest") == replica.call(
                "alice", "digest"
            )
        finally:
            primary.stop()
            replica.stop()

    def test_promote_verb_flips_the_replica_to_primary(self, tmp_path):
        primary, replica = _service_pair(tmp_path)
        try:
            _drive_writes(primary, batches=4)
            wait_until(_replica_caught_up(primary, 6), message="catch-up")
            reference = primary.call("alice", "digest")
            primary.stop()
            report = replica.call(
                "alice", "promote",
                fence_spool=str(tmp_path / "primary"),
            )
            assert report["epoch"] >= 1
            assert "alice" in report["adopted"]
            assert replica.call("alice", "digest") == reference
            result = replica.call(
                "alice", "TableFromColumns", data={"x": [1, 2]}
            )
            assert result["rows"] == 2
            assert replica.health()["replication"]["role"] == "primary"
        finally:
            replica.stop()
