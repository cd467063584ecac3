"""One scan per WAL: every reader resumes a ``WalTail``.

Recovery hands its replay scan's tail to the writer it arms, a replica
takes its applied LSN and epoch from its own recovery scan and advances
that tail with each persisted frame, and promotion arms the writer from
it. Each test counts calls to :func:`repro.recovery.wal.decode_line`,
the one place a frame is decoded.
"""

import json
from pathlib import Path

import pytest

import repro.recovery.wal as wal_mod
from repro.core.engine import Ringo
from repro.exceptions import RecoveryError
from repro.recovery.wal import (
    WAL_FILENAME,
    WalTail,
    frame_record,
    iter_wal,
    read_wal,
)
from repro.replication import ReplicaApplier
from repro.replication.ship import record_frame

GOLDEN = Path(__file__).parent / "fixtures" / "golden_wal"


@pytest.fixture()
def decoded(monkeypatch):
    """The LSNs ``decode_line`` was asked for, in call order."""
    calls = []
    real_decode = wal_mod.decode_line

    def counting_decode(line, expected_lsn):
        calls.append(expected_lsn)
        return real_decode(line, expected_lsn)

    monkeypatch.setattr(wal_mod, "decode_line", counting_decode)
    return calls


def _write_session(directory, rounds=4, checkpoint=False):
    """A durable session with ``rounds + 2`` committed records."""
    with Ringo(workers=1, durability=directory) as session:
        table = session.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 4]})
        graph = session.ToGraph(table, "a", "b")
        for i in range(rounds):
            session.ApplyOps(graph, [["add_edge", 10 + i, 11 + i]])
        if checkpoint:
            session.checkpoint()
    return rounds + 2


class TestRecoveryScansOnce:
    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_recover_decodes_each_record_once(self, tmp_path, decoded, checkpoint):
        n = _write_session(tmp_path / "state", checkpoint=checkpoint)
        decoded.clear()
        with Ringo.recover(tmp_path / "state", workers=1) as session:
            assert decoded == list(range(1, n + 1))
            assert session._durability.wal.last_lsn == n
            session.TableFromColumns({"x": [1]})
        records, tail = read_wal(tmp_path / "state" / WAL_FILENAME)
        assert [r.lsn for r in records] == list(range(1, n + 2))
        assert not tail.torn

    def test_torn_final_frame_loses_only_that_suffix(self, tmp_path, decoded):
        state = tmp_path / "state"
        n = _write_session(state)
        path = state / WAL_FILENAME
        valid = path.read_bytes()
        whole = frame_record(
            {"lsn": n + 1, "op": "B", "args": {}, "inputs": [], "output": "t"}
        )
        with open(path, "ab") as handle:
            handle.write(whole[: len(whole) // 2])
        decoded.clear()
        with Ringo.recover(state, workers=1) as session:
            assert decoded == list(range(1, n + 1))
            report = session.health()["recovery"]
            assert report["last_recovery"]["wal_records"] == n
            assert report["last_recovery"]["wal_torn_tail"]
            assert report["wal"]["recovered_torn_tail"]
            # The torn suffix is cut off before anything is appended.
            assert path.read_bytes() == valid
            session.TableFromColumns({"x": [1]})
        records, tail = read_wal(path)
        assert [r.lsn for r in records] == list(range(1, n + 2))
        assert not tail.torn
        assert path.read_bytes().startswith(valid)


class TestReplicaScansOnce:
    def _replica(self, tmp_path):
        n = _write_session(tmp_path / "p" / "alice")
        records, _ = read_wal(tmp_path / "p" / "alice" / WAL_FILENAME)
        applier = ReplicaApplier(tmp_path / "r")
        applier.apply_batch("alice", frames=[record_frame(r) for r in records])
        return n, applier

    def test_open_decodes_each_record_once(self, tmp_path, decoded):
        n, applier = self._replica(tmp_path)
        applier.close()
        decoded.clear()
        reopened = ReplicaApplier(tmp_path / "r")
        tenant = reopened.tenant("alice")
        assert decoded == list(range(1, n + 1))
        assert tenant.applied_lsn == n
        assert tenant.tail.valid_bytes == (
            tmp_path / "r" / "alice" / WAL_FILENAME
        ).stat().st_size
        reopened.close()

    def test_promote_decodes_none_of_the_replicas_records(self, tmp_path, decoded):
        n, applier = self._replica(tmp_path)
        decoded.clear()
        report, sessions = applier.promote()
        assert decoded == []
        assert report["tenants"]["alice"]["applied_lsn"] == n
        with sessions["alice"] as session:
            session.TableFromColumns({"x": [1]})
        records, tail = read_wal(tmp_path / "r" / "alice" / WAL_FILENAME)
        assert [r.lsn for r in records] == list(range(1, n + 2))
        assert records[-1].epoch == report["epoch"]
        assert not tail.torn
        applier.close()

    def test_open_cuts_a_torn_suffix_before_appending(self, tmp_path):
        n, applier = self._replica(tmp_path)
        applier.close()
        path = tmp_path / "r" / "alice" / WAL_FILENAME
        valid = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b'{"args":{},"crc":1,"inp')
        primary = Ringo.recover(tmp_path / "p" / "alice", workers=1)
        with primary:
            primary.TableFromColumns({"x": [1]})
        records, _ = read_wal(tmp_path / "p" / "alice" / WAL_FILENAME)
        reopened = ReplicaApplier(tmp_path / "r")
        status = reopened.apply_batch("alice", frames=[record_frame(records[-1])])
        assert status["applied_lsn"] == n + 1
        reopened.close()
        assert path.read_bytes() == valid + frame_record(records[-1].payload())
        replica_records, tail = read_wal(path)
        assert [r.lsn for r in replica_records] == list(range(1, n + 2))
        assert not tail.torn


class TestResumableTail:
    def test_scan_resumes_where_the_last_one_stopped(self, tmp_path, decoded):
        state = tmp_path / "state"
        n = _write_session(state)
        tail = WalTail()
        assert [r.lsn for r in iter_wal(state / WAL_FILENAME, tail)] == list(
            range(1, n + 1)
        )
        with Ringo.recover(state, workers=1) as session:
            session.TableFromColumns({"x": [1]})
        decoded.clear()
        assert [r.lsn for r in iter_wal(state / WAL_FILENAME, tail)] == [n + 1]
        assert decoded == [n + 1]
        assert tail.records == n + 1
        assert tail.valid_bytes == (state / WAL_FILENAME).stat().st_size
        assert list(iter_wal(state / WAL_FILENAME, tail)) == []

    def test_tail_records_the_last_epoch(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        path.write_bytes(
            frame_record({"lsn": 1, "op": "A", "args": {}, "inputs": [], "output": "x"})
            + frame_record(
                {"lsn": 2, "op": "B", "args": {}, "inputs": [], "output": "y",
                 "epoch": 3}
            )
        )
        _, tail = read_wal(path)
        assert (tail.records, tail.epoch) == (2, 3)

    def test_shipped_frame_is_the_on_disk_frame(self):
        # The ship frame and the on-disk line are one framing: re-encoding
        # a shipped frame canonically gives back the committed line.
        lines = (GOLDEN / WAL_FILENAME).read_bytes().splitlines(keepends=True)
        records, tail = read_wal(GOLDEN / WAL_FILENAME)
        assert len(records) == len(lines) and not tail.torn
        for record, line in zip(records, lines):
            frame = record_frame(record)
            assert json.loads(line) == frame
            encoded = json.dumps(frame, sort_keys=True, separators=(",", ":"))
            assert encoded.encode("utf-8") + b"\n" == line
            assert frame_record(record.payload()) == line

    def test_a_session_cannot_tail_its_own_log(self, tmp_path):
        # TailWal streams the log it applies from, so tailing the log it
        # appends to would read its own appends back forever.
        state = tmp_path / "state"
        _write_session(state)
        with Ringo.recover(state, workers=1) as session:
            with pytest.raises(RecoveryError, match="its own"):
                session.TailWal(state)
            assert session._durability.wal.last_lsn == 6
