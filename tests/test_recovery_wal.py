"""Provenance WAL: framing, torn tails, commit ordering, and replay."""

import json

import numpy as np
import pytest

from repro.core.engine import Ringo
from repro.exceptions import InjectedFaultError, RecoveryError
from repro.faults import inject_faults
from repro.recovery.digest import catalog_digest
from repro.recovery.wal import (
    WAL_FILENAME,
    WalTail,
    WriteAheadLog,
    frame_record,
    read_wal,
)


@pytest.fixture()
def state(tmp_path):
    return tmp_path / "state"


def durable(state, **kwargs):
    return Ringo(workers=1, durability=state, **kwargs)


class TestFraming:
    def test_append_read_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME, WalTail())
        wal.append("Select", {"predicate": {"expr": "a>1"}}, ["table-1"], "table-2")
        wal.append("OrderBy", {"keys": "b"}, ["table-2"], "table-2")
        wal.close()
        records, tail = read_wal(tmp_path / WAL_FILENAME)
        assert [r.lsn for r in records] == [1, 2]
        assert records[0].op == "Select"
        assert records[0].inputs == ("table-1",)
        assert not records[0].mutates
        assert records[1].mutates
        assert not tail.torn

    def test_crc_damage_ends_readable_prefix(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        wal = WriteAheadLog(path, WalTail())
        wal.append("A", {}, [], "table-1")
        wal.append("B", {}, [], "table-2")
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a byte inside the second frame's JSON payload.
        damaged = lines[1].replace(b'"op":"B"', b'"op":"X"')
        path.write_bytes(lines[0] + damaged)
        records, tail = read_wal(path)
        assert [r.lsn for r in records] == [1]
        assert tail.torn
        assert "invalid frame" in tail.reason

    def test_unterminated_final_frame_is_torn(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        wal = WriteAheadLog(path, WalTail())
        wal.append("A", {}, [], "table-1")
        wal.close()
        whole = frame_record({"lsn": 2, "op": "B", "args": {}, "inputs": [], "output": "t"})
        with open(path, "ab") as handle:
            handle.write(whole[: len(whole) // 2])
        records, tail = read_wal(path)
        assert len(records) == 1
        assert tail.torn
        assert tail.reason == "unterminated final frame"

    def test_reopen_truncates_torn_tail_and_resumes_lsn(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        wal = WriteAheadLog(path, WalTail())
        wal.append("A", {}, [], "table-1")
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b'{"garbage": tr')
        reopened = WriteAheadLog(path, read_wal(path)[1])
        assert reopened.recovered_torn_tail
        assert reopened.last_lsn == 1
        reopened.append("B", {}, [], "table-2")
        reopened.close()
        records, tail = read_wal(path)
        assert [r.lsn for r in records] == [1, 2]
        assert not tail.torn

    def test_lsn_sequence_break_stops_scan(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        frames = [
            frame_record({"lsn": 1, "op": "A", "args": {}, "inputs": [], "output": "x"}),
            frame_record({"lsn": 3, "op": "B", "args": {}, "inputs": [], "output": "y"}),
        ]
        path.write_bytes(b"".join(frames))
        records, tail = read_wal(path)
        assert len(records) == 1
        assert tail.torn


class TestCommitOrdering:
    def test_records_precede_publication(self, state):
        with durable(state) as session:
            table = session.TableFromColumns({"a": [1, 2, 3], "b": [3, 2, 1]})
            session.Select(table, "a>1")
            session.ToGraph(table, "a", "b")
        records, _ = read_wal(state / WAL_FILENAME)
        assert [r.op for r in records] == ["TableFromColumns", "Select", "ToGraph"]
        assert records[1].inputs == ("table-1",)
        assert records[2].output == "graph-3"

    def test_failed_append_publishes_nothing(self, state):
        with durable(state) as session:
            session.TableFromColumns({"a": [1, 2]})
            with inject_faults({"recovery.wal.append": 1.0}):
                with pytest.raises(InjectedFaultError):
                    session.TableFromColumns({"a": [3, 4]})
            assert session.Objects() == ["table-1"]
        records, _ = read_wal(state / WAL_FILENAME)
        assert len(records) == 1

    def test_torn_write_fault_leaves_recoverable_log(self, state):
        with durable(state) as session:
            session.TableFromColumns({"a": [1, 2]})
            with inject_faults({"recovery.wal.torn_write": 1.0}):
                with pytest.raises(InjectedFaultError):
                    session.TableFromColumns({"a": [3, 4]})
            assert session.Objects() == ["table-1"]
        records, tail = read_wal(state / WAL_FILENAME)
        assert len(records) == 1
        assert tail.torn
        with Ringo.recover(state, workers=1) as recovered:
            assert recovered.Objects() == ["table-1"]
            report = recovered.health()["recovery"]["last_recovery"]
            assert report["wal_torn_tail"]

    def test_arming_over_existing_state_refuses(self, state):
        with durable(state) as session:
            session.TableFromColumns({"a": [1]})
        with pytest.raises(RecoveryError, match="already holds"):
            Ringo(workers=1, durability=state).close()

    def test_durable_sessions_publish_every_recorded_result(self, state):
        with durable(state) as session:
            table = session.TableFromColumns({"a": [1, 2, 3]})
            session.Distinct(table)
            assert session.Objects() == ["table-1", "table-2"]
        # Without durability the legacy catalog contract holds: helpers
        # like TableFromColumns/Distinct do not publish.
        with Ringo(workers=1) as plain:
            table = plain.TableFromColumns({"a": [1, 2, 3]})
            plain.Distinct(table)
            assert plain.Objects() == []


class TestReplay:
    def build_reference(self, session):
        posts = session.TableFromColumns(
            {
                "user": [1, 2, 3, 4, 2, 1],
                "score": [5.0, 1.0, 3.5, 2.0, 4.0, 0.5],
                "tag": ["java", "py", "java", "go", "py", "java"],
            }
        )
        java = session.Select(posts, "tag=java")
        joined = session.Join(java, posts, "user")
        graph = session.ToGraph(joined, "user-1", "user-2")
        session.GetEdgeTable(graph)
        session.OrderBy(java, "score", in_place=True)
        session.GroupBy(posts, "tag", {"total": ("sum", "score")})
        session.GenRMat(4, 12, seed=7)
        session.Sample(posts, 3, seed=2)
        ranks = session.GetPageRank(graph)
        session.TableFromHashMap(ranks, "user", "rank")

    def test_recovered_catalog_matches_reference(self, state):
        with durable(state) as session:
            self.build_reference(session)
            reference = catalog_digest(session)
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference
            report = recovered.health()["recovery"]["last_recovery"]
            assert report["replayed_ops"] == report["wal_records"]
            assert report["unrecovered"] == []

    def test_replaying_same_wal_twice_is_deterministic(self, state):
        with durable(state) as session:
            self.build_reference(session)
        with Ringo.recover(state, workers=1) as first:
            once = catalog_digest(first)
            row_ids_once = {
                name: first.GetObject(name).row_ids.tolist()
                for name in first.Objects()
                if hasattr(first.GetObject(name), "row_ids")
            }
        with Ringo.recover(state, workers=1) as second:
            assert catalog_digest(second) == once
            for name, ids in row_ids_once.items():
                assert second.GetObject(name).row_ids.tolist() == ids

    def test_recovered_session_stays_durable(self, state):
        with durable(state) as session:
            table = session.TableFromColumns({"a": [1, 2, 3]})
            session.Select(table, "a>1")
        with Ringo.recover(state, workers=1) as recovered:
            recovered.Distinct(recovered.GetObject("table-2"))
            reference = catalog_digest(recovered)
        with Ringo.recover(state, workers=1) as again:
            assert catalog_digest(again) == reference

    def test_adopted_external_table_replays_inline(self, state):
        with Ringo(workers=1) as outside:
            foreign = outside.TableFromColumns({"k": [10, 20], "v": [1.0, 2.0]})
        with durable(state) as session:
            session.Limit(foreign, 1)
            reference = catalog_digest(session)
        records, _ = read_wal(state / WAL_FILENAME)
        assert records[0].op == "__adopt_table__"
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference

    def test_mask_predicates_are_materialised(self, state):
        with durable(state) as session:
            table = session.TableFromColumns({"a": [1, 2, 3, 4]})
            mask = np.array([True, False, True, False])
            session.Select(table, mask)
            reference = catalog_digest(session)
        records, _ = read_wal(state / WAL_FILENAME)
        assert records[-1].args["predicate"]["mask"] == [True, False, True, False]
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference

    def test_wal_is_human_readable_jsonl(self, state):
        with durable(state) as session:
            session.TableFromColumns({"a": [1]})
        for line in (state / WAL_FILENAME).read_text().splitlines():
            record = json.loads(line)
            assert {"lsn", "op", "args", "inputs", "output", "crc"} <= set(record)
