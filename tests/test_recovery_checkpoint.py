"""Checksummed checkpoints: atomic commit, verification, quarantine."""

import json
import warnings
import zlib

import numpy as np
import pytest

from repro.core.engine import Ringo
from repro.exceptions import (
    CorruptInputError,
    CorruptionError,
    InjectedFaultError,
    RecoveryError,
    SchemaError,
)
from repro.faults import inject_faults
from repro.graphs.serialize import load_graph, save_graph
from repro.recovery.checkpoint import (
    MANIFEST_NAME,
    find_checkpoints,
    load_manifest,
)
from repro.recovery.digest import catalog_digest
from repro.tables.io_npz import load_table_npz, save_table_npz
from repro.tables.io_tsv import load_table_tsv


@pytest.fixture()
def state(tmp_path):
    return tmp_path / "state"


def build(session):
    table = session.TableFromColumns({"a": [1, 2, 3, 4], "b": [4, 3, 2, 1]})
    filtered = session.Select(table, "a>1")
    session.ToGraph(filtered, "a", "b")
    return table


class TestWriteAndRestore:
    def test_checkpoint_then_recover_restores_without_replay(self, state):
        with Ringo(workers=1, durability=state) as session:
            build(session)
            manifest = session.checkpoint()
            reference = catalog_digest(session)
        assert manifest["wal_lsn"] == 3
        assert set(manifest["objects"]) == {"table-1", "table-2", "graph-3"}
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference
            report = recovered.health()["recovery"]["last_recovery"]
            assert report["restored_objects"] == 3
            assert report["replayed_ops"] == 0

    def test_wal_suffix_past_checkpoint_replays(self, state):
        with Ringo(workers=1, durability=state) as session:
            table = build(session)
            session.checkpoint()
            session.OrderBy(table, "b", in_place=True)
            session.Distinct(table)
            reference = catalog_digest(session)
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference
            report = recovered.health()["recovery"]["last_recovery"]
            assert report["replayed_ops"] == 2

    def test_manifest_is_self_checksummed(self, state):
        with Ringo(workers=1, durability=state) as session:
            build(session)
            session.checkpoint()
        checkpoint = find_checkpoints(state)[0]
        manifest = load_manifest(checkpoint)
        assert manifest["format"] == 1
        raw = json.loads((checkpoint / MANIFEST_NAME).read_text())
        payload = {k: v for k, v in raw.items() if k != "manifest_crc"}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert zlib.crc32(canonical.encode()) == raw["manifest_crc"]

    def test_aborted_checkpoint_never_commits(self, state):
        with Ringo(workers=1, durability=state) as session:
            build(session)
            with inject_faults({"recovery.checkpoint.write": {"rate": 1.0, "max_triggers": 1}}):
                with pytest.raises(InjectedFaultError):
                    session.checkpoint()
            assert find_checkpoints(state) == []
            session.checkpoint()
            reference = catalog_digest(session)
        assert len(find_checkpoints(state)) == 1
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference

    def test_unarmed_checkpoint_needs_directory(self, tmp_path):
        with Ringo(workers=1) as session:
            with pytest.raises(RecoveryError, match="directory"):
                session.checkpoint()
            session.TableFromColumns({"a": [1]})
            manifest = session.checkpoint(tmp_path / "snap")
        assert manifest["objects"] == {}

    def test_recover_ignores_durability_environment(self, state, tmp_path, monkeypatch):
        with Ringo(workers=1, durability=state) as session:
            build(session)
            reference = catalog_digest(session)
        monkeypatch.setenv("RINGO_DURABILITY", str(tmp_path / "elsewhere"))
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference
        with Ringo.recover(state, workers=1, arm=False) as follower:
            assert follower._durability is None


class TestQuarantine:
    def test_bit_flipped_artifact_is_quarantined_and_rebuilt(self, state):
        with Ringo(workers=1, durability=state) as session:
            build(session)
            with inject_faults({"recovery.checkpoint.bit_flip": {"rate": 1.0, "max_triggers": 1}}):
                session.checkpoint()  # commits with one silently corrupt artifact
            reference = catalog_digest(session)
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference
            report = recovered.health()["recovery"]["last_recovery"]
            assert len(report["quarantined"]) == 1
            assert report["quarantined"][0]["moved_to"].endswith(".quarantined")
            assert report["unrecovered"] == []
            # The damaged object came back via WAL lineage, not the artifact.
            assert report["restored_objects"] == 2

    def test_corrupt_manifest_falls_back_to_older_checkpoint(self, state):
        with Ringo(workers=1, durability=state) as session:
            table = build(session)
            session.checkpoint()
            session.Distinct(table)
            session.checkpoint()
            reference = catalog_digest(session)
        newest = find_checkpoints(state)[0]
        manifest_path = newest / MANIFEST_NAME
        manifest_path.write_text(manifest_path.read_text()[:-20])
        with Ringo.recover(state, workers=1) as recovered:
            assert catalog_digest(recovered) == reference
            report = recovered.health()["recovery"]["last_recovery"]
            assert report["invalid_checkpoints"] == 1
            assert report["checkpoint"] == "ckpt-000001"

    def test_strict_recovery_raises_on_unrecoverable(self, state):
        with Ringo(workers=1, durability=state) as session:
            source = state / "rows.tsv"
            source.write_text("1\t2\n3\t4\n")
            session.LoadTableTSV([("a", "int"), ("b", "int")], source)
        source.unlink()  # the only lineage for table-1 is now gone
        with pytest.raises((CorruptionError, RecoveryError)):
            Ringo.recover(state, workers=1, strict=True)
        with Ringo.recover(state, workers=1) as lenient:
            report = lenient.health()["recovery"]["last_recovery"]
            assert [entry["object"] for entry in report["unrecovered"]] == ["table-1"]
            assert "table-1" not in lenient.Objects()


class TestGraphSerializeDigests:
    def test_round_trip_carries_crcs(self, tmp_path):
        with Ringo(workers=1) as session:
            graph = session.GenRMat(4, 12, seed=1)
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        with np.load(path) as archive:
            assert int(archive["version"]) == 2
            assert {"crc_nodes", "crc_sources", "crc_targets"} <= set(archive.files)
        loaded = load_graph(path)
        assert loaded.num_edges == graph.num_edges

    def test_tampered_array_raises_typed_error(self, tmp_path):
        with Ringo(workers=1) as session:
            graph = session.GenRMat(4, 12, seed=1)
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        self._tamper_crc(path)
        with pytest.raises(CorruptInputError, match="sources"):
            load_graph(path)

    def test_verify_warn_loads_with_warning(self, tmp_path):
        with Ringo(workers=1) as session:
            graph = session.GenRMat(4, 12, seed=1)
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        self._tamper_crc(path)
        with pytest.warns(UserWarning, match="CRC mismatch"):
            loaded = load_graph(path, verify="warn")
        assert loaded.num_edges == graph.num_edges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_graph(path, verify=False)

    def test_version_1_archive_still_loads(self, tmp_path):
        with Ringo(workers=1) as session:
            graph = session.GenRMat(4, 12, seed=1)
        sources, targets = graph.edge_arrays()
        path = tmp_path / "v1.npz"
        np.savez(
            path,
            version=np.int64(1),
            directed=np.int64(1),
            nodes=graph.node_array(),
            sources=sources,
            targets=targets,
        )
        loaded = load_graph(path)
        assert loaded.num_edges == graph.num_edges

    def test_garbled_archive_raises_typed_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"PK\x03\x04 not actually a zip")
        with pytest.raises(CorruptInputError, match="not a readable graph archive"):
            load_graph(path)

    @staticmethod
    def _tamper_crc(path):
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["sources"] = payload["sources"].copy()
        payload["sources"][0] += 1
        np.savez(path, **payload)


class TestTypedInputCorruption:
    def test_truncated_npz_raises_typed_error(self, tmp_path):
        with Ringo(workers=1) as session:
            table = session.TableFromColumns({"a": [1, 2, 3], "s": ["x", "y", "z"]})
        path = tmp_path / "t.npz"
        save_table_npz(table, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptInputError) as excinfo:
            load_table_npz(path)
        assert str(path) in str(excinfo.value)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_table_npz(tmp_path / "absent.npz")

    def test_tsv_truncated_final_row_raises_typed_error(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("1\t2\n3\t4\n5")  # torn mid-row: no trailing newline
        with pytest.raises(CorruptInputError, match="truncated"):
            load_table_tsv([("a", "int"), ("b", "int")], path)

    def test_tsv_terminated_short_row_stays_schema_error(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("1\t2\n5\n")  # short but fully written: schema bug
        with pytest.raises(SchemaError, match=":2"):
            load_table_tsv([("a", "int"), ("b", "int")], path)


class TestHealthSection:
    def test_recovery_section_reports_durability(self, state):
        with Ringo(workers=1) as plain:
            section = plain.health()["recovery"]
            assert section == {"armed": False, "last_recovery": None}
        with Ringo(workers=1, durability=state) as session:
            build(session)
            session.checkpoint()
            section = session.health()["recovery"]
            assert section["armed"]
            assert section["checkpoints_written"] == 1
            assert section["wal"]["appends"] == 3
            assert section["wal"]["last_lsn"] == 3
