"""Seeded chaos on the incremental subsystem: degrade, never lie.

Every fault site in the delta path (``incremental.delta.apply``,
``incremental.compact``, ``incremental.wal.tail``) is armed here and the
same property asserted each time: a fired fault makes the system fall
back to a full rebuild (or stop a tail with a resumable cursor) with the
reason recorded — it never serves a wrong snapshot or half-applied
stream. The final test SIGKILLs a real child session mid-WAL-append of a
compaction-sized ``ApplyOps`` batch and proves recovery reconstructs
exactly the committed prefix.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.components import weakly_connected_components
from repro.core.engine import Ringo
from repro.faults import KNOWN_SITES, inject_faults
from repro.graphs.csr import CSRGraph
from repro.graphs.snapshot import csr_snapshot
from repro.incremental.engine import incremental_engine
from repro.recovery.digest import object_digest
from tests.helpers import build_directed

SRC = Path(__file__).resolve().parents[1] / "src"

INCREMENTAL_SITES = (
    "incremental.delta.apply",
    "incremental.compact",
    "incremental.wal.tail",
)


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine = incremental_engine()
    engine.reset()
    yield engine
    engine.reset()


def _assert_same_csr(got: CSRGraph, expected: CSRGraph) -> None:
    assert np.array_equal(got.node_ids, expected.node_ids)
    assert np.array_equal(got.out_indptr, expected.out_indptr)
    assert np.array_equal(got.out_indices, expected.out_indices)
    assert np.array_equal(got.in_indptr, expected.in_indptr)
    assert np.array_equal(got.in_indices, expected.in_indices)


def _seeded_graph():
    graph = build_directed([(i, (i * 3 + 1) % 20) for i in range(40)])
    csr_snapshot(graph)  # anchor the mutation log at the cached version
    return graph


def test_sites_are_registered():
    for site in INCREMENTAL_SITES:
        assert site in KNOWN_SITES, site


def test_delta_apply_fault_degrades_to_rebuild(_fresh_engine):
    graph = _seeded_graph()
    graph.add_edge(100, 101)
    graph.del_edge(0, 1)
    with inject_faults({"incremental.delta.apply": 1.0}, seed=3):
        refreshed = csr_snapshot(graph)
    _assert_same_csr(refreshed, CSRGraph.from_graph(graph))
    stats = _fresh_engine.stats()
    assert stats["fallback_full"] == 1
    assert stats["delta_applied"] == 0
    assert "InjectedFaultError" in stats["last_fallback_reason"]
    # Disarmed, the next refresh rides the delta path again.
    graph.add_edge(101, 102)
    _assert_same_csr(csr_snapshot(graph), CSRGraph.from_graph(graph))
    assert _fresh_engine.stats()["delta_applied"] == 1


def test_oversized_overlay_compacts(_fresh_engine):
    _fresh_engine.configure(min_compact_ops=4, compact_fraction=0.001)
    graph = _seeded_graph()
    for i in range(10):
        graph.add_edge(200 + i, 201 + i)
    refreshed = csr_snapshot(graph)
    _assert_same_csr(refreshed, CSRGraph.from_graph(graph))
    stats = _fresh_engine.stats()
    assert stats["compactions"] == 1
    assert stats["delta_applied"] == 0
    assert stats["fallback_full"] == 0


def test_compact_fault_degrades_to_rebuild(_fresh_engine):
    _fresh_engine.configure(min_compact_ops=4, compact_fraction=0.001)
    graph = _seeded_graph()
    for i in range(10):
        graph.add_edge(200 + i, 201 + i)
    with inject_faults({"incremental.compact": 1.0}, seed=5):
        refreshed = csr_snapshot(graph)
    _assert_same_csr(refreshed, CSRGraph.from_graph(graph))
    stats = _fresh_engine.stats()
    assert stats["compactions"] == 0
    assert stats["fallback_full"] == 1
    assert "InjectedFaultError" in stats["last_fallback_reason"]


def _producer_session(state):
    session = Ringo(workers=1, durability=state)
    table = session.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 1]})
    graph = session.ToGraph(table, "a", "b")
    return session, graph


def _follower_session(state):
    """Same catalog shape as the producer so WAL targets resolve by name.

    Durability makes the follower publish under the same auto-names the
    producer used (``table-1`` / ``graph-2``) — TailWal resolves targets
    by catalog name, so the shapes must line up.
    """
    session = Ringo(workers=1, durability=state)
    table = session.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 1]})
    graph = session.ToGraph(table, "a", "b")
    return session, graph


def test_wal_tail_fault_stops_with_resumable_cursor(tmp_path):
    state = tmp_path / "stream"
    producer, source = _producer_session(state)
    with producer:
        producer.ApplyOps(source, [["add_edge", 3, 4], ["add_edge", 4, 1]])
        producer.ApplyOps(source, [["del_edge", 1, 2], ["add_edge", 2, 4]])

    follower, mirror = _follower_session(tmp_path / "follower")
    with follower:
        with inject_faults({"incremental.wal.tail": 1.0}, seed=9):
            stalled = follower.TailWal(state)
        assert stalled["error"] is not None
        assert "InjectedFaultError" in stalled["error"]
        assert stalled["applied_records"] == 0
        assert object_digest(mirror) != object_digest(source)

        # Retrying from the returned cursor applies everything exactly once.
        resumed = follower.TailWal(state, cursor=stalled["cursor"])
        assert resumed["error"] is None
        assert resumed["applied_records"] == 2
        assert resumed["applied_ops"] == 4
        assert object_digest(mirror) == object_digest(source)

        # A third tail from the final cursor is a no-op, not a re-apply.
        again = follower.TailWal(state, cursor=resumed["cursor"])
        assert again["applied_records"] == 0
        assert object_digest(mirror) == object_digest(source)


def test_tailed_apply_ops_lands_through_apply_record(tmp_path, monkeypatch):
    """A tailed record goes through the one shared ``apply_record`` — and a
    durable tailer commits it to its own log, so it recovers what it applied."""
    from repro.recovery import ops
    from repro.recovery.digest import catalog_digest

    state = tmp_path / "stream"
    producer, source = _producer_session(state)
    with producer:
        producer.ApplyOps(source, [["add_edge", 3, 4], ["del_edge", 1, 2]])
        primary_digest = catalog_digest(producer)

    applied = []
    real = ops.apply_record

    def counting(session, record):
        applied.append(record.op)
        return real(session, record)

    monkeypatch.setattr(ops, "apply_record", counting)
    follower, _mirror = _follower_session(tmp_path / "follower")
    with follower:
        summary = follower.TailWal(state)
        assert summary["applied_records"] == 1 and summary["applied_ops"] == 2
        assert applied == ["ApplyOps"]
        assert catalog_digest(follower) == primary_digest
    with Ringo.recover(tmp_path / "follower", workers=1) as recovered:
        assert catalog_digest(recovered) == primary_digest


def test_wal_tail_midstream_fault_resumes(tmp_path):
    """A fault firing *between* records leaves a cursor mid-stream."""
    state = tmp_path / "stream"
    producer, source = _producer_session(state)
    with producer:
        for batch in ([["add_edge", 3, 4]], [["add_edge", 4, 5]],
                      [["add_edge", 5, 1]]):
            producer.ApplyOps(source, batch)

    follower, mirror = _follower_session(tmp_path / "follower")
    with follower:
        # The first trigger is swallowed by a creation record; the one
        # that hits an ApplyOps stops the tail partway through.
        with inject_faults(
            {"incremental.wal.tail": {"rate": 1.0, "max_triggers": 3}}, seed=1
        ):
            stalled = follower.TailWal(state)
        assert stalled["error"] is not None
        resumed = follower.TailWal(state, cursor=stalled["cursor"])
        assert resumed["error"] is None
        assert stalled["applied_records"] + resumed["applied_records"] == 3
        assert object_digest(mirror) == object_digest(source)


CHILD_PRELUDE = """
import os, signal, sys
from repro.core.engine import Ringo
from repro.exceptions import InjectedFaultError
from repro.faults import inject_faults
from repro.incremental.engine import incremental_engine

state = sys.argv[1]
session = Ringo(workers=1, durability=state)
# Compaction-sized batches: anything surviving the crash would have
# pushed the overlay past the threshold on the next snapshot.
incremental_engine().configure(min_compact_ops=2, compact_fraction=0.001)

def build_committed(session):
    table = session.TableFromColumns({"a": [1, 2, 3, 4], "b": [2, 3, 4, 1]})
    graph = session.ToGraph(table, "a", "b")
    session.ApplyOps(graph, [["add_edge", 4, 2], ["add_edge", 1, 3]])
    session.GetPageRank(graph)  # snapshot + warm state before the crash
    return graph
"""


def run_child(body: str, state: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-c", CHILD_PRELUDE + body, str(state)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def reference_graph_digest():
    """Clean rerun of the committed prefix the crashed child shares."""
    with Ringo(workers=1) as session:
        table = session.TableFromColumns({"a": [1, 2, 3, 4], "b": [2, 3, 4, 1]})
        graph = session.ToGraph(table, "a", "b")
        session.ApplyOps(graph, [["add_edge", 4, 2], ["add_edge", 1, 3]])
        return object_digest(graph), weakly_connected_components(graph)


def test_sigkill_mid_compaction_batch_recovers(tmp_path):
    state = tmp_path / "state"
    result = run_child(
        """
graph = build_committed(session)
# Die mid-append of a compaction-sized ApplyOps: the torn-write fault
# leaves half a WAL frame on disk, then SIGKILL ends the process.
with inject_faults({"recovery.wal.torn_write": 1.0}):
    try:
        session.ApplyOps(graph, [["add_edge", 10 + i, 11 + i] for i in range(8)])
    except InjectedFaultError:
        os.kill(os.getpid(), signal.SIGKILL)
""",
        state,
    )
    assert result.returncode == -signal.SIGKILL, result.stderr

    expected_digest, expected_wcc = reference_graph_digest()
    with Ringo.recover(state, workers=1) as recovered:
        report = recovered.health()["recovery"]["last_recovery"]
        assert report["wal_torn_tail"]
        assert report["unrecovered"] == []
        names = [
            name for name in recovered.Objects() if name.startswith("graph")
        ]
        graph = recovered.GetObject(names[0])
        # The torn ApplyOps never surfaces: digest and analytics equal
        # the committed prefix, through the same incremental path.
        assert object_digest(graph) == expected_digest
        assert recovered.GetWcc(graph) == expected_wcc
