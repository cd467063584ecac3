"""The session op table: one entry per served operation, read by everyone.

Every public CamelCase ``Ringo`` method but the catalog accessors is an
entry of :data:`repro.recovery.ops.SESSION_OPS`. The service's served
surface is the table's keys, a replica serves exactly the entries that
are neither durable nor mutating, and every call — live or replayed
from the WAL — is one ``engine.<Op>`` span and one ``call_timings()``
entry.
"""

import numpy as np
import pytest

import repro.obs.spans as spans_module
from repro import obs
from repro.core.engine import Ringo
from repro.graphs.directed import DirectedGraph
from repro.recovery.ops import SESSION_OPS
from repro.recovery.wal import WAL_FILENAME, read_wal
from repro.replication.ship import record_frame
from repro.service.protocol import allowed_engine_ops
from repro.service.server import ServiceConfig, ServiceHandle

#: Every op that changes the catalog: in a durable session each call is
#: a WAL record, so a replica must leave them to the primary.
DURABLE = {
    "LoadTableTSV", "LoadTableBinary", "TableFromColumns", "TableFromHashMap",
    "Select", "Join", "Project", "Rename", "GroupBy", "OrderBy", "Union",
    "Intersect", "Minus", "SimJoin", "NextK", "Distinct", "Limit", "TopK",
    "ValueCounts", "WithColumn", "Sample", "ToGraph", "GetEdgeTable",
    "GetNodeTable", "GenRMat", "GenPrefAttach", "GenErdosRenyi",
    "GenPlantedPartition", "GenConfigurationModel", "Rewire", "ApplyOps",
}
#: Not durable, but each changes something besides its return value.
MUTATING = {"TailWal", "SaveTableTSV", "SaveTableBinary"}
#: Reads a ``Get*`` name test used to refuse on a replica.
NOT_NAMED_GET = {
    "IsBipartite", "FindCycle", "Describe", "Quantiles", "Crosstab",
    "ToWeightedNetwork", "ToCoOccurrenceGraph", "Functions", "NumFunctions",
}


@pytest.fixture
def tracer():
    previous = spans_module._TRACER
    spans_module._TRACER = None
    armed = obs.enable()
    try:
        yield armed
    finally:
        obs.disable()
        spans_module._TRACER = previous


def test_the_served_surface_is_the_table():
    camel_methods = {
        name for name in dir(Ringo)
        if name[0].isupper() and callable(getattr(Ringo, name))
    }
    assert camel_methods - set(SESSION_OPS) == {"Objects", "GetObject"}
    served = {name for name in SESSION_OPS if not name.startswith("_")}
    assert allowed_engine_ops() == served == camel_methods - {"Objects", "GetObject"}
    assert len(served) == 75


def test_the_table_marks_durable_and_mutating_entries():
    assert {name for name, op in SESSION_OPS.items() if op.durable} == DURABLE | {
        "__adopt_table__", "__adopt_graph__"
    }
    assert {
        name for name, op in SESSION_OPS.items() if not op.durable and op.mutates
    } == MUTATING


def test_replica_gate_matrix(tmp_path):
    """Every served op against a replica: refused iff durable or mutating."""
    with Ringo(workers=1, durability=tmp_path / "p" / "alice") as session:
        table = session.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 1]})
        session.ToGraph(table, "a", "b")
    records, _ = read_wal(tmp_path / "p" / "alice" / WAL_FILENAME)
    replica = ServiceHandle(
        ServiceConfig(spool_dir=str(tmp_path / "r"), role="replica", tick_s=0.02)
    ).start()
    wal = tmp_path / "r" / "alice" / WAL_FILENAME
    try:
        replica.call("alice", "replicate", frames=[record_frame(r) for r in records])
        shipped = wal.read_bytes()
        refused = set()
        for op in sorted(allowed_engine_ops()):
            envelope = replica.submit({"id": op, "tenant": "alice", "op": op, "args": {}})
            if not envelope["ok"] and "read-only" in envelope["error"]["message"]:
                refused.add(op)
        assert refused == DURABLE | MUTATING
        assert NOT_NAMED_GET.isdisjoint(refused)
        # Reads with real arguments answer, and leave the follower's WAL alone.
        graph = {"$ref": "graph-2"}
        assert replica.call("alice", "IsBipartite", graph=graph) is False
        assert replica.call("alice", "FindCycle", graph=graph) == [1, 2, 3, 1]
        assert replica.call("alice", "Describe", table={"$ref": "table-1"})["rows"] > 0
        assert replica.call("alice", "NumFunctions") > 200
        envelope = replica.submit({
            "id": "select", "tenant": "alice", "op": "Select",
            "args": {"table": {"$ref": "table-1"}, "predicate": "a>1"},
        })
        assert "read-only" in envelope["error"]["message"]
        assert wal.read_bytes() == shipped
    finally:
        replica.stop()


def test_a_read_on_a_durable_session_logs_and_adopts_nothing(tmp_path):
    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as session:
        session.TableFromColumns({"a": [1, 2]})
        logged = (state / WAL_FILENAME).read_bytes()
        graph = DirectedGraph()
        for u, v in [(1, 2), (2, 3), (3, 1), (3, 4)]:
            graph.add_edge(u, v)
        session.GetPageRank(graph)
        session.IsBipartite(graph)
        session.GetEgonet(graph, 1)
        session.GetDegreeDistribution(graph)
        session.Describe(session.GetObject("table-1"))
        assert (state / WAL_FILENAME).read_bytes() == logged
        assert session.Objects() == ["table-1"]


def test_every_call_is_one_engine_span(tmp_path, tracer):
    with Ringo(workers=1) as session:
        table = session.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 1]})
        selected = session.Select(table, "a>1")
        session.GroupBy(selected, "a")
        session.WithColumn(table, "c", "a + b")
        session.IsBipartite(session.ToGraph(table, "a", "b"))
        timings = session.call_timings()
    names = [r["name"] for r in tracer.ring_records() if r["name"].startswith("engine.")]
    calls = ["TableFromColumns", "Select", "GroupBy", "WithColumn", "ToGraph", "IsBipartite"]
    assert sorted(names) == sorted(f"engine.{op}" for op in calls)
    assert {op: entry["calls"] for op, entry in timings.items()} == dict.fromkeys(calls, 1)


def test_recovery_replays_each_record_as_one_engine_span(tmp_path, tracer):
    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as session:
        table = session.TableFromColumns({"a": [1, 2, 3, 4], "b": [2, 3, 4, 1]})
        session.Select(table, np.array([True, False, True, True]))
        graph = session.ToGraph(table, "a", "b")
        session.ApplyOps(graph, [["add_edge", 4, 5]])
        foreign = DirectedGraph()
        foreign.add_edge(7, 8)
        session.GetEdgeTable(foreign)
    records, _ = read_wal(state / WAL_FILENAME)
    assert [r.op for r in records] == [
        "TableFromColumns", "Select", "ToGraph", "ApplyOps",
        "__adopt_graph__", "GetEdgeTable",
    ]
    start = len(tracer.ring_records())
    with Ringo.recover(state, workers=1) as recovered:
        replayed = [
            r["name"] for r in tracer.ring_records()[start:]
            if r["name"].startswith("engine.")
        ]
        timings = recovered.call_timings()
    assert replayed == [f"engine.{r.op}" for r in records]
    assert {op: entry["calls"] for op, entry in timings.items()} == {
        r.op: 1 for r in records
    }
