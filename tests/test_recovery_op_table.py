"""The durable-op table: every entry live == recovered, plus WAL back-compat.

``SWEEP`` holds at least one row per entry of
:data:`repro.recovery.ops.OPS`; each row runs its operation in a durable
session — once on catalogued inputs, once on inputs built outside the
session (adopted into the WAL) — and the recovered catalog must digest
equal to the live one with nothing ``unrecovered``.

The golden-WAL tests pin the on-disk format: a log written by the code
before the op table existed must replay to the digests recorded with
it, and re-recording the same script must reproduce its frames byte for
byte (``WithColumn``, now logged as the in-place mutation it is, is the
one documented exception).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import Ringo
from repro.exceptions import EdgeNotFoundError, RingoError
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.incremental import ingest
from repro.recovery import OPS
from repro.recovery.digest import catalog_digest, object_digest
from repro.recovery.wal import WAL_FILENAME, read_wal
from repro.replication import ReplicaApplier
from repro.replication.ship import record_frame
from repro.tables.table import Table

GOLDEN = Path(__file__).parent / "fixtures" / "golden_wal"

LEFT = {"a": [1, 2, 3, 4, 2], "b": [2, 3, 4, 1, 4], "x": [0.5, 1.5, 2.5, 3.5, 1.0]}
RIGHT = {"a": [2, 3, 9], "b": [3, 4, 9], "x": [1.5, 2.5, 9.0]}
EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]


class Inputs:
    """Input factory for one sweep case.

    ``adopted=False`` builds inputs through the session (catalogued);
    ``adopted=True`` builds them outside it, so the operation under test
    must adopt them into the WAL before it runs.
    """

    def __init__(self, session, adopted, tmp_path):
        self.session = session
        self.adopted = adopted
        self.tmp_path = tmp_path

    def _table(self, data):
        if self.adopted:
            return Table.from_columns(data, pool=self.session.pool)
        return self.session.TableFromColumns(data)

    def left(self):
        return self._table(LEFT)

    def right(self):
        return self._table(RIGHT)

    def graph(self, directed=True):
        if not self.adopted:
            edges = self.session.TableFromColumns(
                {"s": [u for u, _ in EDGES], "d": [v for _, v in EDGES]}
            )
            return self.session.ToGraph(edges, "s", "d", directed=directed)
        graph = DirectedGraph() if directed else UndirectedGraph()
        for u, v in EDGES:
            graph.add_edge(u, v)
        graph.add_node(99)  # isolated: adoption must carry the node set
        return graph

    def tsv(self):
        path = self.tmp_path / "rows.tsv"
        path.write_text("1\t2.5\tx\n2\t3.5\ty\n")
        return path

    def npz(self):
        path = self.tmp_path / "rows.npz"
        with Ringo(workers=1) as scratch:
            scratch.SaveTableBinary(scratch.TableFromColumns(LEFT), path)
        return path


#: (op-table entry, case id, body). Bodies take (session, inputs).
SWEEP = [
    ("LoadTableTSV", "schema", lambda s, i: s.LoadTableTSV(
        [("k", "int"), ("v", "float"), ("t", "string")], i.tsv())),
    ("LoadTableTSV", "inferred", lambda s, i: s.LoadTableTSV(None, i.tsv())),
    ("LoadTableBinary", "", lambda s, i: s.LoadTableBinary(i.npz())),
    ("TableFromColumns", "", lambda s, i: s.TableFromColumns(
        {"k": [3, 1, 2], "t": ["c", "a", "b"]})),
    ("TableFromHashMap", "", lambda s, i: s.TableFromHashMap(
        {1: 0.25, 2: 0.5, 7: 0.25}, "node", "score")),
    ("Select", "expr", lambda s, i: s.Select(i.left(), "a>1")),
    ("Select", "mask", lambda s, i: s.Select(
        i.left(), np.array([True, False, True, False, True]))),
    ("Select", "in_place", lambda s, i: s.Select(i.left(), "a>1", in_place=True)),
    ("Join", "", lambda s, i: s.Join(i.left(), i.right(), "a")),
    ("Join", "kwargs", lambda s, i: s.Join(
        i.left(), i.right(), "a", "b", how="left")),
    ("Project", "", lambda s, i: s.Project(i.left(), ["b", "a"])),
    ("Rename", "", lambda s, i: s.Rename(i.left(), {"a": "src"})),
    ("GroupBy", "", lambda s, i: s.GroupBy(
        i.left(), "a", {"total": ("sum", "x"), "n": ("count", "b")})),
    ("GroupBy", "keys_only", lambda s, i: s.GroupBy(i.left(), ["a", "b"])),
    ("OrderBy", "", lambda s, i: s.OrderBy(i.left(), ["b", "a"], ascending=False)),
    ("OrderBy", "in_place", lambda s, i: s.OrderBy(i.left(), "x", in_place=True)),
    ("Union", "", lambda s, i: s.Union(i.left(), i.right(), distinct=False)),
    ("Intersect", "", lambda s, i: s.Intersect(i.left(), i.right())),
    ("Minus", "", lambda s, i: s.Minus(i.left(), i.right())),
    ("SimJoin", "", lambda s, i: s.SimJoin(
        i.left(), i.right(), "x", 0.6, include_distance=True)),
    ("NextK", "", lambda s, i: s.NextK(i.left(), "x", 2, group_col="a")),
    ("Distinct", "", lambda s, i: s.Distinct(i.left(), ["a"])),
    ("Limit", "", lambda s, i: s.Limit(i.left(), 3)),
    ("TopK", "", lambda s, i: s.TopK(i.left(), "x", 2)),
    ("ValueCounts", "", lambda s, i: s.ValueCounts(i.left(), "a")),
    ("WithColumn", "", lambda s, i: s.WithColumn(i.left(), "c", "a + b", as_int=True)),
    ("Sample", "", lambda s, i: s.Sample(i.left(), 3, seed=4)),
    ("ToGraph", "", lambda s, i: s.ToGraph(i.left(), "a", "b")),
    ("ToGraph", "undirected", lambda s, i: s.ToGraph(
        i.left(), "a", "b", directed=False)),
    ("GetEdgeTable", "", lambda s, i: s.GetEdgeTable(i.graph())),
    ("GetNodeTable", "", lambda s, i: s.GetNodeTable(i.graph(), include_degrees=True)),
    ("GenRMat", "", lambda s, i: s.GenRMat(4, 20, seed=3)),
    ("GenPrefAttach", "", lambda s, i: s.GenPrefAttach(12, 2, seed=3)),
    ("GenErdosRenyi", "", lambda s, i: s.GenErdosRenyi(10, 15, seed=3)),
    ("GenPlantedPartition", "", lambda s, i: s.GenPlantedPartition(
        2, 5, 0.8, 0.1, seed=3)),
    ("GenConfigurationModel", "", lambda s, i: s.GenConfigurationModel(
        [2, 2, 2, 1, 1], seed=3)),
    ("Rewire", "", lambda s, i: s.Rewire(i.graph(directed=False), swaps=4, seed=3)),
    ("ApplyOps", "", lambda s, i: s.ApplyOps(
        i.graph(), [["add_edge", 4, 5], ["del_edge", 1, 2], ("add_node", 7)])),
    # The adopt pseudo-ops are what an uncatalogued input turns into.
    ("__adopt_table__", "", lambda s, i: s.Limit(Inputs(s, True, None).left(), 2)),
    ("__adopt_graph__", "", lambda s, i: s.GetEdgeTable(
        Inputs(s, True, None).graph())),
]


def _sweep_params():
    for op, case, body in SWEEP:
        variants = (False, True) if OPS[op].arity else (False,)
        for adopted in variants:
            parts = [op] + ([case] if case else []) + (["adopted"] if adopted else [])
            yield pytest.param(op, body, adopted, id="-".join(parts))


def test_every_op_table_entry_has_a_sweep_row():
    assert {op for op, _case, _body in SWEEP} == set(OPS)


@pytest.mark.parametrize("op, body, adopted", _sweep_params())
def test_live_equals_recovered(tmp_path, op, body, adopted):
    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as session:
        body(session, Inputs(session, adopted, tmp_path))
        reference = catalog_digest(session)
    records, _tail = read_wal(state / WAL_FILENAME)
    assert op in {record.op for record in records}
    if adopted:
        assert records[0].op.startswith("__adopt_")
    with Ringo.recover(state, workers=1) as recovered:
        report = recovered.health()["recovery"]["last_recovery"]
        assert report["unrecovered"] == []
        assert catalog_digest(recovered) == reference


def test_with_column_is_logged_as_the_mutation_it_is(tmp_path):
    """One object, one catalog name — before and after a checkpoint restore."""
    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as session:
        table = session.TableFromColumns(LEFT)
        assert session.WithColumn(table, "c", "a * 2") is table
        assert session.Objects() == ["table-1"]
        session.checkpoint()
        reference = catalog_digest(session)
    record = read_wal(state / WAL_FILENAME)[0][-1]
    assert (record.op, record.inputs, record.output) == (
        "WithColumn", ("table-1",), "table-1")
    with Ringo.recover(state, workers=1) as recovered:
        assert catalog_digest(recovered) == reference


# ----------------------------------------------------------------------
# A mutating op that raises leaves its input, and the log, as they were
# ----------------------------------------------------------------------

#: (op-table entry, input factory, call) for every ``mutates`` entry:
#: a call on the catalogued input that raises.
RAISING = [
    ("Select", "left", lambda s, t: s.Select(t, "nope>1", in_place=True)),
    ("OrderBy", "left", lambda s, t: s.OrderBy(t, "nope", in_place=True)),
    ("WithColumn", "left", lambda s, t: s.WithColumn(t, "c", "a + nope")),
    ("ApplyOps", "graph", lambda s, g: s.ApplyOps(
        g, [["add_edge", 4, 5], ["add_node", 7], ["del_edge", 50, 51]])),
]


def test_every_mutating_entry_has_a_raising_row():
    assert {op for op, _factory, _call in RAISING} == {
        name for name, op in OPS.items() if op.mutates
    }


@pytest.mark.parametrize("op, factory, call", RAISING, ids=[row[0] for row in RAISING])
def test_a_raising_mutation_leaves_its_input_unchanged(tmp_path, op, factory, call):
    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as session:
        target = getattr(Inputs(session, False, tmp_path), factory)()
        before = object_digest(target)
        with pytest.raises(RingoError):
            call(session, target)
        assert object_digest(target) == before
        reference = catalog_digest(session)
    records, _tail = read_wal(state / WAL_FILENAME)
    assert op not in {record.op for record in records}
    with Ringo.recover(state, workers=1) as recovered:
        assert catalog_digest(recovered) == reference


def test_a_failing_apply_ops_batch_is_seen_nowhere(tmp_path):
    """The op #1 of a batch fails: op #0 is not applied live, logged,
    replayed, tailed or replicated."""
    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as session:
        graph = session.GenRMat(6, 100)
        assert graph.num_edges == 90
        with pytest.raises(EdgeNotFoundError, match="op #1"):
            session.ApplyOps(graph, [["add_edge", 1000, 1001], ["del_edge", 5000, 5001]])
        assert graph.num_edges == 90
        assert not graph.has_node(1000)
        live = catalog_digest(session)
    with Ringo.recover(state, workers=1) as recovered:
        assert catalog_digest(recovered) == live
    with Ringo(workers=1, durability=tmp_path / "follower") as follower:
        follower.GenRMat(6, 100)
        tailed = follower.TailWal(state)
        assert (tailed["applied_records"], tailed["error"]) == (0, None)
        assert catalog_digest(follower) == live
    records, _tail = read_wal(state / WAL_FILENAME)
    applier = ReplicaApplier(tmp_path / "replica")
    try:
        applier.apply_batch("alice", frames=[record_frame(r) for r in records])
        assert catalog_digest(applier.tenant("alice").session) == live
    finally:
        applier.close()


def test_validate_ops_runs_once_per_durable_apply_ops(tmp_path, monkeypatch):
    calls = []
    original = ingest.validate_ops

    def spy(ops):
        calls.append(len(ops))
        return original(ops)

    # Every module that holds the name, so no call site can slip past.
    monkeypatch.setattr(ingest, "validate_ops", spy)
    monkeypatch.setattr(engine_module, "validate_ops", spy)
    with Ringo(workers=1, durability=tmp_path / "state") as session:
        graph = session.GenRMat(4, 20, seed=3)
        session.ApplyOps(graph, [["add_edge", 1, 2], ["add_node", 99]])
    assert calls == [2]


# ----------------------------------------------------------------------
# Golden WAL: written by the pre-op-table code, committed under fixtures/
# ----------------------------------------------------------------------


def golden_script(session):
    """Every path-free durable op, deterministic, ``WithColumn`` last.

    ``WithColumn`` used to take a fresh catalog name; keeping it last
    means every earlier frame (names included) is unaffected by it now
    mutating in place.
    """
    posts = session.TableFromColumns(
        {
            "user": [1, 2, 3, 4, 2, 1],
            "peer": [2, 3, 4, 1, 4, 3],
            "score": [5.0, 1.0, 3.5, 2.0, 4.0, 0.5],
            "tag": ["java", "py", "java", "go", "py", "java"],
        }
    )
    java = session.Select(posts, "tag=java")
    masked = session.Select(posts, np.array([True, True, False, False, True, True]))
    session.Select(masked, "score>0.75", in_place=True)
    session.OrderBy(java, "score", in_place=True)
    session.OrderBy(posts, ["tag", "score"], ascending=False)
    session.Join(java, posts, "user", "peer", how="inner")
    session.Project(posts, ["user", "score"])
    session.Rename(posts, {"peer": "other"})
    session.GroupBy(posts, "tag", {"total": ("sum", "score")})
    session.Union(java, masked)
    session.Intersect(posts, java)
    session.Minus(posts, java)
    session.SimJoin(posts, java, "score", 1.0)
    session.NextK(posts, "score", 2, group_col="tag")
    session.Distinct(posts, ["tag"])
    session.Limit(posts, 4)
    session.TopK(posts, "score", 3, ascending=True)
    session.ValueCounts(posts, "tag")
    session.Sample(posts, 3, seed=2)
    graph = session.ToGraph(posts, "user", "peer")
    session.GetEdgeTable(graph)
    session.GetNodeTable(graph, include_degrees=True)
    session.ApplyOps(graph, [["add_edge", 4, 5], ["del_edge", 1, 2]])
    session.TableFromHashMap({1: 0.5, 2: 0.25, 5: 0.25}, "user", "rank")
    session.GenRMat(4, 12, seed=7)
    session.GenPrefAttach(10, 2, seed=7)
    session.GenErdosRenyi(8, 10, directed=True, seed=7)
    session.GenPlantedPartition(2, 4, 0.9, 0.1, seed=7)
    ring = session.GenConfigurationModel([2, 2, 2, 2], seed=7)
    session.Rewire(ring, swaps=2, seed=7)
    foreign = Table.from_columns({"k": [10, 20, 30], "v": [1.0, 2.0, 3.0]},
                                 pool=session.pool)
    session.Limit(foreign, 2)
    outside = DirectedGraph()
    outside.add_edge(1, 2)
    outside.add_edge(2, 3)
    outside.add_node(9)
    session.ApplyOps(outside, [["add_edge", 3, 1]])
    session.WithColumn(posts, "double", "score * 2")


class TestGoldenWal:
    def test_covers_every_path_free_op(self):
        records, tail = read_wal(GOLDEN / WAL_FILENAME)
        assert not tail.torn
        ops = {record.op for record in records}
        assert ops == set(OPS) - {"LoadTableTSV", "LoadTableBinary"}
        in_place = {record.op for record in records if record.mutates}
        assert in_place == {"Select", "OrderBy", "ApplyOps"}

    def test_replays_to_the_recorded_digests(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / WAL_FILENAME).write_bytes((GOLDEN / WAL_FILENAME).read_bytes())
        recorded = json.loads((GOLDEN / "digests.json").read_text())
        with Ringo.recover(state, strict=True, workers=1) as recovered:
            assert catalog_digest(recovered) == recorded

    def test_rerecording_is_byte_identical_except_with_column(self, tmp_path):
        state = tmp_path / "state"
        with Ringo(workers=1, durability=state) as session:
            golden_script(session)
        old = (GOLDEN / WAL_FILENAME).read_bytes().splitlines()
        new = (state / WAL_FILENAME).read_bytes().splitlines()
        assert new[:-1] == old[:-1]
        was, now = json.loads(old[-1]), json.loads(new[-1])
        assert was["op"] == now["op"] == "WithColumn"
        # The documented exception: the record now names its input as
        # its output instead of claiming a fresh catalog name.
        assert now["output"] == now["inputs"][0] == was["inputs"][0]
        assert was["output"] != was["inputs"][0]
        for key in ("lsn", "args", "inputs"):
            assert now[key] == was[key]

