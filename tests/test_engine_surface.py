"""Sweep test: every session-level method runs once against live data.

Guards the public surface — a rename or signature break in any engine
method fails here even if no focused test covers it.
"""

import numpy as np
import pytest

from repro.core.engine import Ringo


@pytest.fixture(scope="module")
def ringo():
    session = Ringo(workers=1)
    yield session
    session.close()


@pytest.fixture(scope="module")
def graph(ringo):
    table = ringo.TableFromColumns(
        {"a": [1, 2, 3, 1, 4, 5], "b": [2, 3, 1, 3, 5, 4]}
    )
    return ringo.ToGraph(table, "a", "b")


def test_every_session_method_exercised(ringo, graph, tmp_path):
    t = ringo.TableFromColumns(
        {"k": [1, 2, 2], "v": [1.5, 2.5, 3.5], "s": ["x", "y", "x"]}
    )

    exercised = {
        "TableFromColumns": t,
        "Select": ringo.Select(t, "k = 2"),
        "Join": ringo.Join(t, t, "k"),
        "Project": ringo.Project(t, ["k"]),
        "Rename": ringo.Rename(t, {"v": "w"}),
        "GroupBy": ringo.GroupBy(t, "k"),
        "OrderBy": ringo.OrderBy(t, "v"),
        "Union": ringo.Union(t, t),
        "Intersect": ringo.Intersect(t, t),
        "Minus": ringo.Minus(t, t),
        "Distinct": ringo.Distinct(t),
        "Limit": ringo.Limit(t, 1),
        "TopK": ringo.TopK(t, "v", 1),
        "ValueCounts": ringo.ValueCounts(t, "s"),
        "WithColumn": ringo.WithColumn(t.clone(), "c", "k + v"),
        "Sample": ringo.Sample(t, 1),
        "Describe": ringo.Describe(t),
        "Crosstab": ringo.Crosstab(t, "k", "s"),
        "Quantiles": ringo.Quantiles(t, "v", [0.5]),
        "SimJoin": ringo.SimJoin(t, t, "v", 1.0),
        "NextK": ringo.NextK(t, "v", 1),
        "ToGraph": graph,
        "GetEdgeTable": ringo.GetEdgeTable(graph),
        "GetNodeTable": ringo.GetNodeTable(graph, include_degrees=True),
        "TableFromHashMap": ringo.TableFromHashMap({1: 1.0}, "K", "V"),
        "GetPageRank": ringo.GetPageRank(graph),
        "GetHits": ringo.GetHits(graph),
        "GetTriangles": ringo.GetTriangles(graph),
        "GetTriangleCounts": ringo.GetTriangleCounts(graph),
        "GetClusteringCoefficients": ringo.GetClusteringCoefficients(graph),
        "GetKCore": ringo.GetKCore(graph, 2),
        "GetCoreNumbers": ringo.GetCoreNumbers(graph),
        "GetSssp": ringo.GetSssp(graph, 1),
        "GetBfsLevels": ringo.GetBfsLevels(graph, 1),
        "GetScc": ringo.GetScc(graph),
        "GetWcc": ringo.GetWcc(graph),
        "GetDegreeCentrality": ringo.GetDegreeCentrality(graph),
        "GetCommunities": ringo.GetCommunities(graph),
        "GetDiameter": ringo.GetDiameter(graph),
        "GetEffectiveDiameter": ringo.GetEffectiveDiameter(graph),
        "GetDegreeDistribution": ringo.GetDegreeDistribution(graph),
        "GetKatz": ringo.GetKatz(graph),
        "GetTriadCensus": ringo.GetTriadCensus(graph),
        "GetArticulationPoints": ringo.GetArticulationPoints(graph),
        "GetBridges": ringo.GetBridges(graph),
        "GetColoring": ringo.GetColoring(graph),
        "IsBipartite": ringo.IsBipartite(graph),
        "GetLinkPredictions": ringo.GetLinkPredictions(graph, k=2),
        "GetMaxFlow": ringo.GetMaxFlow(graph, 1, 3),
        "GetMinCut": ringo.GetMinCut(graph, 1, 3),
        "GetEgonet": ringo.GetEgonet(graph, 1),
        "FindCycle": ringo.FindCycle(graph),
        "GetGirth": ringo.GetGirth(graph),
        "GenRMat": ringo.GenRMat(5, 50, seed=1),
        "GenPrefAttach": ringo.GenPrefAttach(20, 2, seed=1),
        "GenErdosRenyi": ringo.GenErdosRenyi(10, 15, seed=1),
        "GenPlantedPartition": ringo.GenPlantedPartition(2, 5, 0.9, 0.1, seed=1),
        "GenConfigurationModel": ringo.GenConfigurationModel([2, 2, 2, 2]),
        "Functions": ringo.Functions(),
        "NumFunctions": ringo.NumFunctions(),
        "Objects": ringo.Objects(),
        "GetObject": ringo.GetObject(ringo.Objects()[0]),
        "workers_info": ringo.workers_info(),
        "health": ringo.health(),
        "call_timings": ringo.call_timings(),
        "profile": ringo.profile(),
    }
    # Deferred ones needing special setup:
    from repro.graphs.network import Network

    net = Network()
    net.add_edge(1, 2)
    net.set_edge_attr(1, 2, "w", 2.0)
    exercised["GetWeightedPageRank"] = ringo.GetWeightedPageRank(net, "w")

    bip = ringo.TableFromColumns({"g": [1, 1, 2], "u": [10, 11, 10]})
    co = ringo.ToCoOccurrenceGraph(bip, "g", "u")
    exercised["ToCoOccurrenceGraph"] = co
    exercised["GetMatching"] = ringo.GetMatching(
        ringo.GenErdosRenyi(2, 1, seed=1)
    )

    events = ringo.TableFromColumns({"t": [0, 1], "x": [1, 2], "y": [2, 3]})
    exercised["GetSnapshots"] = ringo.GetSnapshots(events, "t", "x", "y", 10)
    exercised["ToWeightedNetwork"] = ringo.ToWeightedNetwork(events, "x", "y")
    exercised["GetKTruss"] = ringo.GetKTruss(graph, 3)

    spectral_graph = ringo.GenPlantedPartition(2, 6, 0.9, 0.1, seed=2)
    exercised["GetSpectralBisection"] = ringo.GetSpectralBisection(spectral_graph)
    exercised["GetAlgebraicConnectivity"] = ringo.GetAlgebraicConnectivity(spectral_graph)
    exercised["Rewire"] = ringo.Rewire(ringo.GenErdosRenyi(10, 15, seed=2))

    path = tmp_path / "t.npz"
    exercised["SaveTableBinary"] = ringo.SaveTableBinary(t, path)
    exercised["LoadTableBinary"] = ringo.LoadTableBinary(path)
    tsv = tmp_path / "t.tsv"
    exercised["SaveTableTSV"] = ringo.SaveTableTSV(t, tsv)
    exercised["LoadTableTSV"] = ringo.LoadTableTSV(
        [("k", "int"), ("v", "float"), ("s", "string")], tsv
    )

    state = tmp_path / "state"
    with Ringo(workers=1, durability=state) as durable:
        durable.TableFromColumns({"a": [1, 2]})
        exercised["checkpoint"] = durable.checkpoint()
    with Ringo.recover(state, workers=1) as recovered:
        exercised["recover"] = recovered.Objects()

    stream = tmp_path / "stream"
    with Ringo(workers=1, durability=stream) as producer:
        edges = producer.TableFromColumns({"a": [1, 2], "b": [2, 3]})
        src = producer.ToGraph(edges, "a", "b")
        exercised["ApplyOps"] = producer.ApplyOps(src, [["add_edge", 3, 4]])
    with Ringo(workers=1) as follower:
        exercised["TailWal"] = follower.TailWal(stream)

    # Every public engine method must have been exercised above.
    public = {
        name
        for name in dir(Ringo)
        if not name.startswith("_")
        and callable(getattr(Ringo, name))
        and name not in ("close",)
    }
    missing = public - set(exercised)
    assert not missing, f"engine methods not exercised: {sorted(missing)}"
