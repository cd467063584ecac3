"""``analytics`` — algorithms re-asked on one built graph, cold then warm.

An analyst holding one R-MAT graph asks twelve algorithm questions. A
**cold** lap starts with the graph's CSR snapshot and every warm
algorithm state dropped, so it pays the conversion and full kernels; the
**warm** lap asks the same questions again on the unchanged graph and
lives in the snapshot and result caches. ``algorithms``, ``graphs`` and
``parallel`` do all the work; ``tables`` does none.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from benchmarks.e2e import gen
from benchmarks.e2e.common import (
    Context,
    Outcome,
    current_rss_mb,
    keep_going,
    median_ms,
    peak_rss_mb,
    repeat_setup,
    snapshot_metrics,
    span_metrics,
    timed,
)

CALLS_PER_LAP = 12
BFS_SOURCES = 4


def sizes(ctx: Context) -> dict:
    if ctx.quick:
        return {"scale": 11, "num_edges": 20_000}
    return {"scale": 15, "num_edges": 300_000}


def build(ctx: Context, index: int) -> dict:
    """Generate the edges and build the graph in a fresh session."""
    from repro import Ringo

    src, dst = gen.rmat_edges(ctx.seed, **sizes(ctx))
    ringo = Ringo(workers=ctx.workers)
    lap_id = f"setup-{index}"
    table = ringo.TableFromColumns({"src": src, "dst": dst})
    graph = ctx.call("convert", lap_id, ringo.ToGraph, table, "src", "dst")
    edge_table = ctx.call("convert", lap_id, ringo.GetEdgeTable, graph)
    return {
        "ringo": ringo, "graph": graph, "src": src, "dst": dst,
        "table": table, "edge_table": edge_table,
    }


def teardown(state: dict) -> None:
    from repro.graphs.snapshot import snapshot_cache

    snapshot_cache().invalidate(state["graph"])
    state["ringo"].close()


def go_cold(graph) -> None:
    """Drop the graph's snapshot and every warm algorithm state."""
    from repro.graphs.snapshot import snapshot_cache
    from repro.incremental.engine import incremental_engine

    snapshot_cache().invalidate(graph)
    incremental_engine().reset()


def lap(ctx: Context, state: dict, lap_id: str, sources: list) -> dict:
    """The twelve questions, in order; returns their answers."""
    from repro.graphs.snapshot import csr_snapshot

    ringo, graph, call = state["ringo"], state["graph"], ctx.call
    answers: dict = {}
    start = time.perf_counter()
    with ctx.recorder.span("lap", "bench", lap_id):
        # What Ringo._snapshot does at the top of the first algorithm;
        # called here so the conversion gets its own span.
        call("graphs", lap_id, csr_snapshot, graph, pool=ringo.workers)
        answers["pagerank"] = call("algorithms", lap_id, ringo.GetPageRank, graph)
        answers["hits"] = call("algorithms", lap_id, ringo.GetHits, graph)
        answers["wcc"] = call("algorithms", lap_id, ringo.GetWcc, graph)
        answers["scc"] = call("algorithms", lap_id, ringo.GetScc, graph)
        answers["core"] = call("algorithms", lap_id, ringo.GetCoreNumbers, graph)
        answers["sssp"] = call("algorithms", lap_id, ringo.GetSssp, graph, sources[0])
        answers["bfs"] = [
            call("algorithms", lap_id, ringo.GetBfsLevels, graph, source)
            for source in sources[1:]
        ]
        answers["triangles"] = call("algorithms", lap_id, ringo.GetTriangles, graph)
        answers["clustering"] = call(
            "algorithms", lap_id, ringo.GetClusteringCoefficients, graph
        )
    answers["seconds"] = time.perf_counter() - start
    return answers


def same_answers(cold: dict, warm: dict) -> bool:
    return all(cold[key] == warm[key] for key in cold if key != "seconds")


def component_count(src: np.ndarray, dst: np.ndarray) -> int:
    """Weakly connected components by union-find over the generated edges."""
    parent: dict = {}

    def find(node: int) -> int:
        root = node
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for u, v in zip(src.tolist(), dst.tolist()):
        parent[find(u)] = find(v)
    return sum(1 for node in parent if find(node) == node)


def serial_baseline(graph) -> dict:
    """Cold PageRank and triangles in a one-worker session (the speed-up base).

    Runs last: opening a session re-sizes the process-wide dispatcher.
    """
    from repro import Ringo
    from repro.graphs.snapshot import csr_snapshot

    with Ringo(workers=1) as serial:
        seconds = {}
        for name, ask in (("pagerank", serial.GetPageRank), ("triangles", serial.GetTriangles)):
            go_cold(graph)
            csr_snapshot(graph, pool=serial.workers)  # as in a lap: not part of the kernel
            _, seconds[name] = timed(ask, graph)
    return seconds


def run(ctx: Context) -> Outcome:
    from repro.graphs.snapshot import snapshot_cache
    from repro.memory.sizeof import object_size_bytes

    outcome = Outcome()
    state, build_s = repeat_setup(ctx, build, teardown)
    ringo, graph = state["ringo"], state["graph"]
    rng = np.random.default_rng([ctx.seed, 7])

    def draw_sources() -> list:
        # Edge sources, so every BFS/SSSP has somewhere to go.
        return [int(n) for n in rng.choice(state["src"], 1 + BFS_SOURCES)]

    # One untimed cold lap: the first process dispatches start the worker
    # pool, and triangles stay ~1 s slower until a whole lap has run once.
    _, warmup_s = timed(lap, ctx, state, "warm-up", draw_sources())
    setup_s = build_s + warmup_s
    rss_after_setup = current_rss_mb()

    cache = snapshot_cache()
    cache_before = cache.stats()
    cold_s: list[float] = []
    warm_s: list[float] = []
    last: dict = {}  # only the newest cold lap's answers are kept alive
    phase_start = time.perf_counter()
    while keep_going(ctx, phase_start, len(cold_s), outcome):
        index = len(cold_s)
        sources = draw_sources()
        go_cold(graph)
        conversions = cache.stats()["conversions"]
        cold = outcome.attempt(f"cold-{index}", lap, ctx, state, f"cold-{index}", sources)
        built = cache.stats()["conversions"] - conversions
        warm = outcome.attempt(f"warm-{index}", lap, ctx, state, f"warm-{index}", sources)
        reused = cache.stats()["conversions"] - conversions - built
        if cold is None or warm is None:
            continue
        last = cold
        cold_s.append(cold["seconds"])
        warm_s.append(warm["seconds"])
        outcome.check(built >= 1, f"cold-{index}: the snapshot was not rebuilt")
        outcome.check(reused == 0, f"warm-{index}: the snapshot was rebuilt")
        outcome.check(same_answers(cold, warm), f"warm-{index}: answers differ from cold")
    cache_after = cache.stats()
    dispatch = ringo.health()["parallel"]["decisions"]

    outcome.check(
        abs(sum(last["pagerank"].values()) - 1.0) <= 1e-6, "PageRank does not sum to 1"
    )
    per_node = ringo.GetTriangleCounts(graph)
    outcome.check(
        last["triangles"] * 3 == sum(per_node.values()),
        "GetTriangles != sum(GetTriangleCounts)/3",
    )
    outcome.check(
        len(set(last["wcc"].values())) == component_count(state["src"], state["dst"]),
        "WCC label count differs from the union-find sweep",
    )

    outcome.end_to_end = {
        "setup_s": setup_s,
        "lap_p50_ms": median_ms(cold_s),
        # Cold laps only, like lap_p50_ms: warm laps are e2e.warm_lap_p50_ms.
        "work_per_s": graph.num_edges * CALLS_PER_LAP / statistics.median(cold_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes = {
        "cold_laps": len(cold_s), "warm_laps": len(warm_s),
        "nodes": graph.num_nodes, "edges": graph.num_edges,
        "triangles": last["triangles"],
        "cold_lap_ms": [round(s * 1e3) for s in cold_s],
    }
    if not ctx.traced:
        teardown(state)
        return outcome

    per_lap_ms = ctx.recorder.per_lap_ms
    cold_ids = [f"cold-{i}" for i in range(len(cold_s))]
    warm_ids = [f"warm-{i}" for i in range(len(warm_s))]
    setup_spans = [f"setup-{ctx.setup_repeats() - 1}"]
    to_graph_ms = per_lap_ms("ToGraph", setup_spans)
    pagerank_ms = per_lap_ms("GetPageRank", cold_ids)
    triangles_ms = per_lap_ms("GetTriangles", cold_ids)
    layer = {
        "convert.to_graph_ms": to_graph_ms,
        "convert.to_graph_edges_per_s": graph.num_edges / (to_graph_ms / 1e3),
        "convert.edge_table_ms": per_lap_ms("GetEdgeTable", setup_spans),
        "graphs.csr_build_ms": per_lap_ms("csr_snapshot", cold_ids),
        **snapshot_metrics(cache_before, cache_after),
        "algorithms.pagerank_ms": pagerank_ms,
        "algorithms.hits_ms": per_lap_ms("GetHits", cold_ids),
        "algorithms.wcc_ms": per_lap_ms("GetWcc", cold_ids),
        "algorithms.scc_ms": per_lap_ms("GetScc", cold_ids),
        "algorithms.core_ms": per_lap_ms("GetCoreNumbers", cold_ids),
        "algorithms.sssp_ms": per_lap_ms("GetSssp", cold_ids),
        "algorithms.bfs_ms": per_lap_ms("GetBfsLevels", cold_ids),
        "algorithms.triangles_ms": triangles_ms,
        "algorithms.clustering_ms": per_lap_ms("GetClusteringCoefficients", cold_ids),
        "algorithms.pagerank_warm_ms": per_lap_ms("GetPageRank", warm_ids),
        "algorithms.triangles_warm_ms": per_lap_ms("GetTriangles", warm_ids),
        "algorithms.scc_warm_ms": per_lap_ms("GetScc", warm_ids),
        "algorithms.core_warm_ms": per_lap_ms("GetCoreNumbers", warm_ids),
        "parallel.pagerank_nw_ms": pagerank_ms,
        "parallel.triangles_nw_ms": triangles_ms,
        "parallel.process_dispatches": dispatch["processes"],
        "parallel.thread_dispatches": dispatch["threads"],
        "memory.graph_bytes_per_edge": object_size_bytes(graph) / graph.num_edges,
        "memory.table_bytes_per_row": (
            object_size_bytes(state["edge_table"]) / state["edge_table"].num_rows
        ),
        "memory.rss_after_setup_mb": rss_after_setup,
        "e2e.warm_lap_p50_ms": median_ms(warm_s),
        "e2e.failed_frac": len(outcome.failures) / outcome.attempted,
        **span_metrics(ctx, cold_s, 2 * len(cold_s) + 1),
    }
    serial = serial_baseline(graph)
    layer["parallel.pagerank_1w_ms"] = serial["pagerank"] * 1e3
    layer["parallel.triangles_1w_ms"] = serial["triangles"] * 1e3
    layer["parallel.speedup_pagerank"] = serial["pagerank"] * 1e3 / pagerank_ms
    layer["parallel.speedup_triangles"] = serial["triangles"] * 1e3 / triangles_ms
    outcome.per_layer = layer
    teardown(state)
    return outcome
