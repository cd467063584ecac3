"""``churn`` — a live durable graph: ingest a batch, re-ask, repeat.

A change-data-capture feeder mutates a durable session's graph by 1 % of
its edges per round and re-asks PageRank, WCC and triangles. Unlike
``analytics`` the algorithms advance by delta merge and warm start, and
every batch is a WAL commit — so ``incremental`` and ``recovery`` carry
weight here and nowhere else. The run ends with a checkpoint, a restart
and a digest comparison.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import gen
from benchmarks.e2e.common import (
    P90_MIN_SAMPLES,
    Context,
    Outcome,
    current_rss_mb,
    keep_going,
    median_ms,
    peak_rss_mb,
    percentile_ms,
    repeat_setup,
    span_metrics,
    timed,
)
from benchmarks.e2e.wl_analytics import sizes

SCHEMA = [("src", "int"), ("dst", "int")]
CHURN_FRACTION = 0.01
# Both the live and the from-scratch PageRank must stop on the tolerance,
# not the iteration cap: that is the L1 bound's precondition.
PAGERANK = {"damping": 0.85, "tolerance": 1e-9, "max_iterations": 400}


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def build(ctx: Context, index: int) -> dict:
    """Generate edges, write them, and load them into a durable session."""
    from repro import Ringo

    src, dst = gen.rmat_edges(ctx.seed, **sizes(ctx))
    edges_path = ctx.workdir / "edges.tsv"
    gen.write_tsv(edges_path, {"src": src, "dst": dst}, ("src", "dst"))
    directory = ctx.workdir / f"durable-{index}"
    ringo = Ringo(workers=ctx.workers, durability=directory)
    table = ringo.LoadTableTSV(SCHEMA, str(edges_path))
    graph = ringo.ToGraph(table, "src", "dst")
    return {
        "ringo": ringo, "graph": graph, "directory": directory,
        "src": src, "dst": dst, "stream": gen.ChurnStream(ctx.seed, src, dst),
    }


def teardown(state: dict) -> None:
    from repro.graphs.snapshot import snapshot_cache

    snapshot_cache().invalidate(state["graph"])
    state["ringo"].close()


def refresh(ctx: Context, ringo, graph, lap_id: object) -> dict:
    """The three questions re-asked after every batch."""
    return {
        "pagerank": ctx.call("incremental", lap_id, ringo.GetPageRank, graph, **PAGERANK),
        "wcc": ctx.call("incremental", lap_id, ringo.GetWcc, graph),
        "triangles": ctx.call("incremental", lap_id, ringo.GetTriangles, graph),
    }


def from_scratch(ctx: Context, state: dict) -> dict:
    """The same answers on a graph rebuilt from the stream's own edge set,
    with the incremental engine off."""
    from repro import Ringo
    from repro.incremental.engine import incremental_engine

    src, dst = state["stream"].live_edges()
    engine = incremental_engine()
    engine.configure(enabled=False)
    try:
        with Ringo(workers=ctx.workers) as ringo:
            graph = ringo.ToGraph(
                ringo.TableFromColumns({"src": src, "dst": dst}), "src", "dst"
            )
            # Nodes that lost their last edge are still nodes of the live graph.
            original = np.union1d(state["src"], state["dst"])
            lonely = np.setdiff1d(original, np.union1d(src, dst))
            ringo.ApplyOps(graph, [["add_node", int(node)] for node in lonely])
            return {
                "pagerank": ringo.GetPageRank(graph, **PAGERANK),
                "wcc": ringo.GetWcc(graph),
                "triangles": ringo.GetTriangles(graph),
            }
    finally:
        engine.configure(enabled=True)


def run(ctx: Context) -> Outcome:
    from repro import Ringo
    from repro.incremental.engine import incremental_engine, pagerank_epsilon
    from repro.memory.sizeof import object_size_bytes
    from repro.recovery.digest import catalog_digest

    outcome = Outcome()
    incremental_engine().reset()
    state, build_s = repeat_setup(ctx, build, teardown)
    ringo, graph, stream = state["ringo"], state["graph"], state["stream"]
    batch = max(2, int(CHURN_FRACTION * graph.num_edges))
    # Untimed: seed the three warm algorithm states the rounds advance.
    _, seed_s = timed(refresh, ctx, ringo, graph, "seed")
    setup_s = build_s + seed_s
    rss_after_setup = current_rss_mb()

    mirror = mirror_graph = None
    if ctx.traced:
        # The same batches on a session without a WAL: the difference is
        # what durability costs per commit.
        mirror = Ringo(workers=ctx.workers)
        mirror_graph = mirror.ToGraph(
            mirror.TableFromColumns({"src": state["src"], "dst": state["dst"]}),
            "src", "dst",
        )
    wal_path = state["directory"] / "wal.jsonl"
    wal_before = wal_path.stat().st_size
    engine_before = incremental_engine().stats()

    rounds: list[dict] = []
    answers: dict = {}
    phase_start = time.perf_counter()
    while keep_going(ctx, phase_start, len(rounds), outcome):
        lap_id = f"round-{len(rounds)}"
        ops = stream.next_batch(batch)
        start = time.perf_counter()
        with ctx.recorder.span("lap", "bench", lap_id):
            summary = outcome.attempt(
                lap_id, ctx.call, "incremental", lap_id, ringo.ApplyOps, graph, ops
            )
            written = time.perf_counter()
            answers = outcome.attempt(lap_id, refresh, ctx, ringo, graph, lap_id)
        end = time.perf_counter()
        if summary is None or answers is None:
            continue
        outcome.check(
            summary["applied"] == len(ops) and summary["skipped"] == 0,
            f"{lap_id}: {summary['skipped']} ops skipped",
        )
        rounds.append(
            {"seconds": end - start, "write": written - start, "read": end - written}
        )
        if mirror is not None:
            ctx.call("incremental", f"mirror-{len(rounds) - 1}", mirror.ApplyOps,
                     mirror_graph, ops)
    wal_after = wal_path.stat().st_size
    engine_after = incremental_engine().stats()
    if mirror is not None:
        mirror.close()

    # Restart: checkpoint, close, recover, and the catalog must be the same.
    live_digest = catalog_digest(ringo)
    _, checkpoint_s = timed(ctx.call, "recovery", "restart", ringo.checkpoint)
    directory_bytes = tree_bytes(state["directory"])
    teardown(state)
    revived, recover_s = timed(
        ctx.call, "recovery", "restart", Ringo.recover, state["directory"],
        workers=ctx.workers,
    )
    outcome.check(
        catalog_digest(revived) == live_digest, "recovered catalog differs from the live one"
    )
    revived.close()

    reference = from_scratch(ctx, state)
    outcome.check(
        len(set(answers["wcc"].values())) == len(set(reference["wcc"].values())),
        "WCC component count differs from a from-scratch run",
    )
    outcome.check(
        answers["triangles"] == reference["triangles"],
        "triangle count differs from a from-scratch run",
    )
    l1 = sum(abs(answers["pagerank"][n] - reference["pagerank"][n]) for n in reference["pagerank"])
    epsilon = pagerank_epsilon(PAGERANK["damping"], PAGERANK["tolerance"])
    outcome.check(l1 <= epsilon, f"PageRank L1 {l1:.3e} > {epsilon:.3e}")

    seconds = [r["seconds"] for r in rounds]
    applied = batch * len(rounds)
    fallback_full = engine_after["fallback_full"] - engine_before["fallback_full"]
    outcome.end_to_end = {
        "setup_s": setup_s,
        "lap_p50_ms": median_ms(seconds),
        "work_per_s": applied / sum(seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes = {
        "rounds": len(rounds), "ops_per_round": batch, "edges": graph.num_edges,
        "fallback_full": fallback_full, "pagerank_l1": l1,
    }
    if not ctx.traced:
        return outcome

    round_ids = [f"round-{i}" for i in range(len(rounds))]
    mirror_ids = [f"mirror-{i}" for i in range(len(rounds))]

    def per_lap_ms(name: str, laps: list = round_ids) -> float:
        return ctx.recorder.per_lap_ms(name, laps)

    ingest_ms = per_lap_ms("ApplyOps")
    dispatches = engine_after["algorithms"]
    warm = sum(entry["warm"] for entry in dispatches.values())
    seeded = sum(entry["seed"] for entry in dispatches.values())
    writes = [r["write"] for r in rounds]
    outcome.per_layer = {
        "incremental.ingest_ms": ingest_ms,
        "incremental.ingest_ops_per_s": batch / (ingest_ms / 1e3),
        "incremental.refresh_pagerank_ms": per_lap_ms("GetPageRank"),
        "incremental.refresh_wcc_ms": per_lap_ms("GetWcc"),
        "incremental.refresh_triangles_ms": per_lap_ms("GetTriangles"),
        "incremental.delta_applied": (
            engine_after["delta_applied"] - engine_before["delta_applied"]
        ),
        "incremental.compactions": engine_after["compactions"] - engine_before["compactions"],
        "incremental.fallback_full": fallback_full,
        "incremental.warm_ratio": warm / (warm + seeded) if warm + seeded else 0.0,
        "recovery.durable_overhead_ms": ingest_ms - per_lap_ms("ApplyOps", mirror_ids),
        "recovery.wal_bytes": wal_after,
        "recovery.wal_bytes_per_op": (wal_after - wal_before) / applied,
        "recovery.checkpoint_ms": checkpoint_s * 1e3,
        "recovery.checkpoint_bytes": directory_bytes - wal_after,
        "recovery.recover_ms": recover_s * 1e3,
        "memory.graph_bytes_per_edge": object_size_bytes(graph) / graph.num_edges,
        "memory.rss_after_setup_mb": rss_after_setup,
        "e2e.read_p50_ms": median_ms(r["read"] for r in rounds),
        "e2e.write_p50_ms": median_ms(writes),
        "e2e.recover_s": checkpoint_s + recover_s,
        "e2e.failed_frac": len(outcome.failures) / outcome.attempted,
        **span_metrics(ctx, seconds, len(rounds)),
    }
    if len(rounds) >= P90_MIN_SAMPLES:
        outcome.per_layer["e2e.lap_p90_ms"] = percentile_ms(seconds, 0.90)
        outcome.per_layer["e2e.write_p90_ms"] = percentile_ms(writes, 0.90)
    return outcome
