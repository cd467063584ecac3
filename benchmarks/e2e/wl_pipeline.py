"""``pipeline`` — the paper's Figure 2 loop, one fresh session per lap.

An analyst at a Python prompt: load the posts file, and for each of the
five tags (and once for all tags) select, self-join on the accepted
answer, build the asker -> answerer graph, rank it, and turn the ranks
back into a sorted table. ``tables`` and ``convert`` do most of the work.
"""

from __future__ import annotations

import statistics
import time

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

SCHEMA = [
    ("PostId", "int"), ("Type", "string"), ("UserId", "int"),
    ("AnswerId", "int"), ("ParentId", "int"), ("Tag", "string"),
]
TOP_K = 50


def sizes(ctx: Context) -> dict:
    if ctx.quick:
        return {"num_users": 2_500, "num_questions": 15_000}
    return {"num_users": 20_000, "num_questions": 150_000}


def build(ctx: Context, index: int) -> dict:
    """Generate the posts and write ``posts.tsv``."""
    data = gen.stackoverflow_posts(ctx.seed, **sizes(ctx))
    path = ctx.workdir / "posts.tsv"
    rows = gen.write_tsv(path, data["columns"], gen.POSTS_COLUMNS)
    return {"path": str(path), "rows": rows, "experts": data["experts"]}


def lap(ctx: Context, state: dict, lap_id: object) -> dict:
    """One Figure 2 loop in a fresh session; returns its outputs."""
    from repro import Ringo

    call = ctx.call
    out: dict = {"ranked": {}, "joined_rows": 0, "edges": 0}
    start = time.perf_counter()
    with ctx.recorder.span("lap", "bench", lap_id):
        with ctx.recorder.span("session_open", "core", lap_id):
            ringo = Ringo(workers=ctx.workers)
        try:
            posts = call("tables", lap_id, ringo.LoadTableTSV, SCHEMA, state["path"])
            for tag in (*gen.TAGS, None):
                tagged = posts
                if tag is not None:
                    tagged = call("tables", lap_id, ringo.Select, posts, f"Tag='{tag}'")
                questions = call("tables", lap_id, ringo.Select, tagged, "Type='question'")
                answers = call("tables", lap_id, ringo.Select, tagged, "Type='answer'")
                joined = call(
                    "tables", lap_id, ringo.Join, questions, answers, "AnswerId", "PostId"
                )
                graph = call(
                    "convert", lap_id, ringo.ToGraph, joined, "UserId-1", "UserId-2"
                )
                ranks = call("algorithms", lap_id, ringo.GetPageRank, graph)
                scores = call(
                    "tables", lap_id, ringo.TableFromHashMap, ranks, "User", "Scr"
                )
                ranked = call(
                    "tables", lap_id, ringo.OrderBy, scores, "Scr", ascending=False
                )
                out["ranked"][tag] = ranked
                out["joined_rows"] += joined.num_rows
                out["edges"] += graph.num_edges
            out["per_user"] = call(
                "tables", lap_id, ringo.GroupBy, posts, ["UserId"],
                {"n": ("count", "PostId")},
            )
            out["posts"], out["graph"] = posts, graph
        finally:
            with ctx.recorder.span("session_close", "core", lap_id):
                ringo.close()
    out["seconds"] = time.perf_counter() - start
    return out


def digest(out: dict) -> tuple:
    """Content digests of one lap's outputs (computed outside the lap)."""
    from repro.recovery.digest import graph_digest, table_digest

    return (
        tuple(table_digest(out["ranked"][tag]) for tag in (*gen.TAGS, None)),
        table_digest(out["per_user"]),
        graph_digest(out["graph"]),
    )


def check_experts(outcome: Outcome, state: dict, out: dict, lap_id: object) -> None:
    """Every planted expert of a tag ranks in that tag's PageRank top-50."""
    for tag in gen.TAGS:
        top = set(out["ranked"][tag].column("User")[:TOP_K].tolist())
        missing = [user for user in state["experts"][tag] if user not in top]
        outcome.check(not missing, f"{lap_id}: {tag} experts {missing} not in top-{TOP_K}")


def call_overhead_us() -> float:
    """``Ringo.Select`` minus ``tables.select`` on a 10-row table (median of 1 000)."""
    from repro import Ringo, tables

    with Ringo(workers=1) as ringo:
        table = ringo.TableFromColumns({"a": list(range(10))})
        session = [timed(ringo.Select, table, "a>4")[1] for _ in range(1000)]
        direct = [timed(tables.select, table, "a>4")[1] for _ in range(1000)]
    return (statistics.median(session) - statistics.median(direct)) * 1e6


def run(ctx: Context) -> Outcome:
    from repro.graphs.snapshot import snapshot_cache
    from repro.memory.sizeof import object_size_bytes

    outcome = Outcome()
    state, build_s = repeat_setup(ctx, build)
    # Untimed first lap: imports and first-call costs, and the reference
    # digests later laps must reproduce.
    warm, warm_s = timed(lap, ctx, state, "warm-up")
    reference = digest(warm)
    check_experts(outcome, state, warm, "warm-up")
    setup_s = build_s + warm_s
    rss_after_setup = current_rss_mb()

    cache_before = snapshot_cache().stats()
    lap_seconds: list[float] = []
    rows = 0
    last = warm  # only the newest lap's tables are kept alive
    del warm
    phase_start = time.perf_counter()
    while keep_going(ctx, phase_start, len(lap_seconds), outcome):
        lap_id = f"lap-{len(lap_seconds)}"
        out = outcome.attempt(lap_id, lap, ctx, state, lap_id)
        if out is None:
            continue
        last = out
        lap_seconds.append(out["seconds"])
        rows += state["rows"] + out["joined_rows"]
        outcome.check(digest(out) == reference, f"{lap_id}: outputs differ from the first lap")
        check_experts(outcome, state, out, lap_id)
    cache_after = snapshot_cache().stats()

    outcome.end_to_end = {
        "setup_s": setup_s,
        "lap_p50_ms": median_ms(lap_seconds),
        "work_per_s": rows / sum(lap_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes = {
        "laps": len(lap_seconds), "rows": state["rows"],
        "joined_rows": last["joined_rows"], "edges": last["edges"],
    }
    if not ctx.traced:
        return outcome

    timed_laps = [f"lap-{i}" for i in range(len(lap_seconds))]

    def per_lap_ms(name: str) -> float:
        return ctx.recorder.per_lap_ms(name, timed_laps)

    load_ms = per_lap_ms("LoadTableTSV")
    to_graph_ms = per_lap_ms("ToGraph")
    outcome.per_layer = {
        "tables.load_tsv_ms": load_ms,
        "tables.load_tsv_rows_per_s": state["rows"] / (load_ms / 1e3),
        "tables.select_ms": per_lap_ms("Select"),
        "tables.join_ms": per_lap_ms("Join"),
        "tables.join_rows_out": last["joined_rows"],
        "tables.groupby_ms": per_lap_ms("GroupBy"),
        "tables.orderby_ms": per_lap_ms("OrderBy"),
        "tables.from_hashmap_ms": per_lap_ms("TableFromHashMap"),
        "convert.to_graph_ms": to_graph_ms,
        "convert.to_graph_edges_per_s": last["edges"] / (to_graph_ms / 1e3),
        "algorithms.pagerank_ms": per_lap_ms("GetPageRank"),
        **snapshot_metrics(cache_before, cache_after),
        "core.session_open_ms": per_lap_ms("session_open") + per_lap_ms("session_close"),
        "core.call_overhead_us": call_overhead_us(),
        "memory.table_bytes_per_row": object_size_bytes(last["posts"]) / state["rows"],
        "memory.graph_bytes_per_edge": (
            object_size_bytes(last["graph"]) / last["graph"].num_edges
        ),
        "memory.rss_after_setup_mb": rss_after_setup,
        "e2e.failed_frac": len(outcome.failures) / outcome.attempted,
        **span_metrics(ctx, lap_seconds, len(lap_seconds) + 1),
    }
    return outcome
