"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — engine summary: version, registered function counts.
* ``functions [--category C]`` — list the registered analytics surface.
* ``demo [--tag TAG]`` — run the §4.1 StackOverflow expert demo.
* ``generate --kind K ...`` — emit a synthetic graph as an edge list.
* ``stats PATH`` — summarise an edge-list file (PrintInfo-style).
* ``lint [PATHS ...]`` — run ringo-lint (``python -m repro.analysis``).
* ``trace SCRIPT`` — run a Python script under the repro.obs tracer and
  print the span-tree profile (optionally writing a JSONL trace).
* ``serve --spool DIR`` — run the multi-tenant session service until
  SIGTERM/SIGINT, then drain (checkpoint all dirty sessions) and exit.
  ``--role replica`` runs a hot standby; ``--replica HOST:PORT`` on a
  primary ships its WAL there continuously.
* ``promote HOST:PORT`` — promote a replica service to primary: drain
  the ship stream to the WAL tip, bump the epoch, fence the old
  primary's spool, start accepting writes.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro import __version__
from repro.core.engine import Ringo
from repro.exceptions import RingoError


def _cmd_info(args: argparse.Namespace) -> int:
    with Ringo(workers=1) as ringo:
        print(f"repro {__version__} — Ringo (SIGMOD 2015) reproduction")
        print(f"registered functions: {ringo.NumFunctions()}")
        for category, count in sorted(ringo.registry.categories().items()):
            print(f"  {category:<18} {count}")
    return 0


def _cmd_functions(args: argparse.Namespace) -> int:
    with Ringo(workers=1) as ringo:
        for name in ringo.Functions(category=args.category):
            entry = ringo.registry.get(name)
            print(f"{name:<48} {entry.description}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.workflows.stackoverflow import (
        POSTS_SCHEMA,
        StackOverflowConfig,
        generate_stackoverflow,
        write_posts_tsv,
    )

    config = StackOverflowConfig(num_users=800, num_questions=5000, seed=2015)
    if args.tag not in config.tags:
        print(f"unknown tag {args.tag!r}; pick one of {config.tags}", file=sys.stderr)
        return 2
    data = generate_stackoverflow(config)
    budget = None
    if args.memory_budget_mb is not None:
        budget = args.memory_budget_mb * (1 << 20)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "posts.tsv"
        write_posts_tsv(data, path)
        with Ringo(workers=args.workers, memory_budget=budget) as ringo:
            posts = ringo.LoadTableTSV(POSTS_SCHEMA, path)
            tagged = ringo.Select(posts, f"Tag='{args.tag}'")
            questions = ringo.Select(tagged, "Type=question")
            answers = ringo.Select(tagged, "Type=answer")
            qa = ringo.Join(questions, answers, "AnswerId", "PostId")
            graph = ringo.ToGraph(qa, "UserId-1", "UserId-2")
            ranks = ringo.GetPageRank(graph)
            scores = ringo.TableFromHashMap(ranks, "User", "Scr")
            top = ringo.TopK(scores, "Scr", 10)
            health = ringo.health()
    top_users = top.column("User").tolist()
    truth = set(data.experts_for(args.tag))
    hits = sum(1 for user in top_users if user in truth)
    print(f"top-10 {args.tag} experts: {top_users}")
    print(f"precision@10 vs planted experts: {hits}/10")
    if args.show_health:
        workers = health["workers"]
        print(
            f"health: workers={workers['workers']} calls={workers['calls']} "
            f"retries={workers['retries']} degraded={workers['degraded']}"
        )
        if health["memory_budget"] is not None:
            mb = health["memory_budget"]
            print(
                f"budget: limit={mb['limit_bytes']}B admitted={mb['admitted']} "
                f"denials={mb['denials']}"
            )
        print(f"objects published: {health['objects']['published']}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.algorithms import generators
    from repro.graphs.serialize import save_edge_list

    if args.kind == "rmat":
        graph = generators.rmat(args.scale, args.edges, seed=args.seed)
    elif args.kind == "ba":
        graph = generators.barabasi_albert(args.nodes, args.attach, seed=args.seed)
    elif args.kind == "er":
        graph = generators.erdos_renyi_gnm(args.nodes, args.edges, seed=args.seed)
    else:
        print(f"unknown kind {args.kind!r}", file=sys.stderr)
        return 2
    written = save_edge_list(graph, args.output)
    print(f"wrote {written} edges ({graph.num_nodes} nodes) to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        print(f"no results directory at {results_dir}; run "
              f"`pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 2
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(f"no result files in {results_dir}", file=sys.stderr)
        return 2
    for path in files:
        print(f"\n=== {path.stem} ===")
        print(path.read_text().rstrip())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.algorithms.statistics import summarize
    from repro.graphs.serialize import load_edge_list

    graph = load_edge_list(args.path, directed=not args.undirected)
    print(summarize(graph))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main

    return lint_main(args.args)


def _cmd_trace(args: argparse.Namespace) -> int:
    import runpy

    from repro import obs

    script = Path(args.script)
    if not script.is_file():
        print(f"repro trace: no such script: {script}", file=sys.stderr)
        return 2
    sinks: list = [obs.RingBufferSink(capacity=args.ring_capacity)]
    if args.output is not None:
        sinks.append(obs.JsonlSink(args.output))
    tracer = obs.enable(sinks=sinks)
    # The script sees the tracer as already armed — Ringo() sessions it
    # creates will not tear it down (the ownership protocol).
    old_argv = sys.argv
    sys.argv = [str(script)] + list(args.script_args)
    try:
        with obs.trace("cli.trace", script=str(script)):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
        records = tracer.ring_records()
        stats = tracer.stats()
        if obs.current_tracer() is tracer:
            obs.disable()
    print(obs.render_profile(records, min_total_s=args.min_total))
    print(
        f"spans: {stats['finished']} finished, {stats['recorded']} recorded, "
        f"{stats['dropped']} dropped"
    )
    if args.output is not None:
        print(f"trace written to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import ServiceConfig, serve_forever

    config = ServiceConfig(
        spool_dir=args.spool,
        host=args.host,
        port=args.port,
        global_budget_bytes=args.global_budget_mb << 20,
        default_tenant_budget_bytes=args.tenant_budget_mb << 20,
        max_queue_depth=args.queue_depth,
        default_deadline_s=args.deadline_s,
        tick_s=args.tick_s,
        idle_evict_s=args.idle_evict_s,
        role=args.role,
        replica_address=args.replica,
        ship_interval_s=args.ship_interval_s,
        digest_every_batches=args.digest_every,
        lag_degrade_records=args.lag_degrade,
    )
    asyncio.run(
        serve_forever(config, signals=(signal.SIGTERM, signal.SIGINT))
    )
    return 0


def _parse_address(value: str) -> "tuple[str, int]":
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise RingoError(f"address {value!r} is not HOST:PORT")
    return host, int(port)


def _cmd_promote(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    host, port = _parse_address(args.address)
    with ServiceClient(host, port, tenant="__admin__", timeout=args.timeout) as client:
        call_args: dict = {}
        if args.new_epoch is not None:
            call_args["new_epoch"] = args.new_epoch
        if args.fence_spool is not None:
            call_args["fence_spool"] = args.fence_spool
        report = client.call("promote", **call_args)
    print(
        f"promoted to epoch {report['epoch']}; "
        f"drained {report['drained_records']} record(s) from the old "
        f"primary's WAL tails; adopted {len(report.get('adopted', []))} "
        f"live session(s)"
    )
    for tenant, state in sorted(report.get("tenants", {}).items()):
        print(f"  {tenant:<24} applied_lsn={state['applied_lsn']} "
              f"epoch={state['epoch']}")
    if report.get("fenced_spool"):
        print(f"fenced old primary spool: {report['fenced_spool']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Ringo (SIGMOD 2015) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="engine summary")
    info.set_defaults(func=_cmd_info)

    functions = sub.add_parser("functions", help="list registered functions")
    functions.add_argument("--category", default=None)
    functions.set_defaults(func=_cmd_functions)

    demo = sub.add_parser("demo", help="run the StackOverflow expert demo")
    demo.add_argument("--tag", default="Java")
    demo.add_argument("--workers", type=int, default=None)
    demo.add_argument(
        "--memory-budget-mb", type=int, default=None,
        help="session memory budget for conversions/joins, in MiB",
    )
    demo.add_argument(
        "--show-health", action="store_true",
        help="print the session health() summary after the demo",
    )
    demo.set_defaults(func=_cmd_demo)

    generate = sub.add_parser("generate", help="emit a synthetic graph edge list")
    generate.add_argument("--kind", choices=("rmat", "ba", "er"), default="rmat")
    generate.add_argument("--scale", type=int, default=10)
    generate.add_argument("--edges", type=int, default=10_000)
    generate.add_argument("--nodes", type=int, default=1_000)
    generate.add_argument("--attach", type=int, default=3)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)
    generate.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="summarise an edge-list file")
    stats.add_argument("path")
    stats.add_argument("--undirected", action="store_true")
    stats.set_defaults(func=_cmd_stats)

    report = sub.add_parser(
        "report", help="print the regenerated paper tables from benchmark runs"
    )
    report.add_argument(
        "--results",
        default=str(Path(__file__).resolve().parents[2] / "benchmarks" / "results"),
    )
    report.set_defaults(func=_cmd_report)

    # The lint subparser declares no option of its own (no "-" prefix,
    # no -h), so every argument, flags included, reaches the lint CLI.
    lint = sub.add_parser(
        "lint", help="run ringo-lint (project rules R001-R012) over source paths",
        add_help=False, prefix_chars="+",
    )
    lint.add_argument("args", nargs=argparse.REMAINDER)
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace", help="run a Python script under the tracer and print a profile"
    )
    trace.add_argument("script", help="path to the Python script to run")
    trace.add_argument(
        "script_args", nargs="*", help="arguments forwarded to the script"
    )
    trace.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the spans as a JSON-lines trace file",
    )
    trace.add_argument(
        "--min-total", type=float, default=0.0, metavar="SECONDS",
        help="hide profile rows whose total time is below this",
    )
    trace.add_argument(
        "--ring-capacity", type=int, default=65536,
        help="in-memory span buffer size backing the profile",
    )
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant session service (drains on SIGTERM)"
    )
    serve.add_argument(
        "--spool", required=True, metavar="DIR",
        help="directory for per-tenant durable state (WAL + checkpoints)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free port, printed at startup)",
    )
    serve.add_argument(
        "--global-budget-mb", type=int, default=1024,
        help="total resident-session memory the ledger admits, in MiB",
    )
    serve.add_argument(
        "--tenant-budget-mb", type=int, default=128,
        help="default per-tenant session memory budget, in MiB",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="per-tenant queue bound; beyond it the oldest deadline is shed",
    )
    serve.add_argument(
        "--deadline-s", type=float, default=30.0,
        help="default request deadline when the client sends none",
    )
    serve.add_argument(
        "--tick-s", type=float, default=0.02,
        help="scheduler tick: queued-deadline sweep + idle-eviction cadence",
    )
    serve.add_argument(
        "--idle-evict-s", type=float, default=60.0,
        help="idle time before a resident session is evicted to checkpoint",
    )
    serve.add_argument(
        "--role", choices=("primary", "replica"), default="primary",
        help="primary serves writes; replica follows a ship stream "
             "and serves (lag-gated) reads until promoted",
    )
    serve.add_argument(
        "--replica", default=None, metavar="HOST:PORT",
        help="replica address a primary ships its WAL to (enables "
             "continuous replication)",
    )
    serve.add_argument(
        "--ship-interval-s", type=float, default=0.05,
        help="WAL shipper polling interval on the primary",
    )
    serve.add_argument(
        "--digest-every", type=int, default=4,
        help="exchange a consistency digest every N shipped batches",
    )
    serve.add_argument(
        "--lag-degrade", type=int, default=1024,
        help="replica read degradation threshold, in WAL records behind",
    )
    serve.set_defaults(func=_cmd_serve)

    promote = sub.add_parser(
        "promote", help="promote a replica service to primary (fenced failover)"
    )
    promote.add_argument("address", metavar="HOST:PORT",
                         help="the replica service to promote")
    promote.add_argument(
        "--fence-spool", default=None, metavar="DIR",
        help="the deposed primary's spool root: drain its WAL tails and "
             "fence its tenant directories at the new epoch",
    )
    promote.add_argument(
        "--new-epoch", type=int, default=None,
        help="explicit new epoch (defaults to highest observed + 1)",
    )
    promote.add_argument("--timeout", type=float, default=60.0)
    promote.set_defaults(func=_cmd_promote)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    Deliberate package errors (bad budgets, bad ``REPRO_WORKERS``,
    exceeded memory budgets, ...) are reported as one-line CLI errors
    with exit code 2 rather than tracebacks.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RingoError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
