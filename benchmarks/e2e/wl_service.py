"""``service`` — closed-loop tenants of a real ``repro serve`` process.

``min(nproc, 2)`` tenants, one connection each, each sending its next
request only when the previous reply has arrived (a **closed loop**: a
slower server receives less load). Every tenant reads and writes its own
small graph, so the protocol, queueing, admission and JSON replies do
most of the work per request and the kernels little.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.e2e import gen
from benchmarks.e2e.common import (
    P90_MIN_SAMPLES,
    P95_MIN_SAMPLES,
    Context,
    Outcome,
    current_rss_mb,
    median_ms,
    peak_rss_mb,
    percentile_ms,
    repeat_setup,
    span_metrics,
    timed,
)

ROOT = Path(__file__).resolve().parents[2]
CLIENTS = min(len(os.sched_getaffinity(0)), 2)
SCHEMA = [["src", "int"], ["dst", "int"]]
WARMUP_REQUESTS = 20
PINGS = 200
TIMEOUT_S = 60
# A request/reply loop over loopback leaves this 2-vCPU VM in a state where
# threads handing the GIL to each other run ~5x slower (11x the voluntary
# context switches); it persists under load and clears after 8-10 s of
# idleness (measured; see README). The run idles that long before it exits
# so the next run - any workload - starts from the state this one found.
COOL_DOWN_S = 10


def sizes(ctx: Context) -> dict:
    if ctx.quick:
        return {"num_nodes": 1_000, "num_edges": 8_000}
    return {"num_nodes": 5_000, "num_edges": 40_000}


def start_server(spool: Path, log: Path):
    """Spawn ``python -m repro serve --port 0``; returns ``(process, port)``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "w", encoding="utf-8") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--spool", str(spool), "--port", "0"],
            stdout=subprocess.PIPE, stderr=stderr, text=True, env=env, cwd=ROOT,
        )
    line = process.stdout.readline()
    if "listening on" not in line:
        process.kill()
        process.wait()
        raise RuntimeError(f"server did not start: {line!r} (see {log})")
    port = int(line.split("listening on")[1].split()[0].rsplit(":", 1)[1])
    return process, port


def stop_server(process) -> "tuple[int, float]":
    """SIGTERM, wait for the drain; returns ``(exit code, seconds)``."""
    start = time.perf_counter()
    process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
    return process.returncode, time.perf_counter() - start


class Tenant:
    """One client connection, its graph, its script and what it observed."""

    def __init__(self, ctx: Context, index: int, port: int, edges_path: Path, src, dst):
        from repro.service.client import ServiceClient

        self.index = index
        self.name = f"tenant-{index}"
        self.edges_path = edges_path
        self.client = ServiceClient("127.0.0.1", port, tenant=self.name, timeout=TIMEOUT_S)
        self.script = gen.RequestScript(ctx.seed, index, src, dst)
        self.batches: list = []  # every ApplyOps sent, for the reference replay
        self.latencies: dict = {op: [] for op in (*self.script.READ_OPS, self.script.WRITE_OP)}
        self.reply_bytes: list = []
        self.attempted = 0
        self.failures: list = []
        self.graph_ref = None

    def load(self) -> None:
        """The tenant's committed set-up: load, build, first PageRank."""
        call = self.client.call
        table = call("LoadTableTSV", path=str(self.edges_path), schema=SCHEMA)
        graph = call("ToGraph", table={"$ref": table["$ref"]}, src_col="src", dst_col="dst")
        self.graph_ref = {"$ref": graph["$ref"]}
        call("GetPageRank", graph=self.graph_ref)

    def request(self, ctx: Context, record: bool) -> bool:
        """Send the script's next request and wait for its reply."""
        op, args = self.script.next_request()
        if op != "digest":
            args = dict(args, graph=self.graph_ref)
        if op == "ApplyOps":
            self.batches.append(args["ops"])
        lap_id = f"c{self.index}-{self.attempted}" if record else "warm-up"
        if record:
            self.attempted += 1
        start = time.perf_counter()
        try:
            with ctx.recorder.span("lap", "bench", lap_id):
                with ctx.recorder.span(op, "service", lap_id):
                    envelope = self.client.wait(self.client.send(op, **args))
        except Exception as error:  # noqa: BLE001 - a dead connection ends this client
            self.failures.append(f"{lap_id} {op}: {type(error).__name__}: {error}")
            return False
        elapsed = time.perf_counter() - start
        if not envelope.get("ok"):
            self.failures.append(f"{lap_id} {op}: {envelope.get('error')}")
        elif record:
            self.latencies[op].append(elapsed)
            if ctx.traced:
                self.reply_bytes.append(len(json.dumps(envelope, separators=(",", ":"))))
        return True

    def drive(self, ctx: Context, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if not self.request(ctx, record=True):
                break


def build(ctx: Context, index: int) -> dict:
    """Write the tenants' edge files, start the server, load every tenant."""
    spool = ctx.workdir / f"spool-{index}"
    process, port = start_server(spool, ctx.workdir / f"server-{index}.log")
    tenants = []
    try:
        for client in range(CLIENTS):
            src, dst = gen.uniform_edges(ctx.seed, f"tenant-{client}", **sizes(ctx))
            path = ctx.workdir / f"edges-{client}.tsv"
            gen.write_tsv(path, {"src": src, "dst": dst}, ("src", "dst"))
            tenant = Tenant(ctx, client, port, path, src, dst)
            tenants.append(tenant)
            tenant.load()
    except BaseException:
        process.kill()
        process.wait()
        raise
    return {"process": process, "port": port, "tenants": tenants}


def teardown(state: dict) -> "tuple[int, float]":
    for tenant in state["tenants"]:
        tenant.client.close()
    return stop_server(state["process"])


def reference_digest(ctx: Context, tenant: Tenant) -> dict:
    """The catalog an in-process session reaches replaying the same ops."""
    from repro import Ringo
    from repro.recovery.digest import catalog_digest

    directory = ctx.workdir / f"reference-{tenant.index}"
    with Ringo(workers=1, durability=directory) as ringo:
        table = ringo.LoadTableTSV(
            [tuple(column) for column in SCHEMA], str(tenant.edges_path)
        )
        graph = ringo.ToGraph(table, "src", "dst")
        for ops in tenant.batches:
            ringo.ApplyOps(graph, ops)
        return catalog_digest(ringo)


def run(ctx: Context) -> Outcome:
    state, build_s = repeat_setup(ctx, build, teardown)
    try:
        return measure(ctx, state, build_s)
    finally:
        # Whatever happened above, no server outlives the run.
        if state["process"].poll() is None:
            state["process"].kill()
            state["process"].wait()


def measure(ctx: Context, state: dict, build_s: float) -> Outcome:
    outcome = Outcome()
    tenants = state["tenants"]

    def warm_up() -> None:
        for tenant in tenants:
            for _ in range(WARMUP_REQUESTS):
                tenant.request(ctx, record=False)

    _, warm_s = timed(warm_up)
    setup_s = build_s + warm_s
    rss_after_setup = current_rss_mb()

    # Closed loop: one thread per tenant, next request after the reply.
    threads = [
        threading.Thread(target=tenant.drive, name=tenant.name,
                         args=(ctx, time.perf_counter() + ctx.seconds))
        for tenant in tenants
    ]
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(ctx.seconds + 2 * TIMEOUT_S)
    wall = time.perf_counter() - wall_start
    generator_cpu = time.process_time() - cpu_start
    outcome.check(not any(t.is_alive() for t in threads), "a client never finished")

    admin = tenants[0].client
    # Read the server's own latency histogram before the pings enter it.
    health = admin.call("health")["service"]
    pings = []
    if ctx.traced:
        pings = [timed(admin.call, "ping")[1] for _ in range(PINGS)]
    for tenant in tenants:
        live = outcome.attempt(tenant.name, tenant.client.call, "digest")
        expected = reference_digest(ctx, tenant)
        outcome.check(live == expected, f"{tenant.name}: digest differs from the reference replay")
    exit_code, drain_s = teardown(state)
    outcome.check(exit_code == 0, f"server exited {exit_code} after SIGTERM")
    if not ctx.quick:
        time.sleep(COOL_DOWN_S)

    outcome.attempted += sum(t.attempted for t in tenants)
    outcome.failures += [failure for t in tenants for failure in t.failures]
    by_op = {
        op: [s for t in tenants for s in t.latencies[op]] for op in tenants[0].latencies
    }
    reads = [s for op in gen.RequestScript.READ_OPS for s in by_op[op]]
    writes = by_op[gen.RequestScript.WRITE_OP]
    everything = reads + writes
    outcome.end_to_end = {
        "setup_s": setup_s,
        "lap_p50_ms": median_ms(everything),
        "work_per_s": len(everything) / wall,
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    outcome.notes = {
        "clients": CLIENTS, "loop": "closed", "requests": len(everything),
        "reads": len(reads), "writes": len(writes),
    }
    if not ctx.traced:
        return outcome

    stats = health["tenants"].values()
    server = health["latency"]
    layer = {
        "service.ping_rtt_ms": median_ms(pings),
        "service.pagerank_req_ms": median_ms(by_op["GetPageRank"]),
        "service.bfs_req_ms": median_ms(by_op["GetBfsLevels"]),
        "service.digest_req_ms": median_ms(by_op["digest"]),
        "service.apply_ops_req_ms": median_ms(writes),
        "service.reply_bytes_per_req": (
            sum(b for t in tenants for b in t.reply_bytes) / len(everything)
        ),
        "service.server_p50_ms": server["p50"] * 1e3,
        "service.server_p95_ms": server["p95"] * 1e3,
        "service.overhead_ms": median_ms(everything) - server["p50"] * 1e3,
        "service.shed": sum(s["shed"] for s in stats),
        "service.retries": sum(s["retries"] for s in stats),
        "service.deadline_expired": sum(
            s["expired_queued"] + s["expired_running"] for s in stats
        ),
        "service.evictions": sum(s["evictions"] for s in stats),
        "service.revivals": sum(s["revivals"] for s in stats),
        "service.drain_s": drain_s,
        "memory.rss_after_setup_mb": rss_after_setup,
        "e2e.read_p50_ms": median_ms(reads),
        "e2e.write_p50_ms": median_ms(writes),
        "e2e.failed_frac": len(outcome.failures) / outcome.attempted,
        "bench.generator_cpu_frac": generator_cpu / wall,
        **span_metrics(ctx, everything, len(everything)),
    }
    if len(everything) >= P90_MIN_SAMPLES:
        layer["e2e.lap_p90_ms"] = percentile_ms(everything, 0.90)
    if len(reads) >= P95_MIN_SAMPLES:
        layer["e2e.read_p95_ms"] = percentile_ms(reads, 0.95)
    if len(writes) >= P90_MIN_SAMPLES:
        layer["e2e.write_p90_ms"] = percentile_ms(writes, 0.90)
    outcome.per_layer = layer
    return outcome
