"""Service benchmark: concurrent tenants, request latency, density.

Measures the multi-tenant session service on three axes, prints the
JSON result, and writes it to ``--out PATH`` when given (CI passes
``--out BENCH_service.json`` and archives it):

* **throughput under concurrency** — N tenant threads drive the
  service at once (setup: load -> graph -> PageRank, then a stream of
  catalog reads), requests/second over the whole run;
* **request latency** — client-observed p50/p95 per request class
  (setup vs steady-state reads), plus the server's own latency
  histogram for cross-checking;
* **session density** — sessions hosted per GiB of admission ledger.
  The ledger is sized so only a fraction of tenants fit in memory at
  once; eviction-to-checkpoint + lazy revival is what makes
  ``known_sessions`` exceed the resident ceiling, which is the paper's
  many-analysts-one-machine story applied to sessions.

Gates (CI fails on either): every request ends in a result or a typed
service error, and steady-state read p95 stays under one second.

Run:  python scripts/bench_service.py [--tenants N] [--reads M] [--out PATH]
"""

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.service import ServiceConfig, ServiceHandle  # noqa: E402

SCHEMA = [["src", "int"], ["dst", "int"]]
TENANT_BUDGET = 32 << 20
LEDGER_BYTES = 256 << 20  # 8 resident x 32 MiB; the rest live evicted


def percentile(samples, q):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class TenantThread(threading.Thread):
    """One tenant: committed setup, then a stream of catalog reads."""

    def __init__(self, handle, tenant, edges, reads):
        super().__init__(name=f"bench-{tenant}")
        self.handle = handle
        self.tenant = tenant
        self.edges = edges
        self.reads = reads
        self.setup_latencies = []
        self.read_latencies = []
        self.failures = []

    def _timed(self, bucket, op, **args):
        started = time.perf_counter()
        try:
            result = self.handle.call(self.tenant, op, **args)
        except Exception as error:
            self.failures.append(f"{op}: {type(error).__name__}: {error}")
            return None
        bucket.append(time.perf_counter() - started)
        return result

    def run(self):
        table = self._timed(
            self.setup_latencies, "LoadTableTSV",
            path=self.edges, schema=SCHEMA,
        )
        if table is None:
            return
        graph = self._timed(
            self.setup_latencies, "ToGraph",
            table={"$ref": table["$ref"]}, src_col="src", dst_col="dst",
        )
        if graph is None:
            return
        self._timed(
            self.setup_latencies, "GetPageRank", graph={"$ref": graph["$ref"]}
        )
        for n in range(self.reads):
            self._timed(
                self.read_latencies, "objects" if n % 2 else "digest"
            )


def run_benchmark(tenants: int, reads: int) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="bench-service-"))
    edges = workdir / "edges.tsv"
    with open(edges, "w") as fh:
        for i in range(2000):
            fh.write(f"{i}\t{(i * 31 + 5) % 2000}\n")

    config = ServiceConfig(
        spool_dir=str(workdir / "spool"),
        global_budget_bytes=LEDGER_BYTES,
        default_tenant_budget_bytes=TENANT_BUDGET,
        max_queue_depth=32,
        default_deadline_s=120.0,
        idle_evict_s=1.0,
        tick_s=0.02,
    )
    handle = ServiceHandle(config).start()
    try:
        workers = [
            TenantThread(handle, f"tenant-{n:02d}", str(edges), reads)
            for n in range(tenants)
        ]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - started
        health = handle.health()["service"]
    finally:
        report = handle.stop()

    setup = [s for w in workers for s in w.setup_latencies]
    read = [s for w in workers for s in w.read_latencies]
    failures = [f for w in workers for f in w.failures]
    total_requests = len(setup) + len(read)
    ledger_gib = LEDGER_BYTES / float(1 << 30)
    return {
        "config": {
            "tenants": tenants,
            "reads_per_tenant": reads,
            "tenant_budget_bytes": TENANT_BUDGET,
            "ledger_bytes": LEDGER_BYTES,
            "resident_ceiling": LEDGER_BYTES // TENANT_BUDGET,
        },
        "throughput": {
            "requests": total_requests,
            "seconds": elapsed,
            "requests_per_second": total_requests / elapsed,
        },
        "latency_s": {
            "setup": {
                "p50": percentile(setup, 0.50),
                "p95": percentile(setup, 0.95),
                "max": max(setup, default=None),
            },
            "read": {
                "p50": percentile(read, 0.50),
                "p95": percentile(read, 0.95),
                "max": max(read, default=None),
            },
            "server_histogram": health["latency"],
        },
        "density": {
            "known_sessions": health["known_sessions"],
            "resident_at_end": health["resident_sessions"],
            "sessions_per_gib": health["known_sessions"] / ledger_gib,
            "evictions": sum(
                t["evictions"] for t in health["tenants"].values()
            ),
            "revivals": sum(
                t["revivals"] for t in health["tenants"].values()
            ),
        },
        "drain": report,
        "failures": failures,
    }


def check(payload: dict) -> None:
    """The acceptance gates CI enforces."""
    assert payload["failures"] == [], (
        f"untyped or unexpected failures: {payload['failures'][:5]}"
    )
    p95 = payload["latency_s"]["read"]["p95"]
    assert p95 is not None and p95 < 1.0, f"steady-state read p95 {p95}s >= 1s"
    density = payload["density"]
    assert density["known_sessions"] > density["resident_at_end"], (
        "no session was ever evicted: density story untested"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tenants", type=int, default=24)
    parser.add_argument("--reads", type=int, default=20)
    parser.add_argument("--out", type=Path, help="also write the JSON result here")
    args = parser.parse_args()

    payload = run_benchmark(args.tenants, args.reads)
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    try:
        check(payload)
    except AssertionError as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    print(
        f"OK: {payload['throughput']['requests_per_second']:.0f} req/s across "
        f"{payload['config']['tenants']} tenants, read p95 "
        f"{payload['latency_s']['read']['p95'] * 1000:.1f} ms, "
        f"{payload['density']['sessions_per_gib']:.0f} sessions/GiB "
        f"(resident ceiling {payload['config']['resident_ceiling']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
