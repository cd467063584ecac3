"""Replication benchmark: steady-state lag, failover time, re-seed time.

Runs a live primary/replica :class:`ServiceHandle` pair (the same
topology ``repro serve --replica`` deploys) and measures the three
numbers an operator sizes a hot standby by, printing the JSON result
and writing it to ``--out PATH`` when given (CI passes
``--out BENCH_replication.json`` and archives it):

* **steady-state lag** — a tenant streams committed ``ApplyOps``
  batches while the WAL shipper runs; replication lag (records and
  bytes behind the primary's WAL tip) is sampled after every write and
  the distribution plus the time from last write to full catch-up is
  recorded;
* **failover time** — the primary stops cold; the clock runs from the
  ``promote`` call to the *first successfully served write* on the
  promoted service (the operator-visible unavailability window,
  excluding detection time, which belongs to the deployment's prober);
* **re-seed time** — the replica's follower state is corrupted in
  place; the clock runs from the first post-corruption write until the
  shipper's divergence exchange has detected the mismatch, re-seeded
  from a fresh checkpoint, and restored digest equality.

Gates (CI fails on any):

* zero divergence during steady state — the digest exchanges that ran
  while both sides were healthy must all have matched (no re-seeds);
* bounded lag — after the stream stops, the replica fully catches up
  (lag reaches zero) within the catch-up timeout;
* failover works — the promoted service serves a write, its catalog
  digest equals the deposed primary's committed state, and the
  old spool is fenced;
* the injected divergence is detected, quarantined, auto re-seeded,
  and digest equality restored — never silently served.

Run:  python scripts/bench_replication.py [--batches N] [--quick] [--out PATH]
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.core.engine import Ringo  # noqa: E402
from repro.exceptions import FencedError  # noqa: E402
from repro.recovery.digest import catalog_digest  # noqa: E402
from repro.service import ServiceConfig, ServiceHandle  # noqa: E402

TENANT = "bench"


def percentile(samples, q):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def wait_until(predicate, timeout, interval=0.01):
    """Poll until true; returns elapsed seconds or None on timeout."""
    start = time.perf_counter()
    deadline = start + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return time.perf_counter() - start
        time.sleep(interval)
    return None


def tenant_state(handle):
    return handle.health()["replication"]["tenants"].get(TENANT) or {}


def run_benchmark(batches: int, catchup_timeout_s: float) -> dict:
    root = Path(tempfile.mkdtemp(prefix="bench-replication-"))
    replica = ServiceHandle(
        ServiceConfig(spool_dir=str(root / "replica"), role="replica",
                      tick_s=0.02)
    ).start()
    rhost, rport = replica.address
    primary = ServiceHandle(
        ServiceConfig(
            spool_dir=str(root / "primary"),
            replica_address=f"{rhost}:{rport}",
            ship_interval_s=0.02,
            digest_every_batches=4,
            tick_s=0.02,
        )
    ).start()

    # -- steady-state lag ------------------------------------------------
    table = primary.call(
        TENANT, "TableFromColumns",
        data={"a": list(range(64)), "b": [(i * 7 + 1) % 64 for i in range(64)]},
    )
    graph = primary.call(
        TENANT, "ToGraph", table={"$ref": table["$ref"]},
        src_col="a", dst_col="b",
    )
    lag_records_samples = []
    lag_bytes_samples = []
    write_started = time.perf_counter()
    for i in range(batches):
        primary.call(
            TENANT, "ApplyOps", graph={"$ref": graph["$ref"]},
            ops=[["add_edge", 1000 + i, 1001 + i],
                 ["add_edge", 2000 + i, 2001 + i]],
        )
        state = tenant_state(primary)
        lag_records_samples.append(state.get("lag_records", 0))
        lag_bytes_samples.append(state.get("lag_bytes", 0))
    write_window_s = time.perf_counter() - write_started
    tip = 2 + batches  # table + graph + one WAL record per ApplyOps call

    catchup_s = wait_until(
        lambda: tenant_state(primary).get("applied_lsn", 0) >= tip
        and tenant_state(primary).get("lag_records", 1) == 0,
        catchup_timeout_s,
    )
    steady = tenant_state(primary)
    steady_digest_equal = (
        primary.call(TENANT, "digest") == replica.call(TENANT, "digest")
    )

    # -- injected divergence -> detect, quarantine, auto re-seed ----------
    applier = replica.service.applier
    follower = applier.tenant(TENANT)
    with follower.lock:
        graph_name = [
            n for n in follower.session.Objects() if n.startswith("graph")
        ][0]
        follower.session.GetObject(graph_name).add_edge(999_999, 999_998)
    reseed_started = time.perf_counter()
    reseed_writes = 0
    reseed_s = None
    deadline = reseed_started + catchup_timeout_s
    while time.perf_counter() < deadline:
        primary.call(
            TENANT, "ApplyOps", graph={"$ref": graph["$ref"]},
            ops=[["add_edge", 5000 + reseed_writes, 5001 + reseed_writes]],
        )
        reseed_writes += 1
        state = tenant_state(primary)
        if state.get("reseeds", 0) >= 1 and state.get("lag_records", 1) == 0:
            reseed_s = time.perf_counter() - reseed_started
            break
        time.sleep(0.02)
    # The last write of the loop may still be in flight: wait for the
    # stream to fully drain before comparing catalogs.
    final_tip = tip + reseed_writes
    wait_until(
        lambda: tenant_state(primary).get("applied_lsn", 0) >= final_tip
        and tenant_state(primary).get("lag_records", 1) == 0,
        catchup_timeout_s,
    )
    reseed_state = tenant_state(primary)
    reseed_digest_equal = (
        primary.call(TENANT, "digest") == replica.call(TENANT, "digest")
    )

    # -- failover ---------------------------------------------------------
    reference_digest = primary.call(TENANT, "digest")
    primary.stop()
    failover_started = time.perf_counter()
    report = replica.call(
        TENANT, "promote", fence_spool=str(root / "primary")
    )
    replica.call(TENANT, "TableFromColumns", data={"post": [1, 2, 3]})
    failover_s = time.perf_counter() - failover_started
    promoted_digest_matches = (
        replica.call(TENANT, "digest_at")["digest"] != {}  # liveness
        and report["tenants"][TENANT]["epoch"] == report["epoch"]
    )
    # The pre-failover catalog must be reproduced exactly (the new table
    # was written after the reference digest was taken).
    promoted_digest = {
        name: value
        for name, value in replica.call(TENANT, "digest").items()
        if name in reference_digest
    }
    fenced = False
    try:
        revived = Ringo.recover(root / "primary" / TENANT, workers=1)
        with revived:
            try:
                revived.TableFromColumns({"zombie": [1]})
            except FencedError:
                fenced = True
    except FencedError:
        fenced = True
    replica.stop()

    return {
        "benchmark": "replication",
        "config": {
            "batches": batches,
            "ship_interval_s": 0.02,
            "digest_every_batches": 4,
            "catchup_timeout_s": catchup_timeout_s,
        },
        "steady_state": {
            "write_window_s": write_window_s,
            "writes_per_second": (2 + batches) / write_window_s,
            "lag_records": {
                "p50": percentile(lag_records_samples, 0.50),
                "p95": percentile(lag_records_samples, 0.95),
                "max": max(lag_records_samples, default=None),
            },
            "lag_bytes_max": max(lag_bytes_samples, default=None),
            "catchup_s": catchup_s,
            "digests_exchanged": steady.get("digests_exchanged", 0),
            "reseeds_during_steady_state": steady.get("reseeds", 0),
            "digest_equal": steady_digest_equal,
        },
        "reseed": {
            "detected_and_reseeded_s": reseed_s,
            "writes_until_reseed": reseed_writes,
            "reseeds": reseed_state.get("reseeds", 0),
            "digest_equal_after": reseed_digest_equal,
        },
        "failover": {
            "promote_to_first_served_write_s": failover_s,
            "epoch": report["epoch"],
            "drained_records": report["drained_records"],
            "adopted": report["adopted"],
            "epoch_consistent": promoted_digest_matches,
            "committed_state_preserved": promoted_digest == reference_digest,
            "old_primary_fenced": fenced,
        },
    }


def check(payload: dict) -> None:
    """The acceptance gates CI enforces."""
    steady = payload["steady_state"]
    assert steady["reseeds_during_steady_state"] == 0, (
        "divergence detected while both sides were healthy"
    )
    assert steady["catchup_s"] is not None, (
        "replica never fully caught up after the write stream stopped"
    )
    assert steady["digest_equal"], "steady-state digests diverged"
    reseed = payload["reseed"]
    assert reseed["detected_and_reseeded_s"] is not None, (
        "injected divergence was never detected + re-seeded"
    )
    assert reseed["digest_equal_after"], (
        "digest equality not restored after re-seed"
    )
    failover = payload["failover"]
    assert failover["committed_state_preserved"], (
        "promoted catalog does not match the primary's committed state"
    )
    assert failover["old_primary_fenced"], "deposed primary was not fenced"
    assert TENANT in failover["adopted"], "follower session was not adopted"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, default=200)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller stream for CI smoke (50 batches)",
    )
    parser.add_argument("--catchup-timeout-s", type=float, default=60.0)
    parser.add_argument("--out", type=Path, help="also write the JSON result here")
    args = parser.parse_args()
    batches = 50 if args.quick else args.batches

    payload = run_benchmark(batches, args.catchup_timeout_s)
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    try:
        check(payload)
    except AssertionError as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 1
    steady = payload["steady_state"]
    print(
        f"OK: lag p95 {steady['lag_records']['p95']} records over "
        f"{batches} write batches, catch-up "
        f"{steady['catchup_s'] * 1000:.0f} ms, re-seed "
        f"{payload['reseed']['detected_and_reseeded_s']:.2f} s, failover "
        f"{payload['failover']['promote_to_first_served_write_s'] * 1000:.0f}"
        f" ms to first served write"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
