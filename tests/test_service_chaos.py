"""The chaos acceptance test: many tenants, seeded faults, exact answers.

Eight workload tenants plus one flood tenant hammer one service while
``service.*`` and ``recovery.*`` fault sites are armed with a fixed
seed. The contract under all of that:

* every non-shed, non-expired request completes *correctly* — each
  tenant's final catalog digest equals a reference session that ran the
  same operations with no service and no faults;
* no request outlives its deadline by more than one scheduler tick
  (plus measurement slack for thread wakeups — the server-side bound is
  the tick);
* shed requests get typed ``RequestRejected`` responses, expired ones
  typed ``DeadlineExceededError`` responses — never silence;
* the drain loses zero committed state: every tenant's spool alone
  reconstructs its final digest after the service is gone.
"""

import threading
import time

import pytest

from repro.core.engine import Ringo
from repro.exceptions import InjectedFaultError
from repro.faults import inject_faults
from repro.parallel.resilience import RetryPolicy
from repro.recovery.digest import catalog_digest
from repro.service import ServiceConfig, ServiceHandle
from repro.service.session import dispatch_engine

SCHEMA = [["src", "int"], ["dst", "int"]]
TENANTS = [f"tenant-{n}" for n in range(8)]
TICK_S = 0.05
# Client-side wall-clock slack on top of the one-tick contract: thread
# wakeup and envelope delivery, not server lateness.
MEASUREMENT_SLACK_S = 0.45

#: The mutation script every workload tenant runs (and the reference
#: replays). Only these publish; chaos traffic is read-only.
PREDICATES = ["src<40", "dst>5", "src>10"]


@pytest.fixture(scope="module")
def edges_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "edges.tsv"
    with open(path, "w") as fh:
        for i in range(60):
            fh.write(f"{i}\t{(i * 13 + 7) % 60}\n")
    return str(path)


def reference_digest(base_dir, edges_tsv):
    """The workload with no service and no faults: ground truth."""
    with Ringo(workers=1, durability=base_dir / "reference") as ringo:
        table = ringo.LoadTableTSV(SCHEMA, edges_tsv)
        graph = ringo.ToGraph(table, "src", "dst")
        ringo.GetPageRank(graph)
        for predicate in PREDICATES:
            ringo.Select(table, predicate)
        return catalog_digest(ringo)


class Driver:
    """One tenant's client thread: mutations, probes, bookkeeping."""

    def __init__(self, handle, tenant):
        self.handle = handle
        self.tenant = tenant
        self.final_digest = None
        self.deadline_violations = []
        self.unexpected = []
        self._counter = 0

    def _submit(self, op, args=None, deadline_ms=None):
        self._counter += 1
        raw = {
            "id": f"{self.tenant}-{self._counter}",
            "tenant": self.tenant,
            "op": op,
            "args": args or {},
        }
        if deadline_ms is not None:
            raw["deadline_ms"] = deadline_ms
        started = time.monotonic()
        envelope = self.handle.submit(raw, timeout=120.0)
        elapsed = time.monotonic() - started
        if deadline_ms is not None:
            budget = deadline_ms / 1000.0 + TICK_S + MEASUREMENT_SLACK_S
            if elapsed > budget:
                self.deadline_violations.append((raw["id"], elapsed, budget))
        return envelope

    def call_until_done(self, op, args=None):
        """A mutation: retry retryable envelopes until it commits.

        Under admission contention (more active tenants than the ledger
        fits) a tenant can be denied residency many times in a row, so
        the budget here is generous — the contract is *eventual* exact
        completion, not first-try completion.
        """
        for attempt in range(60):
            envelope = self._submit(op, args)
            if envelope["ok"]:
                return envelope["result"]
            if not envelope["error"]["retryable"]:
                break
            time.sleep(min(0.01 * (attempt + 1), 0.1))
        self.unexpected.append((op, envelope["error"]))
        return None

    def probe(self, op, deadline_ms):
        """A read under a deadline: success, expiry, or shed are all
        acceptable — anything else is a contract breach."""
        envelope = self._submit(op, deadline_ms=deadline_ms)
        if envelope["ok"]:
            return
        kind = envelope["error"]["type"]
        if kind in (
            "DeadlineExceededError", "RequestRejected",
            "InjectedFaultError", "AdmissionContention",
        ):
            return  # typed, expected chaos outcomes
        self.unexpected.append((op, envelope["error"]))

    def run(self, edges_tsv):
        try:
            table = self.call_until_done(
                "LoadTableTSV", {"path": edges_tsv, "schema": SCHEMA}
            )
            graph = self.call_until_done(
                "ToGraph",
                {"table": {"$ref": table["$ref"]},
                 "src_col": "src", "dst_col": "dst"},
            )
            self.call_until_done(
                "GetPageRank", {"graph": {"$ref": graph["$ref"]}}
            )
            self.probe("digest", deadline_ms=40)
            for predicate in PREDICATES:
                self.call_until_done(
                    "Select",
                    {"table": {"$ref": table["$ref"]}, "predicate": predicate},
                )
                self.probe("objects", deadline_ms=60)
            self.final_digest = self.call_until_done("digest")
        except Exception as error:  # pragma: no cover - contract breach
            self.unexpected.append(("driver", repr(error)))


def flood(handle, results, barrier):
    """One flood thread: a read against a saturated 4-deep queue."""
    barrier.wait()
    envelope = handle.submit(
        {"id": f"flood-{threading.get_ident()}", "tenant": "flood",
         "op": "digest", "args": {}, "deadline_ms": 700},
        timeout=120.0,
    )
    results.append(envelope)


def test_chaos_eight_tenants_under_seeded_faults(tmp_path, edges_tsv):
    spool = tmp_path / "spool"
    config = ServiceConfig(
        spool_dir=str(spool),
        global_budget_bytes=320 << 20,  # < 9 x 64 MiB: real eviction pressure
        default_tenant_budget_bytes=64 << 20,
        max_queue_depth=4,
        default_deadline_s=60.0,
        tick_s=TICK_S,
        idle_evict_s=0.25,  # sessions churn through evict/revive mid-run
    )
    handle = ServiceHandle(config).start()
    drivers = [Driver(handle, tenant) for tenant in TENANTS]
    flood_results: list = []
    try:
        # A call gets four dispatch attempts, so a stream that fires four
        # times running exhausts it. ``service.dispatch`` draws from one
        # stream per tenant, and a tenant runs one request at a time, so
        # a call's attempts are consecutive draws of its tenant's stream:
        # with this seed no tenant's stream (flood's included) fires more
        # than three times running in its first 300 draws.
        with inject_faults(
            {
                "service.accept": 0.03,
                "service.dispatch": 0.08,
                "service.evict": 0.25,
                "recovery.checkpoint.write": 0.10,
            },
            seed=2035,
        ) as plan:
            threads = [
                threading.Thread(target=driver.run, args=(edges_tsv,))
                for driver in drivers
            ]
            for thread in threads:
                thread.start()

            # The flood tenant saturates its 4-deep queue from 24 threads.
            flood_driver = Driver(handle, "flood")
            flood_driver.call_until_done(
                "LoadTableTSV", {"path": edges_tsv, "schema": SCHEMA}
            )
            barrier = threading.Barrier(24)
            flooders = [
                threading.Thread(
                    target=flood, args=(handle, flood_results, barrier)
                )
                for _ in range(24)
            ]
            for thread in flooders:
                thread.start()
            for thread in flooders:
                thread.join()
            for thread in threads:
                thread.join()
            triggered = plan.triggered

        # The chaos actually happened.
        assert triggered["service.dispatch"] > 0
        assert triggered["service.evict"] > 0

        # Typed outcomes only, and the queue really shed.
        shed = [
            e for e in flood_results
            if not e["ok"] and e["error"]["type"] == "RequestRejected"
        ]
        expired = [
            e for e in flood_results
            if not e["ok"] and e["error"]["type"] == "DeadlineExceededError"
        ]
        completed = [e for e in flood_results if e["ok"]]
        other = [
            e for e in flood_results
            if not e["ok"]
            and e["error"]["type"]
            not in ("RequestRejected", "DeadlineExceededError",
                    "InjectedFaultError", "AdmissionContention")
        ]
        assert len(shed) >= 1, flood_results
        assert other == []
        assert len(shed) + len(expired) + len(completed) <= len(flood_results)
        for envelope in shed:
            assert "shed" in envelope["error"]["message"]

        # Every non-shed request completed *correctly*: digests match a
        # reference session that never saw the service or the faults.
        expected = reference_digest(tmp_path, edges_tsv)
        for driver in drivers:
            assert driver.unexpected == [], driver.unexpected
            assert driver.final_digest == expected, driver.tenant

        # The one-tick deadline contract held for every probed request.
        violations = [
            v for driver in drivers + [flood_driver]
            for v in driver.deadline_violations
        ]
        assert violations == []

        # Sessions were genuinely swapped during the run, not all-resident.
        health = handle.health()["service"]
        assert health["known_sessions"] == 9
        evictions = sum(
            t["evictions"] for t in health["tenants"].values()
        )
        assert evictions > 0
        final_digests = {
            driver.tenant: driver.final_digest for driver in drivers
        }
    finally:
        report = handle.stop()

    # Drain loses zero committed state: each spool alone reconstructs
    # the tenant's final catalog, service long gone.
    assert report is not None and report["rejected"] == 0
    for tenant, digest in final_digests.items():
        with Ringo.recover(spool / tenant, workers=1) as revived:
            assert catalog_digest(revived) == digest, tenant


def test_a_tenants_dispatch_faults_ignore_other_tenants_draws():
    """Which attempts of a tenant's requests meet an injected
    ``service.dispatch`` fault depends only on that tenant's own
    requests, not on how many draws other tenants' threads made first."""
    policy = RetryPolicy(max_attempts=4, base_delay=0.0)

    def attempts_per_request(foreign_draws):
        with Ringo(workers=1) as session:
            with inject_faults({"service.dispatch": 0.3}, seed=2035):
                for _ in range(foreign_draws):
                    try:
                        dispatch_engine(session, "other", "objects", {}, False, (0, 0))
                    except InjectedFaultError:
                        pass
                attempts = []
                for _ in range(12):
                    retries = []
                    try:
                        dispatch_engine(
                            session, "alice", "objects", {}, False, (0, 0),
                            policy, on_retry=lambda n, e: retries.append(n),
                        )
                        attempts.append(len(retries) + 1)
                    except Exception as error:
                        attempts.append(type(error).__name__)
                return attempts

    alone = attempts_per_request(0)
    assert max(a for a in alone if isinstance(a, int)) > 1  # faults did fire
    for foreign_draws in (1, 2, 3, 5, 8):
        assert attempts_per_request(foreign_draws) == alone, foreign_draws
