"""Two tenants sharing one session service: the multi-tenant walkthrough.

Starts the service in-process (the same server ``repro serve`` runs),
then drives two tenants over real TCP connections:

* ``alice`` and ``bob`` each load their own edge table, build a graph,
  and rank it — two isolated catalogs on one machine;
* ``alice`` is evicted to her checkpoint while idle and transparently
  revived by her next request (resident sessions << known sessions);
* a deliberately tiny deadline shows a typed, on-time expiry instead of
  a stuck client;
* the drain checkpoints both sessions, and the spool alone is then
  enough to verify nothing committed was lost.

Run:  python examples/service_client.py [spool-dir]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro import Ringo
from repro.recovery import catalog_digest
from repro.service import ServiceClient, ServiceConfig, ServiceHandle

SCHEMA = [["src", "int"], ["dst", "int"]]


def write_edges(path: Path, n: int, stride: int) -> str:
    with open(path, "w") as fh:
        for i in range(n):
            fh.write(f"{i}\t{(i * stride + 1) % n}\n")
    return str(path)


def tenant_workload(client: ServiceClient, edges: str) -> dict:
    table = client.call("LoadTableTSV", path=edges, schema=SCHEMA)
    graph = client.call(
        "ToGraph", table={"$ref": table["$ref"]}, src_col="src", dst_col="dst"
    )
    ranks = client.call("GetPageRank", graph={"$ref": graph["$ref"]})
    top = max(ranks, key=ranks.get)
    print(
        f"  [{client.tenant}] {graph['nodes']} nodes, {graph['edges']} edges; "
        f"top PageRank node {top} ({ranks[top]:.4f})"
    )
    return client.call("digest")


def main() -> None:
    spool = Path(
        sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="ringo-svc-")
    )
    data = Path(tempfile.mkdtemp(prefix="ringo-data-"))
    alice_edges = write_edges(data / "alice.tsv", 20_000, 7)
    bob_edges = write_edges(data / "bob.tsv", 300, 11)

    config = ServiceConfig(
        spool_dir=str(spool),
        global_budget_bytes=256 << 20,
        default_tenant_budget_bytes=64 << 20,
        idle_evict_s=0.5,
        tick_s=0.05,
    )
    handle = ServiceHandle(config).start()
    host, port = handle.address
    print(f"Service listening on {host}:{port} (spool: {spool})")

    with ServiceClient(host, port, tenant="alice") as alice, \
            ServiceClient(host, port, tenant="bob") as bob:
        print("Running both tenant workloads:")
        alice_digest = tenant_workload(alice, alice_edges)
        bob_digest = tenant_workload(bob, bob_edges)

        # Pipeline a slow request with a 1 ms probe queued behind it:
        # the probe cannot start in time, so the service answers it
        # with a typed expiry within a tick instead of running it late.
        slow = alice.send("GetBfsLevels", graph={"$ref": "graph-2"}, source=0)
        probe = alice.send("digest", deadline_ms=1)
        envelope = alice.wait(probe)
        kind = envelope["error"]["type"] if not envelope["ok"] else "ok"
        print(f"1 ms-deadline probe queued behind a slow request: {kind}")
        alice.wait(slow)

        # Idle long enough and alice is evicted to her checkpoint...
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            tenants = handle.health()["service"]["tenants"]
            if not tenants["alice"]["resident"]:
                break
            time.sleep(0.05)
        health = handle.health()["service"]
        print(
            f"Resident sessions: {health['resident_sessions']} of "
            f"{health['known_sessions']} known "
            f"(alice evicted: {not health['tenants']['alice']['resident']})"
        )

        # ...and her next request revives the session transparently.
        assert alice.call("digest") == alice_digest, "revival changed the catalog"
        revivals = handle.health()["service"]["tenants"]["alice"]["revivals"]
        print(f"Alice revived from checkpoint (revivals: {revivals}); "
              f"catalog digest unchanged")

    report = handle.stop()
    print(
        f"Drained: {report['checkpointed']} session(s) checkpointed, "
        f"{report['checkpoint_failures']} failure(s)"
    )

    # The service is gone; the spool alone reconstructs both catalogs.
    for tenant, digest in (("alice", alice_digest), ("bob", bob_digest)):
        with Ringo.recover(spool / tenant, workers=1) as revived:
            assert catalog_digest(revived) == digest, tenant
    print("Spool verified: both tenant catalogs identical after drain")


if __name__ == "__main__":
    main()
