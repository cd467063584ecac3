"""Smoke test of the benchmark itself (run explicitly; not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

``--quick`` shrinks the inputs and sets up once; every workload still
runs every correctness check, untraced and traced, in a subprocess of
its own — exactly how the driver invokes it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import check_manifest  # noqa: E402

MANIFEST = check_manifest.load()
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


def run_quick(workload: str, trace: int, out: Path) -> dict:
    process = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--quick",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    last_line = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True and last_line["failed"] == 0
    assert last_line["attempted"] >= 1
    assert not check_manifest.emission_errors(MANIFEST, bool(trace), last_line["metrics"])
    return json.loads(out.read_text(encoding="utf-8"))


def test_manifest_is_valid():
    assert check_manifest.errors(MANIFEST) == []


@pytest.mark.parametrize(
    "broken",
    [
        lambda m: m.pop("paths"),
        lambda m: m.update(claim=None),
        lambda m: m["end_to_end"][0].update(bound=0.5),
        lambda m: m["end_to_end"].pop(0),  # setup_s is first
        lambda m: m["per_layer"][0].update(name="bad name"),
        lambda m: m["command"].append("scripts/bench_service.py"),
        lambda m: m["workloads"].append(dict(m["workloads"][0])),
    ],
)
def test_manifest_checker_rejects(broken):
    manifest = json.loads(json.dumps(MANIFEST))
    broken(manifest)
    assert check_manifest.errors(manifest)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload, tmp_path):
    detail = run_quick(workload, 0, tmp_path / "out.json")
    assert all(m["value"] > 0 for m in detail["metrics"].values())


def test_traced_runs_cover_every_per_layer_metric(tmp_path):
    measured = set()
    for workload in WORKLOADS:
        detail = run_quick(workload, 1, tmp_path / f"{workload}.json")
        measured.update(detail["measured"])
        metrics = detail["metrics"]
        assert metrics["bench.trace_overhead_frac"]["value"] < 0.05
        assert metrics["bench.lap_coverage_frac"]["value"] >= 0.90
        assert (BENCH_DIR / "results" / f"trace-{workload}.jsonl").exists()
    declared = {entry["name"] for entry in MANIFEST["per_layer"]}
    # Percentiles that need >= 100 samples are not reached in 2 s.
    needs_long_run = {"e2e.lap_p90_ms", "e2e.read_p95_ms", "e2e.write_p90_ms"}
    assert declared - measured <= needs_long_run
