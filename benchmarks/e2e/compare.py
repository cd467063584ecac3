"""Repeatability report for two complete result sets of the same commit.

    python3 benchmarks/e2e/compare.py results/verify-A.json results/verify-B.json

Each file is what ``run.py --repeats N --out FILE`` (no ``--workload``)
wrote. Prints, one row per workload and end-to-end metric, each set's
median, their relative difference and the metric's bound from
``BENCHMARK.json``. A pair further
apart than its bound is marked *unresolved*: the bound is narrower than
the run-to-run noise, so a later comparison on that metric could not tell
a regression from noise. Exits 1 if any row is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import check_manifest  # noqa: E402


def untraced(path: str) -> dict:
    """``{workload: {metric: median}}`` over a result set's untraced runs."""
    summary = json.loads(Path(path).read_text(encoding="utf-8"))
    samples: dict = {}
    for run in summary["runs"]:
        if run["trace"] == 0:
            for name, metric in run["metrics"].items():
                samples.setdefault(run["workload"], {}).setdefault(name, []).append(
                    metric["value"]
                )
    return {
        workload: {name: statistics.median(values) for name, values in metrics.items()}
        for workload, metrics in samples.items()
    }


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = untraced(argv[0]), untraced(argv[1])
    manifest = check_manifest.load()
    unresolved = 0
    print(f"{'workload':<10} {'metric':<12} {'A':>14} {'B':>14} {'diff':>8} {'bound':>6}")
    for workload in (entry["name"] for entry in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[workload][name], second[workload][name]
            diff = abs(b - a) / a
            mark = ""
            if diff > bound:
                mark = "  *unresolved*"
                unresolved += 1
            print(
                f"{workload:<10} {name:<12} {a:>14.3f} {b:>14.3f} "
                f"{diff:>7.1%} {bound:>6.0%}{mark}"
            )
    print(f"{unresolved} unresolved")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
