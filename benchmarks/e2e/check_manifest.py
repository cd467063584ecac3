"""Validate ``BENCHMARK.json`` against the builder contract.

``errors(manifest)`` checks the file's shape; ``emission_errors`` checks
that a run printed exactly the metrics the manifest declares for its
trace mode. ``run.py`` calls both on every run, so a manifest that
drifts from what the benchmark emits fails loudly instead of being
rejected later as ``manifest_invalid``.

Run directly to validate the file:  python3 benchmarks/e2e/check_manifest.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MANIFEST_PATH = ROOT / "BENCHMARK.json"
BENCH_DIR = "benchmarks/e2e"

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
MAX_BOUND = 0.25
TOTAL_BUDGET_S = 3420


def load() -> dict:
    return json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))


def _metric_errors(entry, keys: set, where: str) -> list[str]:
    if not isinstance(entry, dict) or set(entry) != keys:
        return [f"{where}: keys must be exactly {sorted(keys)}"]
    found = []
    if not (isinstance(entry["name"], str) and NAME.match(entry["name"])):
        found.append(f"{where}: bad name {entry['name']!r}")
    if not (isinstance(entry["unit"], str) and UNIT.match(entry["unit"])):
        found.append(f"{where}: bad unit {entry['unit']!r}")
    if entry["better"] not in ("lower", "higher"):
        found.append(f"{where}: better must be 'lower' or 'higher'")
    if "bound" in keys:
        bound = entry["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            found.append(f"{where}: bound must be a number")
        elif not 0 < bound <= MAX_BOUND:
            found.append(f"{where}: bound {bound} outside (0, {MAX_BOUND}]")
    return found


def errors(manifest: dict) -> list[str]:
    """Every way ``manifest`` departs from the contract (empty = valid)."""
    if not isinstance(manifest, dict) or set(manifest) != KEYS:
        return [f"top-level keys must be exactly {sorted(KEYS)}"]
    found = []
    if MANIFEST_PATH.exists() and MANIFEST_PATH.stat().st_size > 64 * 1024:
        found.append("file is larger than 64 KiB")

    command = manifest["command"]
    if not (
        isinstance(command, list) and 1 <= len(command) <= 32
        and all(isinstance(part, str) and len(part) <= 200 for part in command)
    ):
        found.append("command: 1-32 strings of at most 200 characters")
    else:
        for part in command:
            if part.startswith("/") or ".." in part.split("/"):
                found.append(f"command: {part!r} is absolute or leaves the repo")
            if "/" in part and not part.startswith(BENCH_DIR + "/"):
                found.append(f"command: {part!r} names a file outside paths")

    if manifest["paths"] != [BENCH_DIR]:
        found.append(f"paths must be exactly [{BENCH_DIR!r}]")

    seconds = manifest["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) or not 1 <= seconds <= 60:
        found.append("run_seconds: a whole number from 1 to 60")
        seconds = 0

    workloads = manifest["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        found.append("workloads: 2 to 8 entries")
        workloads = []
    # The driver makes 4 + 22 x workloads runs; the measuring alone must fit.
    if (4 + 22 * len(workloads)) * seconds >= TOTAL_BUDGET_S:
        found.append(f"run_seconds x runs does not fit in {TOTAL_BUDGET_S} s")
    for index, entry in enumerate(workloads):
        where = f"workloads[{index}]"
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            found.append(f"{where}: keys must be exactly name and why")
            continue
        if not (isinstance(entry["name"], str) and NAME.match(entry["name"])):
            found.append(f"{where}: bad name {entry['name']!r}")
        why = entry["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            found.append(f"{where}: why must be one line of at most 200 characters")

    end_to_end, per_layer = manifest["end_to_end"], manifest["per_layer"]
    if not (isinstance(end_to_end, list) and 1 <= len(end_to_end) <= 16):
        found.append("end_to_end: 1 to 16 metrics")
        end_to_end = []
    if not (isinstance(per_layer, list) and 1 <= len(per_layer) <= 128):
        found.append("per_layer: 1 to 128 metrics")
        per_layer = []
    for index, entry in enumerate(end_to_end):
        found += _metric_errors(
            entry, {"name", "unit", "better", "bound"}, f"end_to_end[{index}]"
        )
    for index, entry in enumerate(per_layer):
        found += _metric_errors(entry, {"name", "unit", "better"}, f"per_layer[{index}]")
    if found:
        return found

    setup = [entry for entry in end_to_end if entry["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        found.append("end_to_end must hold setup_s with unit s, better lower")
    names = [
        entry["name"] for entry in (*workloads, *end_to_end, *per_layer)
    ]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        found.append(f"names used more than once: {repeated}")
    return found


def emission_errors(manifest: dict, traced: bool, metrics: dict) -> list[str]:
    """Declared-but-missing, undeclared, unitless or zero-valued metrics."""
    section = manifest["per_layer" if traced else "end_to_end"]
    declared = {entry["name"]: entry["unit"] for entry in section}
    found = [f"declared metric {name} was not emitted" for name in declared if name not in metrics]
    for name, value in metrics.items():
        if name not in declared:
            found.append(f"emitted metric {name} is not declared")
        elif value["unit"] != declared[name]:
            found.append(f"{name}: unit {value['unit']!r} != declared {declared[name]!r}")
        elif not traced and not value["value"] > 0:
            found.append(f"end-to-end metric {name} must never be 0")
    return found


def main() -> int:
    found = errors(load())
    for line in found:
        print(f"BENCHMARK.json: {line}", file=sys.stderr)
    if not found:
        print("BENCHMARK.json: valid")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
