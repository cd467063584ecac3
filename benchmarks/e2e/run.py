"""End-to-end benchmark runner.

One workload, one run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/e2e/run.py --workload pipeline --seed 2015 --seconds 15 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` measures the end-to-end metrics with the span
recorder off; ``--trace 1`` repeats the workload with every call into a
layer wrapped in a span and reports the per-layer metrics.

Without ``--workload`` every workload runs, untraced then traced, each in
a fresh subprocess (``--repeats N`` makes N untraced runs of each), and a
summary (``--out FILE`` keeps it for ``compare.py``) ends with
``"claim": null``: this benchmark claims no gain.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36
KILL_AFTER_S = 5.0


def child_pids() -> "list[int]":
    """Live or zombie processes whose parent is this process."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if len(fields) > 1 and fields[1] == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The program's process backend exports graphs through
    ``multiprocessing.shared_memory``, which starts a resource-tracker
    process that Python 3.11 never waits for: it outlives the run and is
    left to init as a zombie. It is stopped and reaped here. Anything
    else still alive (a server or pool worker after a failed run, or an
    orphan handed to this process as subreaper) gets SIGTERM, then
    SIGKILL, and is waited for.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - private API; the loop below still reaps it
        pass
    start = time.monotonic()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        late = time.monotonic() - start > KILL_AFTER_S
        for pid in child_pids():
            try:
                os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
            except ProcessLookupError:
                pass
        time.sleep(0.02)


def guard_processes() -> None:
    """Make sure no process outlives this one, on every path out of it.

    Registered before anything of the program is imported, so
    ``stop_children`` runs after every other exit hook (the program's
    shared-memory unlink among them). As child subreaper this process
    also inherits, and so can reap, the orphans of its own children.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    atexit.register(stop_children)
    # SIGTERM (a driver's time-out) leaves through sys.exit, so the hooks run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
# Run as a script, Python puts this directory first on sys.path, where
# trace.py would shadow the standard library's module of that name.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import check_manifest  # noqa: E402

ENV_PREFIXES = ("REPRO_", "RINGO_")


def pin_environment() -> None:
    """Drop every ambient knob of the program so it cannot move numbers.

    Worker counts, backends and durability are passed explicitly by the
    workloads; ``REPRO_*`` / ``RINGO_*`` (workers, backend, scale
    factor, trace, sanitize, race check, durability, incremental) are
    removed for this process and everything it starts.
    """
    for name in [n for n in os.environ if n.startswith(ENV_PREFIXES)]:
        del os.environ[name]


def work_dir(prefix: str) -> Path:
    """A fresh directory under the git-ignored ``.work/``; the caller removes it."""
    root = BENCH_DIR / ".work"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=root))


def run_workload(args: argparse.Namespace, manifest: dict) -> int:
    """Run one workload in this process; returns the exit code."""
    from benchmarks.e2e.common import WORKERS, Context
    from benchmarks.e2e.trace import NullRecorder, Recorder

    try:
        import repro  # noqa: F401 - fail before any set-up work
    except ImportError as error:
        print(f"cannot import the program under test from src/: {error}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    workdir = work_dir(args.workload)
    # Anything the program or its children write as "temporary" stays
    # inside the checkout too.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    recorder = Recorder() if traced else NullRecorder()
    ctx = Context(
        seed=args.seed, seconds=float(args.seconds), workdir=workdir,
        recorder=recorder, quick=args.quick,
    )
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={int(traced)} workers={WORKERS} nproc={os.cpu_count()}"
    )
    try:
        module = importlib.import_module(f"benchmarks.e2e.wl_{args.workload}")
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        results = BENCH_DIR / "results"
        results.mkdir(exist_ok=True)
        recorder.write(results / f"trace-{args.workload}.jsonl")

    section = manifest["per_layer" if traced else "end_to_end"]
    values = outcome.per_layer if traced else outcome.end_to_end
    undeclared = sorted(set(values) - {entry["name"] for entry in section})
    metrics = {}
    for entry in section:
        measured = entry["name"] in values
        # Every run prints every declared metric; a layer the workload
        # never enters reports 0.
        value = float(values[entry["name"]]) if measured else 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        note = "" if measured else "   (not measured on this workload)"
        print(f"{entry['name']:<36} {value:>16.6f} {entry['unit']}{note}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {value}")
    problems = [f"emitted metric {name} is not declared" for name in undeclared]
    problems += check_manifest.emission_errors(manifest, traced, metrics)
    for line in (*problems, *outcome.failures[:20]):
        print(f"FAILED: {line}", file=sys.stderr)

    result = {
        "correct": not outcome.failures and not problems,
        "attempted": max(1, outcome.attempted),
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
    if args.out:
        detail = dict(
            result, workload=args.workload, seed=args.seed, trace=int(traced),
            measured=sorted(values), notes=outcome.notes,
            failures=outcome.failures[:20],
        )
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, manifest: dict) -> int:
    """Every workload, untraced (``--repeats`` times) then traced, each run
    in its own subprocess."""
    names = [entry["name"] for entry in manifest["workloads"]]
    runs = []
    status = 0
    scratch = work_dir("all")
    try:
        for name in names:
            for index, trace in enumerate([0] * args.repeats + [1]):
                out = scratch / f"{name}-{index}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(out),
                ] + (["--quick"] if args.quick else [])
                code = subprocess.run(command, cwd=ROOT).returncode
                status = status or code
                if out.exists():
                    runs.append(json.loads(out.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = {
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "repeats": args.repeats, "runs": runs, "claim": None,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "workloads": names,
        "failed": sum(r["failed"] for r in runs),
        "correct": status == 0 and len(runs) == (args.repeats + 1) * len(names),
        "claim": None,
    }))
    return status


def main(argv: "list[str] | None" = None) -> int:
    guard_processes()
    manifest = check_manifest.load()
    problems = check_manifest.errors(manifest)
    if problems:
        for line in problems:
            print(f"BENCHMARK.json: {line}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default=None,
        choices=[entry["name"] for entry in manifest["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one set-up (the smoke test's mode)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload when running them all")
    parser.add_argument("--out", default=None, help="also write the result as JSON here")
    args = parser.parse_args(argv)
    pin_environment()
    if args.workload is None:
        return run_all(args, manifest)
    return run_workload(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
