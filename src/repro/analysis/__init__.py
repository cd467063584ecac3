"""repro.analysis — static analysis and runtime checking for the engine.

Three layers of correctness tooling (the pure-Python stand-in for the
safety the paper gets from a compiled SNAP back-end and OpenMP's
structured parallelism):

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` +
  :mod:`repro.analysis.flow_rules` — ringo-lint, an AST lint framework
  with single-module rules R001–R006 and interprocedural flow rules
  R008–R012 (powered by the :mod:`repro.analysis.callgraph` project
  call graph and the :mod:`repro.analysis.flow` per-function CFG),
  per-line ``# ringo-lint: disable=RXXX`` suppressions, and a
  checked-in baseline. Run with ``python -m repro.analysis src/`` or
  ``repro lint``.
* :mod:`repro.analysis.races` — an Eraser-style lockset race detector
  shadowing the concurrent containers and worker-pool dispatch, armed
  process-wide via ``races.enable()`` or the ``race_check()`` context
  manager; a detector reports its own counters via ``stats()``.
* :mod:`repro.analysis.sanitize` — a CSR snapshot sanitizer validating
  structural invariants after every conversion under ``RINGO_SANITIZE=1``.

Sanitizer counters surface in ``Ringo.health()["analysis"]``.
"""

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.flow import CFG, build_cfg
from repro.analysis.lint import (
    Finding,
    FlowRule,
    LintRule,
    Project,
    lint_paths,
    lint_source,
)
from repro.analysis.races import (
    Monitored,
    RaceDetector,
    TrackedLock,
    race_check,
)
from repro.analysis.sanitize import maybe_sanitize, sanitize_csr

__all__ = [
    "CFG",
    "CallGraph",
    "Finding",
    "FlowRule",
    "LintRule",
    "Monitored",
    "Project",
    "RaceDetector",
    "TrackedLock",
    "build_callgraph",
    "build_cfg",
    "lint_paths",
    "lint_source",
    "maybe_sanitize",
    "race_check",
    "sanitize_csr",
]
