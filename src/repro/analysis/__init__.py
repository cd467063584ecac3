"""repro.analysis — static analysis and runtime checking for the engine.

Two layers of correctness tooling (the pure-Python stand-in for the
safety the paper gets from a compiled SNAP back-end and OpenMP's
structured parallelism):

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` +
  :mod:`repro.analysis.flow_rules` — ringo-lint, an AST lint framework
  with single-module rules R001–R004, R006 and interprocedural flow rules
  R008–R012 (powered by the :mod:`repro.analysis.callgraph` project
  call graph and the :mod:`repro.analysis.flow` per-function CFG) and
  per-line ``# ringo-lint: disable=RXXX`` suppressions. Run with
  ``python -m repro.analysis src/`` or ``repro lint``. Import the
  submodules directly: this package does not load the lint engine, so
  ``import repro`` does not pay for it.
* :mod:`repro.analysis.sanitize` — a CSR snapshot sanitizer validating
  structural invariants after every conversion under ``RINGO_SANITIZE=1``.

Sanitizer counters surface in ``Ringo.health()["analysis"]``.
"""

from repro.analysis.sanitize import maybe_sanitize, sanitize_csr

__all__ = [
    "maybe_sanitize",
    "sanitize_csr",
]
