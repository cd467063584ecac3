"""ringo-lint — the project-specific AST lint framework.

PRs 1–2 made correctness depend on cross-cutting conventions (every
structural mutation bumps the graph version, every kernel reaches CSR
through the snapshot cache, fault sites are registered strings, locks
are released on every path). The paper's back-end gets this safety from
a compiled C++ library and OpenMP's structured parallelism; a
pure-Python reproduction has to enforce its conventions itself. This
module is the enforcement framework:

* **rules** — each check is a :class:`LintRule` with a stable ``RXXX``
  code, registered in :data:`RULES` (see :mod:`repro.analysis.rules`
  for the single-module rules R001–R006 and
  :mod:`repro.analysis.flow_rules` for the interprocedural rules
  R008–R012, which subclass :class:`FlowRule` and see the whole
  :class:`Project` — call graph and CFGs included — at once);
* **suppressions** — a ``# ringo-lint: disable=RXXX`` comment on (or
  immediately above) a line silences matching findings there, so a
  deliberate exception is visible and justified in the source. A
  suppression that silences nothing is itself reported (advisory
  ``W001``) so the inventory cannot rot;
* **baseline** — a checked-in file of known findings lets the lint gate
  fail only on *new* violations while legacy ones are burned down. The
  shipped baseline is empty and CI keeps it that way
  (:func:`stale_baseline_keys` reports entries no finding matches);
* **parse failures** — an unparseable file is reported as a synthetic
  ``E000`` error finding at the parse-error location instead of
  crashing the whole run.

Run it as ``python -m repro.analysis src/`` or ``repro lint src/``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.exceptions import AnalysisError

SEVERITY_ERROR = "error"
SEVERITY_ADVISORY = "advisory"

#: Synthetic finding codes emitted by the framework itself (not rules).
CODE_PARSE_ERROR = "E000"
CODE_UNUSED_SUPPRESSION = "W001"

_DISABLE_RE = re.compile(r"ringo-lint:\s*disable=([A-Za-z0-9_,\s]+|all)")


@dataclass
class Finding:
    """One lint violation: where, what, and how severe."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    symbol: str = "<module>"
    severity: str = SEVERITY_ERROR
    suppressed: bool = False
    baselined: bool = False

    @property
    def key(self) -> str:
        """Line-number-free identity used for baseline matching.

        Keyed on ``(code, path, enclosing symbol)`` so a baselined
        finding survives unrelated edits that shift line numbers, while
        a new violation in a different function is still caught.
        """
        return f"{self.code}|{Path(self.path).as_posix()}|{self.symbol}"

    def format(self) -> str:
        """Render as a one-line ``path:line: code message`` report."""
        tag = "" if self.severity == SEVERITY_ERROR else " (advisory)"
        return f"{self.path}:{self.line}:{self.col}: {self.code}{tag} {self.message}"


class ModuleUnit:
    """One parsed module handed to every rule: source, AST, and helpers."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as err:
            raise AnalysisError(f"cannot parse {path}: {err}") from err
        self.suppressions = _parse_suppressions(source)
        # (line, code) pairs whose suppression actually silenced a
        # finding — the complement feeds the W001 unused report.
        self.used_suppressions: set[tuple[int, str]] = set()
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._scopes = _scope_spans(self.tree)

    @property
    def parts(self) -> tuple[str, ...]:
        """Normalised path components (for path-scoped rules)."""
        return Path(self.path).parts

    def parent(self, node: ast.AST) -> "ast.AST | None":
        """The AST parent of ``node`` (None for the module root)."""
        return self._parents.get(node)

    def qualname_at(self, node: ast.AST) -> str:
        """Dotted name of the innermost class/function enclosing ``node``."""
        line = getattr(node, "lineno", 0)
        best = "<module>"
        best_span = None
        for start, end, qualname in self._scopes:
            if start <= line <= end and (best_span is None or start >= best_span):
                best, best_span = qualname, start
        return best

    def is_suppressed(self, code: str, line: int) -> bool:
        """Whether a ``disable=`` comment covers ``code`` at ``line``."""
        for candidate in (line, line - 1):
            codes = self.suppressions.get(candidate)
            if codes and ("all" in codes or code in codes):
                # A comment on the preceding line only applies if that
                # line holds nothing but the comment.
                if candidate == line or self._comment_only(candidate):
                    matched = "all" if "all" in codes and code not in codes else code
                    self.used_suppressions.add((candidate, matched))
                    return True
        return False

    def unused_suppressions(self) -> "list[tuple[int, str]]":
        """``(line, code)`` pairs whose ``disable=`` silenced nothing."""
        unused: list[tuple[int, str]] = []
        for line, codes in sorted(self.suppressions.items()):
            if ("all" in codes and (line, "all") in self.used_suppressions):
                continue
            for code in sorted(codes):
                if (line, code) not in self.used_suppressions:
                    unused.append((line, code))
        return unused

    def _comment_only(self, line: int) -> bool:
        lines = self.source.splitlines()
        if 1 <= line <= len(lines):
            return lines[line - 1].lstrip().startswith("#")
        return False


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> set of rule codes disabled by a comment there."""
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DISABLE_RE.search(token.string)
            if match is None:
                continue
            spec = match.group(1)
            codes = (
                {"all"}
                if spec.strip() == "all"
                else {code.strip() for code in spec.split(",") if code.strip()}
            )
            out.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass
    return out


def _scope_spans(tree: ast.Module) -> list[tuple[int, int, str]]:
    """``(start_line, end_line, qualname)`` for every class/function."""
    spans: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                spans.append((child.lineno, child.end_lineno or child.lineno, qualname))
                visit(child, f"{qualname}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


class LintRule:
    """Base class for one check: a code, a severity, and ``check()``."""

    code = "R000"
    name = "unnamed"
    severity = SEVERITY_ERROR
    description = ""

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        """Yield findings for one module; implemented by subclasses."""
        raise NotImplementedError

    def finding(
        self, unit: ModuleUnit, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` with this rule's metadata."""
        return Finding(
            code=self.code,
            message=message,
            path=unit.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            symbol=unit.qualname_at(node),
            severity=self.severity,
        )


class Project:
    """Every parsed module of one lint run, plus its lazy call graph.

    Handed to :class:`FlowRule` subclasses, which need to see across
    module boundaries. The call graph (and through it every per-function
    CFG) is built once on first use and shared by all flow rules.
    """

    def __init__(self, units: "Iterable[ModuleUnit]") -> None:
        self.units = list(units)
        self._by_path = {unit.path: unit for unit in self.units}
        self._callgraph = None

    @property
    def callgraph(self):
        """The shared :class:`repro.analysis.callgraph.CallGraph`."""
        if self._callgraph is None:
            from repro.analysis.callgraph import build_callgraph

            self._callgraph = build_callgraph(self.units)
        return self._callgraph

    def unit_for(self, path: str) -> "ModuleUnit | None":
        return self._by_path.get(path)


class FlowRule(LintRule):
    """Base class for interprocedural rules: sees the whole project.

    A ``FlowRule`` implements :meth:`check_project` instead of
    :meth:`check`; the driver runs it once per lint invocation over a
    :class:`Project` built from every file in scope, then applies
    per-file suppressions to whatever it yields.
    """

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield findings for the whole project; implemented by subclasses."""
        raise NotImplementedError

    def project_finding(
        self, project: Project, path: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` in the file at ``path``."""
        unit = project.unit_for(path)
        return Finding(
            code=self.code,
            message=message,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            symbol=unit.qualname_at(node) if unit is not None else "<module>",
            severity=self.severity,
        )


#: The rule registry: code -> rule instance. Populated by
#: :func:`register` (repro.analysis.rules registers R001–R006 and
#: repro.analysis.flow_rules registers R008–R012 on import).
RULES: dict[str, LintRule] = {}


def register(rule_cls: "type[LintRule]") -> "type[LintRule]":
    """Class decorator adding a rule (by its ``code``) to :data:`RULES`."""
    rule = rule_cls()
    if rule.code in RULES:
        raise AnalysisError(f"duplicate lint rule code {rule.code}")
    RULES[rule.code] = rule
    return rule_cls


def active_rules(codes: "Sequence[str] | None" = None) -> list[LintRule]:
    """The selected rules (all registered ones when ``codes`` is None)."""
    _ensure_rules_loaded()
    if codes is None:
        return [RULES[code] for code in sorted(RULES)]
    unknown = [code for code in codes if code not in RULES]
    if unknown:
        raise AnalysisError(
            f"unknown lint rule(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return [RULES[code] for code in codes]


def _ensure_rules_loaded() -> None:
    # Importing the rule modules populates RULES via @register.
    from repro.analysis import flow_rules as _flow_rules  # noqa: F401
    from repro.analysis import rules as _rules  # noqa: F401


def _run_rules(
    units: "list[ModuleUnit]", codes: "Sequence[str] | None"
) -> list[Finding]:
    """Run module rules per unit and flow rules over the whole project."""
    rules = active_rules(codes)
    findings: list[Finding] = []
    flow_rules = [rule for rule in rules if isinstance(rule, FlowRule)]
    module_rules = [rule for rule in rules if not isinstance(rule, FlowRule)]
    for unit in units:
        for rule in module_rules:
            for finding in rule.check(unit):
                finding.suppressed = unit.is_suppressed(finding.code, finding.line)
                findings.append(finding)
    if flow_rules:
        project = Project(units)
        units_by_path = {unit.path: unit for unit in units}
        for rule in flow_rules:
            for finding in rule.check_project(project):
                unit = units_by_path.get(finding.path)
                if unit is not None:
                    finding.suppressed = unit.is_suppressed(
                        finding.code, finding.line
                    )
                findings.append(finding)
    if codes is None:
        # Only meaningful when every rule ran: with a filtered rule set
        # a suppression for an unrun rule would look spuriously unused.
        for unit in units:
            for line, code in unit.unused_suppressions():
                findings.append(
                    Finding(
                        code=CODE_UNUSED_SUPPRESSION,
                        message=(
                            f"suppression 'ringo-lint: disable={code}' "
                            "silences no finding on this line"
                        ),
                        path=unit.path,
                        line=line,
                        symbol=unit.qualname_at(_line_anchor(line)),
                        severity=SEVERITY_ADVISORY,
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


class _line_anchor:
    """A minimal node-like anchor carrying only a line number."""

    def __init__(self, line: int) -> None:
        self.lineno = line


def lint_source(
    source: str, path: str = "<string>", codes: "Sequence[str] | None" = None
) -> list[Finding]:
    """Lint one in-memory module; suppressed findings are marked, not dropped."""
    unit = ModuleUnit(path, source)
    return _run_rules([unit], codes)


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into the .py files under them, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path
        else:
            raise AnalysisError(f"not a Python file or directory: {raw}")


def lint_paths(
    paths: Iterable[str], codes: "Sequence[str] | None" = None
) -> list[Finding]:
    """Lint every .py file under ``paths``; returns all findings.

    A file that fails to parse yields a synthetic :data:`E000
    <CODE_PARSE_ERROR>` error finding at the parse-error location
    instead of aborting the whole run.
    """
    units: list[ModuleUnit] = []
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            units.append(ModuleUnit(str(path), source))
        except AnalysisError as err:
            cause = err.__cause__
            line = getattr(cause, "lineno", None) or 1
            col = getattr(cause, "offset", None) or 1
            detail = getattr(cause, "msg", None) or str(err)
            findings.append(
                Finding(
                    code=CODE_PARSE_ERROR,
                    message=f"file does not parse: {detail}",
                    path=str(path),
                    line=line,
                    col=max(col - 1, 0),
                )
            )
    findings.extend(_run_rules(units, codes))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

BASELINE_HEADER = (
    "# ringo-lint baseline — one `CODE|path|symbol` key per known finding.\n"
    "# New findings not listed here fail `python -m repro.analysis`.\n"
    "# Regenerate with: python -m repro.analysis --write-baseline <paths>\n"
)


def load_baseline(path: "str | Path") -> set[str]:
    """Read a baseline file into a set of finding keys (empty if absent)."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return set()
    keys: set[str] = set()
    for line in baseline_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.add(line)
    return keys


def write_baseline(path: "str | Path", findings: Iterable[Finding]) -> int:
    """Write the error-severity findings as the new baseline; returns count."""
    keys = sorted(
        {
            f.key
            for f in findings
            if f.severity == SEVERITY_ERROR and not f.suppressed
        }
    )
    Path(path).write_text(
        BASELINE_HEADER + "".join(key + "\n" for key in keys), encoding="utf-8"
    )
    return len(keys)


def apply_baseline(findings: Iterable[Finding], baseline: set[str]) -> None:
    """Mark findings whose keys appear in ``baseline`` as baselined."""
    for finding in findings:
        if finding.key in baseline:
            finding.baselined = True


def stale_baseline_keys(
    findings: Iterable[Finding], baseline: set[str]
) -> list[str]:
    """Baseline entries matching no current finding (sorted).

    A stale key means the violation it grandfathered was fixed — the
    entry should be deleted so the baseline reflects reality. The CI
    gate runs with ``--strict-baseline`` to enforce exactly that.
    """
    live = {finding.key for finding in findings}
    return sorted(key for key in baseline if key not in live)


def gating_findings(findings: Iterable[Finding]) -> list[Finding]:
    """The findings that should fail the lint gate.

    Advisory findings inform but never gate; suppressed and baselined
    findings are accounted for but accepted.
    """
    return [
        f
        for f in findings
        if f.severity == SEVERITY_ERROR and not f.suppressed and not f.baselined
    ]
