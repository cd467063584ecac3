"""The ``python -m repro.analysis`` / ``repro lint`` entry point.

Exit codes: 0 — no unsuppressed finding; 1 — at least one unsuppressed
finding; 2 — usage error. ``--list-rules`` prints the rule catalog as
the markdown table embedded in ``docs/static-analysis.md`` (see the
docs-sync test).
"""

from __future__ import annotations

import argparse
import inspect
import re
import sys

from repro.analysis import lint
from repro.exceptions import AnalysisError


def build_parser() -> argparse.ArgumentParser:
    """The lint CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="ringo-lint: project-specific static analysis (rules R001-R012)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule codes to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog as a markdown table and exit",
    )
    return parser


def rule_summary(rule) -> str:
    """One-line summary of a rule, taken from its class docstring.

    The first paragraph is collapsed to a single line and the leading
    ``RXXX:`` prefix is stripped (the code gets its own column). Falls
    back to ``rule.description``.
    """
    doc = inspect.getdoc(type(rule)) or ""
    paragraph = doc.split("\n\n", 1)[0]
    summary = " ".join(paragraph.split())
    summary = re.sub(r"^R\d+\s*:\s*", "", summary)
    sentence_end = summary.find(". ")
    if sentence_end != -1:
        summary = summary[: sentence_end + 1]
    return summary or rule.description


def _list_rules() -> int:
    print("| Code | Rule | Summary |")
    print("| --- | --- | --- |")
    for rule in lint.active_rules():
        print(f"| {rule.code} | `{rule.name}` | {rule_summary(rule)} |")
    return 0


def _report(findings) -> None:
    for finding in findings:
        suffix = "  [suppressed]" if finding.suppressed else ""
        print(finding.format() + suffix)
    gating = lint.gating_findings(findings)
    print(
        f"ringo-lint: {len(gating)} finding(s), "
        f"{len(findings) - len(gating)} suppressed"
    )


def main(argv: "list[str] | None" = None) -> int:
    """Run the linter; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    codes = (
        [code.strip() for code in args.rules.split(",") if code.strip()]
        if args.rules
        else None
    )
    try:
        findings = lint.lint_paths(args.paths, codes)
    except (AnalysisError, OSError) as error:
        print(f"repro.analysis: error: {error}", file=sys.stderr)
        return 2
    _report(findings)
    return 1 if lint.gating_findings(findings) else 0


if __name__ == "__main__":
    raise SystemExit(main())
