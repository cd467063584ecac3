"""ringo-lint: rule fixtures, mutations of the real source, suppressions,
and CLI exit codes."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import cli as analysis_cli
from repro.analysis import lint
from repro.cli import main as repro_main
from repro.exceptions import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

RULE_FIXTURES = {
    "R001": (FIXTURES / "r001_bad.py", FIXTURES / "r001_ok.py"),
    "R002": (FIXTURES / "r002_bad.py", FIXTURES / "r002_ok.py"),
    "R003": (FIXTURES / "r003_bad.py", FIXTURES / "r003_ok.py"),
    "R004": (FIXTURES / "r004_bad.py", FIXTURES / "r004_ok.py"),
    "R006": (FIXTURES / "r006_bad.py", FIXTURES / "r006_ok.py"),
    "R008": (FIXTURES / "r008_bad.py", FIXTURES / "r008_ok.py"),
    "R009": (FIXTURES / "r009_bad.py", FIXTURES / "r009_ok.py"),
    "R010": (FIXTURES / "r010_bad.py", FIXTURES / "r010_ok.py"),
    "R011": (FIXTURES / "r011_bad.py", FIXTURES / "r011_ok.py"),
    # R012 spans a registry module plus a consumer, so its fixture is a
    # directory.
    "R012": (FIXTURES / "r012_bad", FIXTURES / "r012_ok"),
}


def _fault_site_files():
    """The modules R012 needs: the registry plus every site reference."""
    pattern = re.compile(r'(fault_point|\.check)\(\s*"')
    return sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if path.name == "faults.py" or pattern.search(path.read_text(encoding="utf-8"))
    )


# rule -> (files linted, file mutated, exact text, replacement). Each is
# a one-line mutation of the current source that the rule must catch,
# linted over the smallest set of files in which it still fires (flow
# rules need the modules their call chain runs through). This table is
# the record of how every rule can fire; a rule with a second case keys
# it as ``<rule>-<case>``.
RULE_MUTATIONS = {
    "R001": (
        ["repro/graphs/directed.py"],
        "repro/graphs/directed.py",
        "        self._num_edges += 1\n"
        "        self._bump_version()\n"
        '        self._record_delta("add_edge", src, dst)\n',
        "        self._num_edges += 1\n"
        '        self._record_delta("add_edge", src, dst)\n',
    ),
    # The path every ApplyOps batch on a CSR-backed graph takes.
    "R001-merge": (
        ["repro/graphs/base.py"],
        "repro/graphs/base.py",
        "        self._csr = csr.merged(deletes, adds, self.is_directed)\n"
        "        self._num_edges += len(change.add_src) - len(change.del_src)\n"
        "        self._bump_version()\n",
        "        self._csr = csr.merged(deletes, adds, self.is_directed)\n"
        "        self._num_edges += len(change.add_src) - len(change.del_src)\n",
    ),
    "R002": (
        ["repro/algorithms/common.py"],
        "repro/algorithms/common.py",
        "        return csr_snapshot(graph)\n",
        "        return CSRGraph.from_graph(graph)\n",
    ),
    "R003": (
        ["repro/tables/io_npz.py"],
        "repro/tables/io_npz.py",
        'fault_point("io.npz.load")',
        'fault_point("io.npz.lod")',
    ),
    "R004": (
        ["repro/service/session.py"],
        "repro/service/session.py",
        "acquire(),  # ringo-lint: disable=R004\n",
        "acquire(),\n",
    ),
    "R006": (
        ["repro/algorithms/triangles.py"],
        "repro/algorithms/triangles.py",
        "        partial = np.zeros(count, dtype=np.int64)\n",
        "        partial = np.zeros(count, dtype=np.int64)\n"
        "        edge_keys[0] += 1\n",
    ),
    "R008": (
        ["repro/service/server.py"],
        "repro/service/server.py",
        "    async def drain(self) -> dict:\n",
        "    async def drain(self) -> dict:\n"
        "        threading.Event().wait(0.5)\n",
    ),
    "R009": (
        ["repro/core/engine.py"],
        "repro/core/engine.py",
        "self._catalog_lock = threading.RLock()",
        "self._catalog_lock = threading.Lock()",
    ),
    "R010": (
        ["repro/core/engine.py", "repro/recovery/wal.py"],
        "repro/core/engine.py",
        "        return self._publish_as(output, result)\n",
        "        return result\n",
    ),
    "R011": (
        [
            "repro/recovery/recover.py",
            "repro/recovery/checkpoint.py",
            "repro/tables/io_npz.py",
        ],
        "repro/recovery/recover.py",
        "            session.close()\n            raise\n",
        "            session.close()\n            pass\n",
    ),
    "R012": (
        _fault_site_files(),
        "repro/tables/io_npz.py",
        '    fault_point("io.npz.load")\n',
        "",
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_bad_fixture_flags_exactly_its_rule(self, code):
        bad, _ = RULE_FIXTURES[code]
        findings = lint.lint_paths([str(bad)])
        assert [f.code for f in findings] == [code]
        assert not findings[0].suppressed

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_ok_fixture_is_clean(self, code):
        _, ok = RULE_FIXTURES[code]
        assert lint.lint_paths([str(ok)]) == []

    def test_finding_carries_location_and_symbol(self):
        bad, _ = RULE_FIXTURES["R001"]
        finding = lint.lint_paths([str(bad)])[0]
        assert finding.line > 0
        assert finding.symbol == "ForgetfulGraph.add_edge"
        assert "ForgetfulGraph.add_edge" in finding.message


class TestRulesFire:
    """Every rule catches a one-line mutation of the real source."""

    def test_every_rule_has_a_mutation(self):
        rules = sorted({case.partition("-")[0] for case in RULE_MUTATIONS})
        assert rules == [rule.code for rule in lint.active_rules()]

    @pytest.mark.parametrize("code", sorted(RULE_MUTATIONS))
    def test_one_line_mutation_fires(self, code, tmp_path):
        files, target, old, new = RULE_MUTATIONS[code]
        code = code.partition("-")[0]
        # Keep the src/ layout: flow rules name modules by their path.
        root = tmp_path / "src"
        for rel in files:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(SRC / rel, root / rel)
        paths = [str(root / rel) for rel in files]
        unmutated = lint.lint_paths(paths, [code])
        assert lint.gating_findings(unmutated) == []

        source = (root / target).read_text(encoding="utf-8")
        assert source.count(old) == 1, f"{code}: mutation target drifted"
        (root / target).write_text(source.replace(old, new), encoding="utf-8")
        findings = lint.gating_findings(lint.lint_paths(paths, [code]))
        assert [f.code for f in findings] == [code]


class TestSuppression:
    SOURCE = (
        "from repro.graphs.csr import CSRGraph\n"
        "\n"
        "def convert(graph):\n"
        "    return CSRGraph.from_graph(graph)  # ringo-lint: disable=R002\n"
    )

    def test_same_line_suppression(self):
        findings = lint.lint_source(self.SOURCE, "x.py")
        assert [f.code for f in findings] == ["R002"]
        assert findings[0].suppressed
        assert lint.gating_findings(findings) == []

    def test_preceding_comment_suppression(self):
        source = (
            "from repro.graphs.csr import CSRGraph\n"
            "\n"
            "def convert(graph):\n"
            "    # justified one-off  # ringo-lint: disable=R002\n"
            "    return CSRGraph.from_graph(graph)\n"
        )
        findings = lint.lint_source(source, "x.py")
        assert findings[0].suppressed

    def test_other_code_does_not_suppress(self):
        source = self.SOURCE.replace("disable=R002", "disable=R001")
        findings = lint.lint_source(source, "x.py")
        assert not findings[0].suppressed
        assert len(lint.gating_findings(findings)) == 2  # R002 + unused R001

    def test_disable_all(self):
        source = self.SOURCE.replace("disable=R002", "disable=all")
        assert lint.lint_source(source, "x.py")[0].suppressed


class TestRuleSelection:
    def test_unknown_rule_raises(self):
        with pytest.raises(AnalysisError, match="unknown lint rule"):
            lint.active_rules(["R999"])

    def test_rule_filter_restricts_findings(self):
        bad, _ = RULE_FIXTURES["R002"]
        assert lint.lint_paths([str(bad)], ["R001"]) == []

    def test_all_rules_registered(self):
        codes = [rule.code for rule in lint.active_rules()]
        assert codes == [
            "R001", "R002", "R003", "R004", "R006",
            "R008", "R009", "R010", "R011", "R012",
        ]


class TestCli:
    def test_bad_fixture_exits_one(self, capsys):
        bad, _ = RULE_FIXTURES["R004"]
        assert analysis_cli.main([str(bad)]) == 1
        assert "R004" in capsys.readouterr().out

    def test_ok_fixture_exits_zero(self, capsys):
        _, ok = RULE_FIXTURES["R004"]
        assert analysis_cli.main([str(ok)]) == 0

    def test_bad_path_exits_two(self, tmp_path, capsys):
        assert analysis_cli.main([str(tmp_path / "missing.txt")]) == 2

    def test_list_rules(self, capsys):
        assert analysis_cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R006" in out and "R012" in out

    def test_repro_lint_subcommand(self, capsys):
        bad, ok = RULE_FIXTURES["R002"]
        assert repro_main(["lint", str(bad)]) == 1
        assert repro_main(["lint", str(ok)]) == 0
        assert repro_main(["lint", "--rules", "R001", str(bad)]) == 0
        assert repro_main(["lint", "--list-rules"]) == 0
        assert "R012" in capsys.readouterr().out


class TestParseError:
    BROKEN = "def half(:\n"

    def test_syntax_error_becomes_e000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text(self.BROKEN, encoding="utf-8")
        findings = lint.lint_paths([str(broken)])
        assert [f.code for f in findings] == [lint.CODE_PARSE_ERROR]
        finding = findings[0]
        assert finding.line >= 1
        assert "does not parse" in finding.message
        assert lint.gating_findings(findings) == [finding]

    def test_other_files_still_linted(self, tmp_path):
        (tmp_path / "broken.py").write_text(self.BROKEN, encoding="utf-8")
        bad_src = RULE_FIXTURES["R004"][0].read_text(encoding="utf-8")
        (tmp_path / "manual_acquire.py").write_text(bad_src, encoding="utf-8")
        codes = sorted(f.code for f in lint.lint_paths([str(tmp_path)]))
        assert codes == ["E000", "R004"]


class TestUnusedSuppression:
    DEAD = "def noop():\n    return None  # ringo-lint: disable=R004\n"

    def test_unused_suppression_reported(self):
        findings = lint.lint_source(self.DEAD, "x.py")
        assert [f.code for f in findings] == [lint.CODE_UNUSED_SUPPRESSION]
        finding = findings[0]
        assert "R004" in finding.message
        assert finding.line == 2
        assert lint.gating_findings(findings) == [finding]

    def test_used_suppression_not_reported(self):
        findings = lint.lint_source(TestSuppression.SOURCE, "x.py")
        assert [f.code for f in findings] == ["R002"]

    def test_not_reported_under_rule_filter(self):
        assert lint.lint_source(self.DEAD, "x.py", ["R004"]) == []


class TestDocsTable:
    def test_docs_table_matches_generator(self, capsys):
        assert analysis_cli.main(["--list-rules"]) == 0
        generated = capsys.readouterr().out.strip()
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        begin = doc.index("<!-- rules:begin -->") + len("<!-- rules:begin -->")
        end = doc.index("<!-- rules:end -->")
        assert doc[begin:end].strip() == generated


def test_import_repro_does_not_load_the_lint_engine():
    engine = ("repro.analysis.callgraph", "repro.analysis.flow", "repro.analysis.lint")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert not [name for name in engine if repr(name) in loaded]
