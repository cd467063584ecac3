"""ringo-lint: rule fixtures, suppressions, baselines, and CLI exit codes."""

import json
from pathlib import Path

import pytest

from repro.analysis import cli as analysis_cli
from repro.analysis import lint
from repro.cli import main as repro_main
from repro.exceptions import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parents[1]

RULE_FIXTURES = {
    "R001": (FIXTURES / "r001_bad.py", FIXTURES / "r001_ok.py"),
    "R002": (FIXTURES / "r002_bad.py", FIXTURES / "r002_ok.py"),
    "R003": (FIXTURES / "r003_bad.py", FIXTURES / "r003_ok.py"),
    "R004": (FIXTURES / "r004_bad.py", FIXTURES / "r004_ok.py"),
    "R005": (
        FIXTURES / "algorithms" / "r005_bad.py",
        FIXTURES / "algorithms" / "r005_ok.py",
    ),
    "R006": (FIXTURES / "r006_bad.py", FIXTURES / "r006_ok.py"),
    "R008": (FIXTURES / "r008_bad.py", FIXTURES / "r008_ok.py"),
    "R009": (FIXTURES / "r009_bad.py", FIXTURES / "r009_ok.py"),
    "R010": (FIXTURES / "r010_bad.py", FIXTURES / "r010_ok.py"),
    "R011": (FIXTURES / "r011_bad.py", FIXTURES / "r011_ok.py"),
    # R012 spans a registry module plus a consumer, so its fixture is a
    # directory (precedent: R005 lives under algorithms/).
    "R012": (FIXTURES / "r012_bad", FIXTURES / "r012_ok"),
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

    def test_r005_is_advisory_and_never_gates(self):
        bad, _ = RULE_FIXTURES["R005"]
        findings = lint.lint_paths([str(bad)])
        assert findings[0].severity == lint.SEVERITY_ADVISORY
        assert lint.gating_findings(findings) == []

    def test_r005_only_applies_under_algorithms(self, tmp_path):
        source = RULE_FIXTURES["R005"][0].read_text(encoding="utf-8")
        elsewhere = tmp_path / "r005_elsewhere.py"
        elsewhere.write_text(source, encoding="utf-8")
        assert lint.lint_paths([str(elsewhere)]) == []

    def test_finding_carries_location_and_symbol(self):
        bad, _ = RULE_FIXTURES["R001"]
        finding = lint.lint_paths([str(bad)])[0]
        assert finding.line > 0
        assert finding.symbol == "ForgetfulGraph.add_edge"
        assert "ForgetfulGraph.add_edge" in finding.message


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
        assert len(lint.gating_findings(findings)) == 1

    def test_disable_all(self):
        source = self.SOURCE.replace("disable=R002", "disable=all")
        assert lint.lint_source(source, "x.py")[0].suppressed


class TestBaseline:
    def test_round_trip_accepts_known_findings(self, tmp_path):
        bad, _ = RULE_FIXTURES["R002"]
        findings = lint.lint_paths([str(bad)])
        baseline_path = tmp_path / "baseline"
        assert lint.write_baseline(baseline_path, findings) == 1
        fresh = lint.lint_paths([str(bad)])
        lint.apply_baseline(fresh, lint.load_baseline(baseline_path))
        assert fresh[0].baselined
        assert lint.gating_findings(fresh) == []

    def test_missing_baseline_is_empty(self, tmp_path):
        assert lint.load_baseline(tmp_path / "nope") == set()

    def test_baseline_keys_are_line_number_free(self):
        bad, _ = RULE_FIXTURES["R002"]
        finding = lint.lint_paths([str(bad)])[0]
        assert finding.key == f"R002|{bad.as_posix()}|eager_pagerank_input"

    def test_shipped_baseline_is_empty(self):
        shipped = lint.load_baseline(REPO_ROOT / ".ringo-lint-baseline")
        assert shipped == set()

    def test_src_tree_is_clean_against_shipped_baseline(self):
        findings = lint.lint_paths([str(REPO_ROOT / "src")])
        lint.apply_baseline(
            findings, lint.load_baseline(REPO_ROOT / ".ringo-lint-baseline")
        )
        assert lint.gating_findings(findings) == []


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
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R008", "R009", "R010", "R011", "R012",
        ]


class TestCli:
    def test_bad_fixture_exits_one(self, tmp_path, capsys):
        bad, _ = RULE_FIXTURES["R004"]
        code = analysis_cli.main([str(bad), "--baseline", str(tmp_path / "b")])
        assert code == 1
        assert "R004" in capsys.readouterr().out

    def test_ok_fixture_exits_zero(self, tmp_path, capsys):
        _, ok = RULE_FIXTURES["R004"]
        assert analysis_cli.main([str(ok), "--baseline", str(tmp_path / "b")]) == 0

    def test_bad_path_exits_two(self, tmp_path, capsys):
        assert analysis_cli.main([str(tmp_path / "missing.txt")]) == 2

    def test_json_format(self, tmp_path, capsys):
        bad, _ = RULE_FIXTURES["R006"]
        code = analysis_cli.main(
            [str(bad), "--format", "json", "--baseline", str(tmp_path / "b")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "R006"

    def test_list_rules(self, capsys):
        assert analysis_cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R006" in out and "R012" in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        bad, _ = RULE_FIXTURES["R001"]
        baseline = tmp_path / "baseline"
        assert (
            analysis_cli.main([str(bad), "--baseline", str(baseline), "--write-baseline"])
            == 0
        )
        assert analysis_cli.main([str(bad), "--baseline", str(baseline)]) == 0

    def test_repro_lint_subcommand(self, tmp_path, capsys):
        bad, _ = RULE_FIXTURES["R002"]
        _, ok = RULE_FIXTURES["R002"]
        assert (
            repro_main(["lint", str(bad), "--baseline", str(tmp_path / "b")]) == 1
        )
        assert (
            repro_main(["lint", str(ok), "--baseline", str(tmp_path / "b")]) == 0
        )

    def test_markdown_requires_list_rules(self, tmp_path, capsys):
        assert analysis_cli.main([str(tmp_path), "--format", "markdown"]) == 2
        assert "requires --list-rules" in capsys.readouterr().err


class TestParseError:
    BROKEN = "def half(:\n"

    def test_syntax_error_becomes_e000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text(self.BROKEN, encoding="utf-8")
        findings = lint.lint_paths([str(broken)])
        assert [f.code for f in findings] == [lint.CODE_PARSE_ERROR]
        finding = findings[0]
        assert finding.severity == lint.SEVERITY_ERROR
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
        assert finding.severity == lint.SEVERITY_ADVISORY
        assert "R004" in finding.message
        assert finding.line == 2
        assert lint.gating_findings(findings) == []

    def test_used_suppression_not_reported(self):
        findings = lint.lint_source(TestSuppression.SOURCE, "x.py")
        assert [f.code for f in findings] == ["R002"]

    def test_not_reported_under_rule_filter(self):
        assert lint.lint_source(self.DEAD, "x.py", ["R004"]) == []


class TestSarif:
    def test_sarif_document_shape(self, tmp_path, capsys):
        bad, _ = RULE_FIXTURES["R004"]
        code = analysis_cli.main(
            [str(bad), "--format", "sarif", "--baseline", str(tmp_path / "b")]
        )
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "ringo-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for expected in ("R001", "R008", "R012", "E000", "W001"):
            assert expected in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "R004"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("r004_bad.py")
        assert location["region"]["startLine"] > 0
        assert result["suppressions"] == []

    def test_advisory_maps_to_note_and_suppressions_marked(self):
        findings = lint.lint_source(TestSuppression.SOURCE, "x.py")
        log = analysis_cli.sarif_report(findings)
        result = log["runs"][0]["results"][0]
        assert result["suppressions"][0]["kind"] == "inSource"
        advisory = lint.lint_source(TestUnusedSuppression.DEAD, "x.py")
        log = analysis_cli.sarif_report(advisory)
        assert log["runs"][0]["results"][0]["level"] == "note"


class TestStrictBaseline:
    def test_stale_entry_fails_strict(self, tmp_path, capsys):
        _, ok = RULE_FIXTURES["R004"]
        baseline = tmp_path / "baseline"
        baseline.write_text("R004|gone.py|gone\n", encoding="utf-8")
        assert analysis_cli.main([str(ok), "--baseline", str(baseline)]) == 0
        assert (
            analysis_cli.main(
                [str(ok), "--baseline", str(baseline), "--strict-baseline"]
            )
            == 1
        )
        assert "stale baseline" in capsys.readouterr().err

    def test_live_entries_pass_strict(self, tmp_path, capsys):
        bad, _ = RULE_FIXTURES["R004"]
        baseline = tmp_path / "baseline"
        findings = lint.lint_paths([str(bad)])
        lint.write_baseline(baseline, findings)
        assert (
            analysis_cli.main(
                [str(bad), "--baseline", str(baseline), "--strict-baseline"]
            )
            == 0
        )

    def test_stale_keys_helper(self):
        _, ok = RULE_FIXTURES["R004"]
        findings = lint.lint_paths([str(ok)])
        stale = lint.stale_baseline_keys(findings, {"R001|a.py|f", "R002|b.py|g"})
        assert stale == ["R001|a.py|f", "R002|b.py|g"]


class TestDocsTable:
    def test_docs_table_matches_generator(self, capsys):
        assert analysis_cli.main(["--list-rules", "--format", "markdown"]) == 0
        generated = capsys.readouterr().out.strip()
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        begin = doc.index("<!-- rules:begin -->") + len("<!-- rules:begin -->")
        end = doc.index("<!-- rules:end -->")
        assert doc[begin:end].strip() == generated
