"""Observability end-to-end: the ``Ringo(trace=...)`` session surface.

Covers the acceptance pipeline (load → conversion → snapshot build →
algorithm under one trace, with rows/s and edges/s in
``health()["obs"]``), tracer ownership, the JSONL file mode, the
profile report, and the ``health()`` deep-copy contract.
"""

import pytest

from repro import obs
from repro.core.engine import Ringo
from repro.obs import spans as spans_module
from repro.obs.sinks import validate_jsonl
from repro.workflows.stackoverflow import (
    POSTS_SCHEMA,
    StackOverflowConfig,
    generate_stackoverflow,
    write_posts_tsv,
)


@pytest.fixture
def no_global_tracer():
    """Force the global tracer off around a test, restoring it after."""
    previous = spans_module._TRACER
    spans_module._TRACER = None
    yield
    if spans_module._TRACER is not None:  # a leaked tracer: test bug
        obs.disable()
    spans_module._TRACER = previous


def _traced_pipeline(ringo, tmp_path):
    """The acceptance pipeline: TSV load → ToGraph → PageRank → WCC.

    WCC is the step that dispatches on the session's worker pool; the
    conversions and PageRank are serial numpy.
    """
    data = generate_stackoverflow(
        StackOverflowConfig(num_users=60, num_questions=200, seed=7)
    )
    path = tmp_path / "posts.tsv"
    write_posts_tsv(data, path)
    posts = ringo.LoadTableTSV(POSTS_SCHEMA, path)
    questions = ringo.Select(posts, "Type=question")
    answers = ringo.Select(posts, "Type=answer")
    qa = ringo.Join(questions, answers, "AnswerId", "PostId")
    graph = ringo.ToGraph(qa, "UserId-1", "UserId-2")
    ranks = ringo.GetPageRank(graph)
    assert ranks
    assert ringo.GetWcc(graph)
    return graph


class TestAcceptancePipeline:
    def test_span_tree_covers_load_convert_snapshot_algorithm(
        self, no_global_tracer, tmp_path
    ):
        with Ringo(workers=2, trace=True) as ringo:
            _traced_pipeline(ringo, tmp_path)
            tracer = obs.current_tracer()
            assert tracer is not None
            names = {r["name"] for r in tracer.ring_records()}
            # One trace covers every stage of the pipeline.
            assert "io.load_tsv" in names
            assert "engine.ToGraph" in names
            assert "convert.sort_first" in names
            assert {"convert.sort", "convert.count", "convert.copy"} <= names
            assert "snapshot.build" in names
            assert "alg.pagerank" in names
            assert "pool.kernel" in names
            health = ringo.health()
            obs_report = health["obs"]
            assert obs_report["enabled"] is True
            assert obs_report["spans"]["finished"] > 0
            metrics = obs_report["metrics"]
            # The paper-styled throughput units (§4.2): rows/s and edges/s.
            assert metrics["engine.tograph.rows_per_s"]["count"] >= 1
            assert metrics["engine.tograph.edges_per_s"]["count"] >= 1
            assert metrics["engine.tograph.rows_total"]["value"] > 0
            assert metrics["engine.tograph.edges_total"]["value"] > 0
            assert metrics["io.tsv.rows_total"]["value"] > 0
            assert obs_report["derived"]["snapshot_hit_ratio"] is not None
        # Session owned the tracer, so close() tore it down.
        assert not obs.enabled()

    def test_pool_kernels_nest_under_their_dispatching_operation(
        self, no_global_tracer, tmp_path
    ):
        with Ringo(workers=2, trace=True) as ringo:
            _traced_pipeline(ringo, tmp_path)
            records = obs.current_tracer().ring_records()
        by_id = {r["span_id"]: r for r in records}
        kernels = [r for r in records if r["name"] == "pool.kernel"]
        assert kernels
        for kernel in kernels:
            parent = by_id.get(kernel["parent_id"])
            assert parent is not None, "pool.kernel must not be a root span"
            assert parent["name"] in (
                "engine.GetWcc",
                "alg.weakly_connected_components",
            )

    def test_metric_counters_are_monotone_across_calls(
        self, no_global_tracer, tmp_path
    ):
        with Ringo(workers=1, trace=True) as ringo:
            table = ringo.TableFromColumns(
                {"a": [1, 2, 3, 1], "b": [2, 3, 1, 3]}
            )
            totals = []
            for _ in range(3):
                ringo.ToGraph(table, "a", "b")
                metrics = ringo.health()["obs"]["metrics"]
                totals.append(metrics["engine.tograph.rows_total"]["value"])
            assert totals == sorted(totals)
            assert totals[0] > 0

    def test_tsv_load_says_which_path_it_took_and_why(self, no_global_tracer, tmp_path):
        clean, commented = tmp_path / "clean.tsv", tmp_path / "commented.tsv"
        clean.write_text("1\t2\n2\t3\n")
        commented.write_text("# edges\n1\t2\n")
        schema = [("a", "int"), ("b", "int")]
        with Ringo(workers=1, trace=True) as ringo:
            before = ringo.health()["obs"]["metrics"].get("io.tsv.row_path", {"value": 0})
            ringo.LoadTableTSV(schema, clean)
            ringo.LoadTableTSV(schema, commented)
            after = ringo.health()["obs"]["metrics"]["io.tsv.row_path"]
            loads = [
                r["tags"] for r in obs.current_tracer().ring_records()
                if r["name"] == "io.load_tsv"
            ]
        assert after["value"] == before["value"] + 1
        assert [(t["file"], t["path"], t.get("reason")) for t in loads] == [
            (str(clean), "bulk", None),
            (str(commented), "rows", "comment_or_blank"),
        ]


class TestTracerOwnership:
    def test_session_owns_tracer_it_enabled(self, no_global_tracer):
        with Ringo(workers=1, trace=True):
            assert obs.enabled()
        assert not obs.enabled()

    def test_pre_armed_tracer_wins_and_survives_close(self, no_global_tracer):
        tracer = obs.enable()
        with Ringo(workers=1, trace=True) as ringo:
            assert obs.current_tracer() is tracer
            assert ringo.health()["obs"]["enabled"] is True
        assert obs.current_tracer() is tracer  # session must not tear down
        obs.disable()

    def test_trace_false_keeps_tracing_off(self, no_global_tracer):
        with Ringo(workers=1, trace=False) as ringo:
            assert not obs.enabled()
            report = ringo.health()["obs"]
            assert report["enabled"] is False
            assert report["spans"] is None

    def test_trace_path_writes_a_valid_jsonl_file(self, no_global_tracer, tmp_path):
        trace_path = tmp_path / "session.jsonl"
        with Ringo(workers=1, trace=str(trace_path)) as ringo:
            table = ringo.TableFromColumns({"a": [1, 2], "b": [2, 3]})
            ringo.ToGraph(table, "a", "b")
        count, problems = validate_jsonl(trace_path)
        assert problems == []
        assert count > 0

    def test_env_var_arms_a_session_owned_tracer(
        self, no_global_tracer, monkeypatch
    ):
        monkeypatch.setenv(obs.ENV_VAR, "1")
        with Ringo(workers=1):
            assert obs.enabled()
        assert not obs.enabled()


class TestProfileReport:
    def test_profile_renders_the_span_tree(self, no_global_tracer):
        with Ringo(workers=1, trace=True) as ringo:
            table = ringo.TableFromColumns({"a": [1, 2, 3], "b": [2, 3, 1]})
            graph = ringo.ToGraph(table, "a", "b")
            ringo.GetPageRank(graph)
            report = ringo.profile()
        assert "engine.ToGraph" in report
        assert "convert.sort_first" in report
        assert "alg.pagerank" in report
        for column in ("span", "calls", "total", "self", "rss+"):
            assert column in report
        # Children render indented under their parents.
        tograph_line = next(
            line for line in report.splitlines() if "convert.sort_first" in line
        )
        assert tograph_line.startswith("  ")

    def test_profile_without_tracing_says_so(self, no_global_tracer, monkeypatch):
        # RINGO_TRACE in the environment would arm a session tracer.
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        with Ringo(workers=1) as ringo:
            assert "tracing is not enabled" in ringo.profile()


class TestHealthDeepCopy:
    def test_mutating_health_never_reaches_engine_state(self, no_global_tracer):
        with Ringo(workers=1, trace=True) as ringo:
            table = ringo.TableFromColumns({"a": [1, 2], "b": [2, 3]})
            ringo.ToGraph(table, "a", "b")
            first = ringo.health()
            # Trash every sub-dict a caller could reach.
            first["workers"]["calls"] = -999
            first["snapshot_cache"].clear()
            first["obs"]["metrics"].clear()
            first["obs"]["derived"]["snapshot_hit_ratio"] = "corrupted"
            first["analysis"]["sanitizer"]["checks"] = -1
            first["objects"]["names"].append("ghost")
            first["timings"].clear()
            second = ringo.health()
            assert second["workers"]["calls"] >= 0
            assert "hits" in second["snapshot_cache"]
            assert second["obs"]["metrics"]
            assert second["obs"]["derived"]["snapshot_hit_ratio"] != "corrupted"
            assert second["analysis"]["sanitizer"]["checks"] >= 0
            assert "ghost" not in second["objects"]["names"]

    def test_health_sub_dicts_are_fresh_objects_each_call(self, no_global_tracer):
        with Ringo(workers=1) as ringo:
            a = ringo.health()
            b = ringo.health()
            assert a is not b
            for key in ("workers", "snapshot_cache", "analysis", "objects"):
                assert a[key] is not b[key]
