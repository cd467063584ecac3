"""repro.obs spans: nesting, ordering, cross-thread parenting, the
decorator/event forms, and the disabled-path overhead guard.

Tests that need the process-wide tracer swap it in via fixtures and
restore whatever was armed before, so the suite behaves identically
under ``RINGO_TRACE=1`` (where a session tracer is already installed).
"""

import threading
import time

import pytest

from repro import obs
from repro.obs import spans as spans_module


@pytest.fixture
def fresh_tracer():
    """A fresh global tracer for one test; restores the prior one."""
    previous = spans_module._TRACER
    spans_module._TRACER = None
    tracer = obs.enable()
    yield tracer
    obs.disable()
    spans_module._TRACER = previous


@pytest.fixture
def tracing_off():
    """Force tracing off for one test; restores the prior tracer."""
    previous = spans_module._TRACER
    spans_module._TRACER = None
    yield
    spans_module._TRACER = previous


class TestNesting:
    def test_records_arrive_in_finish_order_with_parent_links(self, fresh_tracer):
        with obs.trace("outer") as outer:
            with obs.trace("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = fresh_tracer.ring_records()
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent_id"] == records[1]["span_id"]
        assert records[1]["parent_id"] is None

    def test_siblings_share_a_parent(self, fresh_tracer):
        with obs.trace("parent"):
            with obs.trace("a"):
                pass
            with obs.trace("b"):
                pass
        a, b, parent = fresh_tracer.ring_records()
        assert a["parent_id"] == parent["span_id"]
        assert b["parent_id"] == parent["span_id"]

    def test_span_ids_unique_and_increasing(self, fresh_tracer):
        for _ in range(5):
            with obs.trace("tick"):
                pass
        ids = [r["span_id"] for r in fresh_tracer.ring_records()]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_tags_from_call_and_set_tag(self, fresh_tracer):
        with obs.trace("op", rows=7) as span:
            span.set_tag("kept", 3).set_tag("mode", "fast")
        (record,) = fresh_tracer.ring_records()
        assert record["tags"] == {"rows": 7, "kept": 3, "mode": "fast"}

    def test_durations_nest(self, fresh_tracer):
        with obs.trace("outer"):
            with obs.trace("inner"):
                time.sleep(0.002)
        inner, outer = fresh_tracer.ring_records()
        assert 0 <= inner["duration_s"] <= outer["duration_s"]

    def test_exception_sets_error_tag_and_still_finishes(self, fresh_tracer):
        with pytest.raises(ValueError):
            with obs.trace("doomed"):
                raise ValueError("boom")
        (record,) = fresh_tracer.ring_records()
        assert record["tags"]["error"] == "ValueError"
        assert fresh_tracer.stats()["finished"] == 1

    def test_current_span_id_tracks_the_stack(self, fresh_tracer):
        assert obs.current_span_id() is None
        with obs.trace("open") as span:
            assert obs.current_span_id() == span.span_id
        assert obs.current_span_id() is None


class TestCrossThread:
    def test_explicit_parent_carries_across_threads(self, fresh_tracer):
        with obs.trace("dispatch") as parent:
            parent_id = obs.current_span_id()

            def worker():
                # A pool thread has an empty stack; without _parent the
                # span would be a root.
                with obs.trace("kernel", _parent=parent_id):
                    pass

            thread = threading.Thread(target=worker, name="test-worker")
            thread.start()
            thread.join()
        kernel, dispatch = fresh_tracer.ring_records()
        assert kernel["parent_id"] == dispatch["span_id"] == parent.span_id
        assert kernel["thread"] == "test-worker"
        assert kernel["thread"] != dispatch["thread"]

    def test_thread_stacks_are_independent(self, fresh_tracer):
        seen = {}

        def worker():
            seen["id_in_thread"] = obs.current_span_id()

        with obs.trace("main-only"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["id_in_thread"] is None


class TestForms:
    def test_event_is_a_zero_duration_child(self, fresh_tracer):
        with obs.trace("op") as span:
            obs.event("op.note", detail="cached")
        note, op = fresh_tracer.ring_records()
        assert note["parent_id"] == span.span_id
        assert note["duration_s"] >= 0
        assert note["tags"] == {"detail": "cached"}
        assert op["name"] == "op"

    def test_traced_decorator_checks_global_per_call(self, fresh_tracer):
        @obs.traced("worked.example")
        def work(x):
            "docstring survives"
            return x + 1

        assert work(1) == 2
        assert work.__name__ == "work"
        assert work.__doc__ == "docstring survives"
        names = [r["name"] for r in fresh_tracer.ring_records()]
        assert names == ["worked.example"]

    def test_enable_is_idempotent(self, fresh_tracer):
        assert obs.enable() is fresh_tracer
        assert obs.current_tracer() is fresh_tracer

    def test_stats_count_started_finished_recorded(self, fresh_tracer):
        with obs.trace("a"):
            with obs.trace("b"):
                pass
        stats = fresh_tracer.stats()
        assert stats["started"] == stats["finished"] == stats["recorded"] == 2
        assert stats["dropped"] == 0


class TestDisabledPath:
    def test_zero_entries_when_off(self, tracing_off):
        sentinel = obs.trace("ignored", rows=1)
        with sentinel as span:
            span.set_tag("also", "ignored")
        assert not obs.enabled()
        assert obs.current_tracer() is None
        assert obs.current_span_id() is None
        # The handle is the shared no-op singleton — no allocation per call.
        assert obs.trace("another") is sentinel

    def test_event_and_decorator_no_ops_when_off(self, tracing_off):
        obs.event("ignored")

        @obs.traced("ignored.fn")
        def work():
            return 42

        assert work() == 42

    def test_disabled_overhead_under_5us_median(self, tracing_off):
        # The satellite guard: a traced no-op with tracing off must stay
        # under 5µs median, so leaving instrumentation in hot paths is
        # free in production.
        def per_call_seconds(n=2000):
            start = time.perf_counter()
            for _ in range(n):
                with obs.trace("noop.overhead", rows=1):
                    pass
            return (time.perf_counter() - start) / n

        samples = sorted(per_call_seconds() for _ in range(9))
        median = samples[len(samples) // 2]
        assert median < 5e-6, f"disabled trace() costs {median * 1e6:.2f}µs"


class TestEnvSemantics:
    @pytest.mark.parametrize("value", ["", "0", "false", "No", "OFF"])
    def test_false_values_mean_off(self, value):
        assert spans_module.env_setting(value) is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", "On"])
    def test_true_values_mean_ring_recorder(self, value):
        assert spans_module.env_setting(value) == "ring"

    def test_anything_else_is_a_trace_path(self):
        assert spans_module.env_setting("/tmp/t.jsonl") == "/tmp/t.jsonl"
        assert spans_module.env_setting(" trace.jsonl ") == "trace.jsonl"
