"""Lockset race detector: seeded races, guarded silence, engine wiring."""

import threading

import numpy as np
import pytest

from repro.analysis import hooks
from repro.analysis.races import (
    Monitored,
    TrackedLock,
    race_check,
)
from repro.analysis import races
from repro.core.engine import Ringo
from repro.exceptions import RaceDetected
from repro.parallel.atomics import AtomicCounter
from repro.parallel.concurrent_hash import LinearProbingHashTable
from repro.parallel.concurrent_vector import ConcurrentVector
from repro.parallel.executor import WorkerPool


def run_in_thread(fn):
    """Run ``fn`` on a fresh thread, re-raising anything it raised."""
    box = {}

    def runner():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            box["error"] = exc

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "helper thread wedged"
    if "error" in box:
        raise box["error"]


class TestLocksetAlgorithm:
    def test_single_thread_never_races(self):
        with race_check() as detector:
            shared = Monitored({}, label="solo")
            for index in range(100):
                shared[index] = index
            assert detector.stats()["races"] == 0

    def test_second_thread_unsynchronized_write_raises(self):
        with race_check() as detector:
            shared = Monitored({}, label="seeded")
            run_in_thread(lambda: shared.__setitem__("a", 1))
            with pytest.raises(RaceDetected) as excinfo:
                shared["a"] = 2
            assert "seeded" in str(excinfo.value)
            assert detector.stats()["races"] == 1

    def test_report_carries_both_threads_and_stacks(self):
        with race_check(raise_on_race=False) as detector:
            shared = Monitored([], label="buffer")
            run_in_thread(lambda: shared.append(1))
            shared.append(2)
            (report,) = detector.reports
            assert report.first_thread != report.second_thread
            assert report.first_stack and report.second_stack
            error = report.to_exception()
            assert isinstance(error, RaceDetected)

    def test_consistent_tracked_lock_is_silent(self):
        with race_check() as detector:
            lock = TrackedLock("guard")
            shared = Monitored({}, label="guarded")

            def locked_write():
                with lock:
                    shared["k"] = threading.current_thread().name

            run_in_thread(locked_write)
            locked_write()
            assert detector.stats()["races"] == 0

    def test_lock_dropped_on_second_access_races(self):
        with race_check(raise_on_race=False) as detector:
            lock = TrackedLock("guard")
            shared = Monitored({}, label="half-guarded")

            def locked_write():
                with lock:
                    shared["k"] = 1

            run_in_thread(locked_write)
            shared["k"] = 2  # no lock held: candidate set empties
            assert detector.stats()["races"] == 1

    def test_shared_reads_only_never_race(self):
        with race_check() as detector:
            shared = Monitored({"k": 1}, label="read-mostly")
            shared["k"] = 1  # exclusive owner writes once
            run_in_thread(lambda: shared.__getitem__("k"))
            run_in_thread(lambda: shared.__getitem__("k"))
            assert detector.stats()["races"] == 0

    def test_each_object_reported_once(self):
        with race_check(raise_on_race=False) as detector:
            shared = Monitored({}, label="dup")
            run_in_thread(lambda: shared.__setitem__("a", 1))
            shared["a"] = 2
            shared["a"] = 3
            assert detector.stats()["races"] == 1

    def test_forget_resets_shadow_state(self):
        with race_check(raise_on_race=False) as detector:
            shared = Monitored({}, label="phased")
            run_in_thread(lambda: shared.__setitem__("a", 1))
            shared["a"] = 2
            assert detector.stats()["races"] == 1
            detector.forget(shared.obj)
            shared["a"] = 3  # back to exclusive: no new report
            assert detector.stats()["races"] == 1


class TestPoolIntegration:
    def test_unsynchronized_kernel_caught_through_pool(self):
        barrier = threading.Barrier(2, timeout=10)
        with race_check() as detector:
            shared = Monitored({}, label="kernel-shared")

            def kernel(lo, hi):
                barrier.wait()  # both workers are live before either writes
                shared[lo] = hi

            with WorkerPool(2) as pool:
                with pytest.raises(RaceDetected):
                    pool.map_range(8, kernel)
            assert detector.stats()["races"] == 1
            assert detector.stats()["kernel_dispatches"] >= 2

    def test_tracked_lock_kernel_passes_through_pool(self):
        barrier = threading.Barrier(2, timeout=10)
        with race_check() as detector:
            lock = TrackedLock("kernel-guard")
            shared = Monitored({}, label="kernel-guarded")

            def kernel(lo, hi):
                barrier.wait()
                with lock:
                    shared[lo] = hi

            with WorkerPool(2) as pool:
                pool.map_range(8, kernel)
            assert detector.stats()["races"] == 0

    def test_record_mode_keeps_kernels_running(self):
        barrier = threading.Barrier(2, timeout=10)
        with race_check(raise_on_race=False) as detector:
            shared = Monitored({}, label="recorded")

            def kernel(lo, hi):
                barrier.wait()
                shared[lo] = hi
                return hi - lo

            with WorkerPool(2) as pool:
                results = pool.map_range(8, kernel)
            assert sum(results) == 8
            stats = detector.stats()
            assert stats["races"] == 1
            assert stats["race_labels"][0].startswith("recorded")


class TestConcurrentContainersSilent:
    def test_hash_table_stress_is_silent(self):
        with race_check() as detector:
            table = LinearProbingHashTable(expected=4096)
            keys = np.arange(2000, dtype=np.int64)

            def kernel(lo, hi):
                for key in range(lo, hi):
                    table.insert(int(key), int(key) * 2)

            with WorkerPool(4) as pool:
                pool.map_range(len(keys), kernel)
            assert detector.stats()["races"] == 0
            assert table.lookup(1999) == 3998

    def test_concurrent_vector_stress_is_silent(self):
        with race_check() as detector:
            vector = ConcurrentVector(capacity=8192)

            def kernel(lo, hi):
                for value in range(lo, hi):
                    vector.append(value)

            with WorkerPool(4) as pool:
                pool.map_range(4000, kernel)
            assert len(vector) == 4000
            assert detector.stats()["races"] == 0

    def test_atomic_counter_stress_is_silent(self):
        with race_check() as detector:
            counter = AtomicCounter()

            def kernel(lo, hi):
                for _ in range(lo, hi):
                    counter.fetch_add(1)

            with WorkerPool(4) as pool:
                pool.map_range(1000, kernel)
            assert counter.value == 1000
            assert detector.stats()["races"] == 0


class TestEngineWiring:
    def test_disabled_by_default(self):
        with Ringo(workers=1):
            assert races.current() is None

    def test_session_does_not_disown_foreign_detector(self):
        detector = races.enable()
        try:
            with Ringo(workers=1):
                pass
            assert races.current() is detector
        finally:
            races.disable()


class TestHooksOverheadPath:
    def test_hooks_are_noops_when_disabled(self):
        assert hooks.get_detector() is None
        hooks.container_access(object(), "nothing", write=True)
        hooks.kernel_dispatch()  # must not raise

    def test_held_stack_balances(self):
        lock = TrackedLock()
        assert hooks.held_locks() == ()
        with lock:
            assert hooks.held_locks() == (lock,)
        assert hooks.held_locks() == ()
