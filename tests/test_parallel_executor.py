"""Tests for repro.parallel.executor."""

import threading
import time

import pytest

from repro.exceptions import PoolClosedError, RingoError, TransientError
from repro.parallel import executor
from repro.parallel.executor import WorkerPool, effective_worker_count, serial_pool
from repro.parallel.partition import split_range
from repro.parallel.resilience import RetryPolicy


class TestEffectiveWorkerCount:
    def test_explicit_value_wins(self):
        assert effective_worker_count(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(RingoError):
            effective_worker_count(0)

    def test_env_variable_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        # Env defaults are capped at the machine's usable core count
        # (an explicit argument stays uncapped).
        expected = min(7, executor.machine_cpu_count())
        assert effective_worker_count() == expected

    def test_env_value_capped_at_machine_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "100000")
        assert effective_worker_count() == executor.machine_cpu_count()

    def test_explicit_argument_not_capped(self):
        assert effective_worker_count(100000) == 100000

    def test_default_capped_at_machine_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert effective_worker_count() == executor.machine_cpu_count()

    def test_machine_cpu_count_positive(self):
        assert executor.machine_cpu_count() >= 1

    def test_default_at_least_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert effective_worker_count() >= 1

    def test_non_integer_env_raises_typed_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(RingoError, match="REPRO_WORKERS.*'many'"):
            effective_worker_count()

    def test_non_positive_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(RingoError):
            effective_worker_count()


class TestWorkerPool:
    def test_single_worker_runs_inline(self):
        main_thread = threading.current_thread()
        seen = []
        with WorkerPool(1) as pool:
            pool.map_chunks(
                split_range(5, 2), lambda span: seen.append(threading.current_thread())
            )
        assert len(seen) == 2
        assert all(thread is main_thread for thread in seen)

    def test_split_range_chunks_keep_span_order(self):
        with WorkerPool(4) as pool:
            results = pool.map_chunks(split_range(100, pool.workers), lambda span: span)
        assert results == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_split_range_chunks_combine_to_full_sum(self):
        with WorkerPool(3) as pool:
            partials = pool.map_chunks(
                split_range(1000, pool.workers), lambda span: sum(range(*span))
            )
        assert sum(partials) == sum(range(1000))

    def test_map_chunks_empty(self):
        with WorkerPool(2) as pool:
            assert pool.map_chunks([], lambda chunk: 1) == []

    def test_map_chunks(self):
        with WorkerPool(2) as pool:
            assert pool.map_chunks([[1, 2], [3]], sum) == [3, 3]

    def test_map_chunks_preserves_order(self):
        with WorkerPool(4) as pool:
            results = pool.map_chunks(range(8), lambda i: i * i)
        assert results == [i * i for i in range(8)]

    def test_exception_in_kernel_propagates(self):
        def boom(chunk):
            raise ValueError("kernel failure")

        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="kernel failure"):
                pool.map_chunks([1, 2], boom)

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()

    def test_serial_pool_is_shared_singleton(self):
        assert serial_pool() is serial_pool()
        assert serial_pool().workers == 1

    def test_serial_pool_race_builds_exactly_one_pool(self, monkeypatch):
        monkeypatch.setattr(executor, "_SERIAL_POOL", None)
        barrier = threading.Barrier(8)
        pools = []

        def grab():
            barrier.wait()
            pools.append(serial_pool())

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(pool) for pool in pools}) == 1


class TestClosedPool:
    def test_closed_multiworker_pool_raises(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.map_chunks([1, 2], lambda chunk: chunk)

    def test_closed_serial_pool_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.map_chunks([1], lambda chunk: chunk)

    def test_closed_pool_error_carries_worker_count(self):
        pool = WorkerPool(3)
        pool.close()
        with pytest.raises(PoolClosedError) as info:
            pool.map_chunks([1, 2], lambda c: c)
        assert info.value.workers == 3


class TestFirstErrorCancellation:
    def test_fast_failure_cancels_pending_siblings(self):
        def kernel(index):
            if index == 0:
                raise ValueError("fast failure")
            time.sleep(0.3)

        with WorkerPool(2) as pool:
            start = time.monotonic()
            with pytest.raises(ValueError, match="fast failure"):
                pool.map_chunks(range(8), kernel)
            elapsed = time.monotonic() - start
        # Joining all 8 sleeps in submission order would take >1s; the
        # failing chunk must short-circuit well before that.
        assert elapsed < 1.0
        assert pool.stats.snapshot()["cancelled_partitions"] >= 1
        assert pool.stats.snapshot()["failures"] == 1


class TestRetryAndDegradation:
    def test_pool_retry_policy_recovers_transients(self):
        failures = {"left": 0}

        def flaky_once(span):
            lo, hi = span
            if lo == 0 and failures["left"] == 0:
                failures["left"] += 1
                raise TransientError("transient hiccup")
            return hi - lo

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with WorkerPool(2, retry_policy=policy) as pool:
            results = pool.map_chunks(split_range(10, pool.workers), flaky_once)
        assert results == [5, 5]
        assert pool.stats.snapshot()["retries"] == 1

    def test_repeated_parallel_failure_degrades_to_serial(self):
        def always_transient(chunk):
            raise TransientError("broken kernel")

        main_thread = threading.current_thread()
        with WorkerPool(2) as pool:
            # Three failed parallel calls in a row degrade the pool.
            for _ in range(2):
                with pytest.raises(TransientError):
                    pool.map_chunks([1, 2], always_transient)
            assert not pool.degraded
            with pytest.raises(TransientError):
                pool.map_chunks([1, 2], always_transient)
            assert pool.degraded
            # Degraded pools run inline on the caller's thread.
            seen = []
            pool.map_chunks([1, 2], lambda chunk: seen.append(threading.current_thread()))
            assert seen and all(thread is main_thread for thread in seen)
            stats = pool.stats.snapshot()
            assert stats["degraded"] is True
            assert stats["serial_fallback_calls"] >= 1

    def test_success_resets_failure_streak(self):
        def boom(chunk):
            raise TransientError("broken")

        with WorkerPool(2) as pool:
            for _ in range(2):
                with pytest.raises(TransientError):
                    pool.map_chunks([1, 2], boom)
            pool.map_chunks([1, 2], lambda chunk: None)  # success resets streak
            for _ in range(2):
                with pytest.raises(TransientError):
                    pool.map_chunks([1, 2], boom)
            assert not pool.degraded
