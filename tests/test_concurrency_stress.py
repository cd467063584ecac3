"""Concurrency stress: conversions and pool kernels under every layer.

Every hardening layer armed at once — seeded fault injection firing
inside worker kernels, the lockset race detector set to raise, and the
snapshot sanitizer forced on. The sort-first conversion and the cached
CSR build are serial numpy; the triangle and WCC kernels then run on a
four-worker pool, where injected faults are absorbed by the pool's
retry policy (``max_triggers`` bounds each seed's faults below the
attempt budget, so the test is deterministic, not probabilistic).
Across 50 seeds every result must equal the serial answer and no
``RaceDetected``/``SanitizerError`` may surface.
"""

import numpy as np
import pytest

from repro.algorithms.components import wcc_label_array
from repro.algorithms.triangles import triangle_count_array
from repro.analysis import races, sanitize
from repro.convert.table_to_graph import sort_first_directed, sort_first_undirected
from repro.faults import inject_faults
from repro.graphs.snapshot import SnapshotCache
from repro.parallel.executor import WorkerPool
from repro.parallel.resilience import RetryPolicy

_FAULTS = {"parallel.kernel": {"rate": 0.3, "max_triggers": 2}}
_RETRIES = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)
# Dense enough that the triangle kernel cuts several wedge blocks, so
# both kernels dispatch one partition per worker.
_NODES, _EDGES = 120, 3000


@pytest.fixture
def hardened():
    """Race detector (raising) + sanitizer (forced on) for one test."""
    detector = races.current()
    owned = detector is None
    if owned:
        detector = races.enable(raise_on_race=True)
    sanitize.enable()
    yield detector
    assert sanitize.stats()["violations"] == 0
    sanitize.reset()
    if owned and races.current() is detector:
        races.disable()


def _pool_kernels(csr, pool):
    """Triangle counts and WCC labels computed on ``pool``."""
    return (
        triangle_count_array(csr.undirected_projection(), pool=pool),
        wcc_label_array(csr, pool=pool),
    )


def _assert_serial_answers(csr, triangles, labels):
    assert np.array_equal(triangles, triangle_count_array(csr.undirected_projection()))
    assert np.array_equal(labels, wcc_label_array(csr))


@pytest.mark.parametrize("seed", range(50))
def test_conversions_survive_faults_races_and_sanitizer(hardened, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, _NODES, _EDGES)
    dst = rng.integers(0, _NODES, _EDGES)
    expected = sorted(set(zip(src.tolist(), dst.tolist())))
    cache = SnapshotCache()
    with WorkerPool(4, retry_policy=_RETRIES) as pool:
        with inject_faults(_FAULTS, seed=seed) as plan:
            graph = sort_first_directed(src, dst)
            csr = cache.get(graph)  # sanitized + version-checked
            triangles, labels = _pool_kernels(csr, pool)
        assert plan.triggered.get("parallel.kernel", 0) <= 2
    assert sorted(graph.edges()) == expected
    assert csr.num_edges == len(expected)
    _assert_serial_answers(csr, triangles, labels)
    stats = cache.stats()
    assert stats["conversions"] == 1 and stats["misses"] == 1


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_undirected_conversion_under_all_layers(hardened, seed):
    rng = np.random.default_rng(1000 + seed)
    src = rng.integers(0, _NODES, _EDGES)
    dst = rng.integers(0, _NODES, _EDGES)
    expected = sorted(
        {(min(s, d), max(s, d)) for s, d in zip(src.tolist(), dst.tolist())}
    )
    with WorkerPool(4, retry_policy=_RETRIES) as pool:
        with inject_faults(_FAULTS, seed=seed):
            graph = sort_first_undirected(src, dst)
            csr = SnapshotCache().get(graph)
            triangles, labels = _pool_kernels(csr, pool)
    assert sorted(graph.edges()) == expected
    # The CSR stores the symmetrised adjacency: two half-edges per
    # undirected edge, one per self-loop.
    loops = sum(1 for s, d in expected if s == d)
    assert csr.num_edges == 2 * (len(expected) - loops) + loops
    _assert_serial_answers(csr, triangles, labels)
