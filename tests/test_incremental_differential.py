"""Trace-differential harness: incremental analytics vs batch reference.

The property the whole incremental subsystem hangs on: at every point
along a random mutation trace, the delta-maintained answers equal (WCC,
triangles) or ε-match (PageRank) a from-scratch batch run on an
identical copy of the graph. 50 seeded traces (25 seeds × directed and
undirected), each checked at several checkpoints, plus multigraph and
multi-worker session coverage.

PageRank's ε bound (``pagerank_epsilon``) is only valid when **both**
runs terminate on the tolerance criterion rather than the iteration
cap, so every comparison here runs with ``max_iterations=400`` — ample
for tolerance 1e-9 at damping 0.85 (which needs ~130 iterations cold).
"""

import random

import pytest

from repro.algorithms.components import weakly_connected_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangles import total_triangles, triangle_counts
from repro.incremental.engine import incremental_engine, pagerank_epsilon
from tests.helpers import apply_random_mutations, build_directed, build_undirected

DAMPING = 0.85
TOLERANCE = 1e-9
# Both sides must converge on tolerance, never the cap (see module doc).
MAX_ITER = 400
EPSILON = pagerank_epsilon(DAMPING, TOLERANCE)

SEEDS = range(25)
KINDS = ("directed", "undirected")


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine = incremental_engine()
    engine.reset()
    yield engine
    engine.reset()


def _build(kind: str, rng: random.Random, nodes: int = 40, edges: int = 90):
    """A starting graph grown through the mutators (so the log is live)."""
    pairs = [
        (rng.randrange(nodes), rng.randrange(nodes)) for _ in range(edges)
    ]
    return (build_directed if kind == "directed" else build_undirected)(pairs)


def _batch_reference(graph):
    """Batch answers on a copy, with the incremental engine forced off."""
    engine = incremental_engine()
    ref = graph.copy()
    engine.configure(enabled=False)
    try:
        return {
            "pagerank": pagerank(
                ref, damping=DAMPING, max_iterations=MAX_ITER,
                tolerance=TOLERANCE,
            ),
            "wcc": weakly_connected_components(ref),
            "triangles": triangle_counts(ref),
            "total": total_triangles(ref),
        }
    finally:
        engine.configure(enabled=True)


def _incremental_answers(graph):
    return {
        "pagerank": pagerank(
            graph, damping=DAMPING, max_iterations=MAX_ITER,
            tolerance=TOLERANCE,
        ),
        "wcc": weakly_connected_components(graph),
        "triangles": triangle_counts(graph),
        "total": total_triangles(graph),
    }


def _assert_equivalent(live, reference, context: str):
    assert live["wcc"] == reference["wcc"], f"WCC diverged {context}"
    assert live["triangles"] == reference["triangles"], (
        f"triangle counts diverged {context}"
    )
    assert live["total"] == reference["total"], (
        f"total triangles diverged {context}"
    )
    assert set(live["pagerank"]) == set(reference["pagerank"]), (
        f"pagerank node sets diverged {context}"
    )
    l1 = sum(
        abs(live["pagerank"][node] - reference["pagerank"][node])
        for node in reference["pagerank"]
    )
    assert l1 <= EPSILON, f"pagerank L1 {l1:.3e} > ε {EPSILON:.3e} {context}"
    return l1


def _run_trace(kind: str, seed: int, checkpoints: int = 6, step: int = 5):
    """One seeded trace; returns the per-checkpoint PageRank L1 gaps."""
    rng = random.Random(seed)
    graph = _build(kind, rng)
    # Seed the warm states on the starting graph.
    _assert_equivalent(
        _incremental_answers(graph), _batch_reference(graph),
        f"at seed point (kind={kind}, seed={seed})",
    )
    gaps = []
    for checkpoint in range(checkpoints):
        apply_random_mutations(graph, rng, count=rng.randrange(1, step + 1),
                               universe=40)
        gaps.append(
            _assert_equivalent(
                _incremental_answers(graph), _batch_reference(graph),
                f"at checkpoint {checkpoint} (kind={kind}, seed={seed})",
            )
        )
    return gaps


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_trace_differential(kind, seed):
    _run_trace(kind, seed)


def test_epsilon_bound_is_tight():
    """The ε bound is doing real work: warm runs land near, not at, batch.

    Across a handful of traces some checkpoint must show a *nonzero*
    PageRank gap within ε — if every gap were zero the bound (and the
    warm start) would be vacuous; if any exceeded ε the contract is
    broken (already asserted inside the trace).
    """
    observed = []
    for seed in range(6):
        for kind in KINDS:
            incremental_engine().reset()
            observed.extend(_run_trace(kind, seed, checkpoints=4))
    nonzero = [gap for gap in observed if gap > 0]
    assert nonzero, "every warm PageRank matched batch exactly — ε is vacuous"
    assert max(observed) <= EPSILON
    # Tightness: the worst observed gap is within two orders of magnitude
    # of ε, i.e. the bound is a meaningful ceiling, not a 1e6× slack.
    assert max(nonzero) > EPSILON / 100


def test_counters_show_warm_path(_fresh_engine):
    """A pure-mutator trace must ride the delta path, never fall back."""
    _run_trace("directed", seed=99)
    stats = _fresh_engine.stats()
    assert stats["delta_applied"] > 0
    assert stats["fallback_full"] == 0
    for name in ("pagerank", "wcc", "triangles"):
        modes = stats["algorithms"][name]
        assert modes.get("seed", 0) >= 1
        assert modes.get("warm", 0) >= 1, f"{name} never took the warm path"


def test_multigraph_mirror_differential():
    """Multigraph traces: safe fallback + simple-mirror equivalence.

    ``DirectedMultigraph`` mutators bump versions without feeding the
    mutation log, so its analytics must always fall back to batch —
    never a wrong answer. A simple ``DirectedGraph`` mirror tracks the
    multigraph's support (multiplicity 0↔1 transitions) through the
    incremental path and must agree with batch on the same structure.
    """
    from repro.graphs.multigraph import DirectedMultigraph

    rng = random.Random(7)
    multi = DirectedMultigraph()
    mirror = build_directed([])
    edge_ids = []
    for step in range(120):
        if edge_ids and rng.random() < 0.3:
            edge_id = edge_ids.pop(rng.randrange(len(edge_ids)))
            u, v = multi.edge_endpoints(edge_id)
            multi.del_edge(edge_id)
            if multi.edge_count(u, v) == 0:
                mirror.del_edge(u, v)
        else:
            u, v = rng.randrange(12), rng.randrange(12)
            before = multi.edge_count(u, v)
            edge_ids.append(multi.add_edge(u, v))
            if before == 0:
                mirror.add_edge(u, v)
        if step % 30 == 29:
            _assert_equivalent(
                _incremental_answers(mirror), _batch_reference(mirror),
                f"mirror at step {step}",
            )
            # The mirror really is the multigraph's simple support, and
            # analytics on that support agree (parallel edges don't
            # change WCC).
            simple = multi.to_simple()
            assert set(simple.edges()) == set(mirror.edges())
            assert weakly_connected_components(simple) == (
                weakly_connected_components(mirror)
            )


def test_multi_worker_session_trace(tmp_path):
    """ApplyOps + analytics through a live session on a two-worker pool."""
    from repro.core.engine import Ringo

    with Ringo(workers=2) as session:
        table = session.TableFromColumns(
            {"a": [1, 2, 3, 4, 1], "b": [2, 3, 4, 1, 3]}
        )
        graph = session.ToGraph(table, "a", "b")
        for batch in ([["add_edge", 4, 5], ["add_edge", 5, 1]],
                      [["del_edge", 1, 3], ["add_edge", 2, 5]]):
            summary = session.ApplyOps(graph, batch)
            assert summary["applied"] + summary["skipped"] == len(batch)
            ranks = session.GetPageRank(graph, max_iterations=MAX_ITER)
            wcc = session.GetWcc(graph)
            reference = _batch_reference(graph)
            assert wcc == reference["wcc"]
            l1 = sum(
                abs(ranks[node] - reference["pagerank"][node])
                for node in reference["pagerank"]
            )
            assert l1 <= EPSILON
