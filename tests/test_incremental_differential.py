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
from contextlib import contextmanager

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


def _warm_counts():
    algorithms = incremental_engine().stats()["algorithms"]
    return tuple(algorithms.get(name, {}).get("warm", 0) for name in ("wcc", "triangles"))


@contextmanager
def _warm_window(graph, context: str):
    """The block's mutations are one window; then warm must equal batch.

    The window must ride the warm WCC and triangle paths: a seed run
    would compare the batch kernel with itself.
    """
    before = _warm_counts()
    yield
    _assert_equivalent(
        _incremental_answers(graph), _batch_reference(graph), context
    )
    assert _warm_counts() == tuple(count + 1 for count in before), (
        f"WCC/triangles did not advance warm {context}"
    )


def _check_window(graph, ops, context: str):
    """Apply ``ops`` (``(method, *args)`` tuples) as one warm window."""
    with _warm_window(graph, context):
        for kind, *args in ops:
            getattr(graph, kind)(*args)


@pytest.fixture
def _wide_windows(_fresh_engine):
    """Compaction off: a 30-80 mutation window must still advance warm."""
    _fresh_engine.configure(min_compact_ops=100_000)
    return _fresh_engine


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", KINDS)
def test_large_window_trace(kind, seed, _wide_windows):
    """Windows of 30-80 mutations on a dense 25-node graph.

    Many changed edges per window put several of them in one triangle,
    which is where the first-deleted / last-added attribution counts.
    """
    rng = random.Random(1000 + seed)
    graph = _build(kind, rng, nodes=25, edges=160)
    _assert_equivalent(
        _incremental_answers(graph), _batch_reference(graph),
        f"at seed point (kind={kind}, seed={seed})",
    )
    for checkpoint in range(4):
        with _warm_window(
            graph, f"at checkpoint {checkpoint} (kind={kind}, seed={seed})"
        ):
            apply_random_mutations(graph, rng, count=rng.randrange(30, 81),
                                   universe=25)


def _seeded(kind: str, edges):
    graph = (build_directed if kind == "directed" else build_undirected)(edges)
    _assert_equivalent(
        _incremental_answers(graph), _batch_reference(graph), "at seed point"
    )
    return graph


# Two triangles, {1, 2, 3} and {1, 2, 4}, sharing the edge 1-2, plus a
# tail so the graph is not only the triangles.
_TWO_TRIANGLES = [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1), (4, 5), (5, 6)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "name, edges, ops",
    [
        (
            "all three edges of a triangle added",
            [(1, 4), (2, 5), (3, 6), (4, 5)],
            [("add_edge", 2, 1), ("add_edge", 3, 2), ("add_edge", 1, 3),
             ("add_edge", 1, 2), ("add_edge", 4, 2)],
        ),
        (
            "all three edges of a triangle deleted",
            _TWO_TRIANGLES,
            [("del_edge", 2, 3), ("del_edge", 1, 2), ("del_edge", 3, 1)],
        ),
        (
            "one triangle edge deleted and one added",
            [(1, 2), (2, 3), (3, 1), (1, 4), (5, 6)],
            [("del_edge", 2, 3), ("add_edge", 2, 4), ("add_edge", 3, 4)],
        ),
        (
            "a triangle edge deleted and re-added, its neighbour deleted",
            _TWO_TRIANGLES,
            [("del_edge", 1, 2), ("del_edge", 2, 4), ("add_edge", 1, 2)],
        ),
        (
            "a node of two triangles deleted, its triangles rebuilt",
            _TWO_TRIANGLES,
            [("del_node", 2), ("add_edge", 7, 1), ("add_edge", 7, 3),
             ("add_edge", 7, 4)],
        ),
    ],
)
def test_triangle_windows(kind, name, edges, ops, _wide_windows):
    graph = _seeded(kind, edges)
    _check_window(graph, ops, f"({name}, kind={kind})")


@pytest.mark.parametrize("kind", KINDS)
def test_directed_reorientation_leaves_projection(kind, _wide_windows):
    """Deleting (1, 2) and adding (2, 1) leaves the projection as it was."""
    graph = _seeded(kind, _TWO_TRIANGLES)
    _check_window(graph, [("del_edge", 1, 2), ("add_edge", 2, 1)], f"({kind})")


@pytest.mark.parametrize("kind", KINDS)
def test_split_and_rejoin_in_one_window(kind, _wide_windows):
    """A deletion splits a component; a later add in the window rejoins it."""
    graph = _seeded(kind, [(1, 2), (2, 3), (3, 4), (4, 5), (7, 8)])
    _check_window(
        graph,
        [("del_edge", 3, 4), ("add_edge", 8, 9), ("add_edge", 5, 1)],
        f"(rejoined by another edge, kind={kind})",
    )
    _check_window(
        graph,
        [("del_edge", 2, 3), ("del_edge", 4, 5), ("add_edge", 3, 8),
         ("add_edge", 2, 3)],
        f"(one half rejoined, kind={kind})",
    )


@pytest.mark.parametrize("kind", KINDS)
def test_windows_through_the_empty_graph(kind, _wide_windows):
    """Every node deleted, then a new triangle grown from nothing."""
    graph = _seeded(kind, [(1, 2), (2, 3), (3, 1)])
    _check_window(graph, [("del_node", 1), ("del_node", 2), ("del_node", 3)],
                  f"(emptied, kind={kind})")
    _check_window(graph, [("add_edge", 5, 6), ("add_edge", 6, 7),
                          ("add_edge", 7, 5)], f"(regrown, kind={kind})")


@pytest.mark.parametrize("kind", KINDS)
def test_add_only_window_on_giant_component(kind, _wide_windows):
    """Adds only: every old component stays one unsplit super node."""
    rng = random.Random(5)
    giant = [(node, rng.randrange(node)) for node in range(1, 30)]
    small = [(40, 41), (42, 43), (44, 45), (46, 46)]
    graph = _seeded(kind, giant + small)
    _check_window(
        graph,
        [("add_edge", 41, 42), ("add_edge", 3, 44), ("add_node", 50),
         ("add_edge", 51, 52), ("add_edge", 52, 7), ("add_edge", 5, 9)],
        f"(kind={kind})",
    )


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
