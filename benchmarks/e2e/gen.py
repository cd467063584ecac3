"""Seeded input generators for the end-to-end benchmark.

Everything the program under test sees is produced here from ``--seed``;
the same seed gives the same inputs, byte for byte. The generators are
the benchmark's own (numpy only) rather than the package's, so a later
change to ``repro.workflows`` or ``repro.algorithms.generators`` cannot
silently change what the benchmark measures.

Why each input was chosen is recorded next to its generator and repeated
in the README's workload table.
"""

from __future__ import annotations

import numpy as np

TAGS = ("Java", "Python", "SQL", "C++", "JavaScript")
EXPERTS_PER_TAG = 10


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    return np.random.default_rng([seed, *stream.encode()])


# ----------------------------------------------------------------------
# pipeline: synthetic StackOverflow posts (paper §4.1)
# ----------------------------------------------------------------------

def stackoverflow_posts(seed: int, num_users: int, num_questions: int) -> dict:
    """Posts with planted per-tag experts, as column arrays.

    Chosen because it is the paper's own demo input: one wide table
    that every lap filters five ways, self-joins on the accepted answer
    and turns into an asker -> answerer graph. Users ``[t*10, t*10+10)``
    are tag ``t``'s experts; they write 70 % of its answers and are
    preferred as the accepted answer, so PageRank must surface them —
    which is what the workload's correctness check asserts.

    Returns ``{"columns": {...}, "experts": {tag: [user ids]}}`` with
    rows in ``PostId`` order (a question followed by its answers).
    """
    rng = _rng(seed, "posts")
    first_regular = EXPERTS_PER_TAG * len(TAGS)
    q_tag = rng.integers(0, len(TAGS), num_questions)
    q_asker = rng.integers(first_regular, num_users, num_questions)
    per_question = rng.poisson(1.75, num_questions)

    a_question = np.repeat(np.arange(num_questions), per_question)
    a_expert = rng.random(a_question.size) < 0.7
    expert_ids = q_tag[a_question] * EXPERTS_PER_TAG + rng.integers(
        0, EXPERTS_PER_TAG, a_question.size
    )
    regular_ids = rng.integers(first_regular, num_users, a_question.size)
    a_user = np.where(a_expert, expert_ids, regular_ids)
    # One answer per (question, user), and nobody answers themself.
    _, first = np.unique(a_question * num_users + a_user, return_index=True)
    keep = np.zeros(a_question.size, dtype=bool)
    keep[first] = True
    keep &= a_user != q_asker[a_question]
    a_question, a_user, a_expert = a_question[keep], a_user[keep], a_expert[keep]

    counts = np.bincount(a_question, minlength=num_questions)
    q_post = 1 + np.arange(num_questions) + np.cumsum(counts) - counts
    starts = np.cumsum(counts) - counts
    a_post = q_post[a_question] + 1 + (np.arange(a_question.size) - starts[a_question])

    # Accepted answer: 80 % of answered questions, an expert's if any.
    priority = rng.random(a_question.size) + a_expert
    order = np.lexsort((priority, a_question))
    last_of_question = np.cumsum(counts)[counts > 0] - 1
    best = order[last_of_question]
    accepted = np.zeros(num_questions, dtype=np.int64)
    accepted[a_question[best]] = a_post[best]
    accepted[rng.random(num_questions) >= 0.8] = 0

    post_id = np.concatenate([q_post, a_post])
    row = np.argsort(post_id, kind="stable")
    is_question = np.concatenate(
        [np.ones(num_questions, bool), np.zeros(a_question.size, bool)]
    )[row]
    columns = {
        "PostId": post_id[row],
        "Type": np.where(is_question, "question", "answer"),
        "UserId": np.concatenate([q_asker, a_user])[row],
        "AnswerId": np.concatenate([accepted, np.zeros(a_question.size, np.int64)])[row],
        "ParentId": np.concatenate(
            [np.zeros(num_questions, np.int64), q_post[a_question]]
        )[row],
        "Tag": np.array(TAGS)[np.concatenate([q_tag, q_tag[a_question]])[row]],
    }
    experts = {
        tag: list(range(i * EXPERTS_PER_TAG, (i + 1) * EXPERTS_PER_TAG))
        for i, tag in enumerate(TAGS)
    }
    return {"columns": columns, "experts": experts}


POSTS_COLUMNS = ("PostId", "Type", "UserId", "AnswerId", "ParentId", "Tag")


def write_tsv(path, columns: dict, order: "tuple[str, ...]") -> int:
    """Write column arrays as a headerless TSV; returns the row count."""
    lists = [columns[name].tolist() for name in order]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "".join("\t".join(map(str, row)) + "\n" for row in zip(*lists))
        )
    return len(lists[0])


# ----------------------------------------------------------------------
# analytics / churn: R-MAT graph
# ----------------------------------------------------------------------

def rmat_edges(seed: int, scale: int, num_edges: int) -> "tuple[np.ndarray, np.ndarray]":
    """Distinct directed R-MAT edges without self-loops.

    Chosen because its heavy-tailed degrees are what make triangle
    counting, k-core and SCC expensive on real social graphs (the
    paper's LiveJournal/Twitter stand-in); a uniform random graph of
    the same size has almost no triangles and would hide those kernels.
    Quadrant probabilities are the Graph500 (0.57, 0.19, 0.19, 0.05).
    """
    rng = _rng(seed, "rmat")
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for _ in range(scale):
        quadrant = rng.choice(4, size=num_edges, p=(0.57, 0.19, 0.19, 0.05))
        src = (src << 1) | (quadrant >> 1)
        dst = (dst << 1) | (quadrant & 1)
    keep = src != dst
    pairs = np.unique((src[keep] << scale) | dst[keep])
    rng.shuffle(pairs)
    return pairs >> scale, pairs & ((1 << scale) - 1)


def uniform_edges(seed: int, stream: str, num_nodes: int, num_edges: int):
    """Distinct uniform random directed edges (the service tenants' graphs).

    Chosen small and structureless on purpose: on the ``service``
    workload the kernels must stay a small part of each request so the
    wire, queueing and reply-encoding cost is what is measured.
    """
    rng = _rng(seed, stream)
    src = rng.integers(0, num_nodes, num_edges * 2)
    dst = rng.integers(0, num_nodes, num_edges * 2)
    keep = src != dst
    pairs = np.unique(src[keep] * num_nodes + dst[keep])
    rng.shuffle(pairs)
    pairs = pairs[:num_edges]
    return pairs // num_nodes, pairs % num_nodes


# ----------------------------------------------------------------------
# churn: mutation op stream over a live edge set
# ----------------------------------------------------------------------

class ChurnStream:
    """Batches of half ``del_edge`` (of live edges) / half ``add_edge``.

    Chosen to look like change-data-capture on a live graph: deletes are
    drawn from the edges that exist *now* (so none is skipped as a
    no-op), adds connect existing nodes (so the node set, and with it
    the warm-start eligibility of the incremental algorithms, is
    stable). ``live_edges()`` is the benchmark's own record of what the
    graph must contain afterwards — the reference the correctness check
    rebuilds from.
    """

    def __init__(self, seed: int, src: np.ndarray, dst: np.ndarray) -> None:
        self._rng = _rng(seed, "churn")
        self._edges = list(zip(src.tolist(), dst.tolist()))
        self._member = set(self._edges)
        self._nodes = np.union1d(src, dst)

    def next_batch(self, size: int) -> list:
        """The next ``size`` ops, applied to the stream's own edge set."""
        rng, edges, member = self._rng, self._edges, self._member
        ops = []
        for _ in range(size // 2):
            index = int(rng.integers(0, len(edges)))
            edges[index], edges[-1] = edges[-1], edges[index]
            pair = edges.pop()
            member.discard(pair)
            ops.append(["del_edge", pair[0], pair[1]])
        while len(ops) < size:
            u, v = (int(n) for n in rng.choice(self._nodes, 2))
            if u != v and (u, v) not in member:
                member.add((u, v))
                edges.append((u, v))
                ops.append(["add_edge", u, v])
        return ops

    def live_edges(self) -> "tuple[np.ndarray, np.ndarray]":
        """The edge set after every batch handed out so far."""
        pairs = np.array(self._edges, dtype=np.int64)
        return pairs[:, 0], pairs[:, 1]


# ----------------------------------------------------------------------
# service: per-client request scripts
# ----------------------------------------------------------------------

class RequestScript:
    """One closed-loop client's seeded request mix.

    40 % ``GetPageRank``, 35 % ``GetBfsLevels`` from a random source,
    10 % ``digest``, 15 % ``ApplyOps`` of 50 fresh ``add_edge``. Chosen
    as a read-mostly tenant that keeps writing to the graph it reads:
    every write invalidates what the reads would otherwise reuse, so
    result caching, follower reads and group commit all have something
    to win and something to break.
    """

    READ_OPS = ("GetPageRank", "GetBfsLevels", "digest")
    WRITE_OP = "ApplyOps"

    def __init__(self, seed: int, client: int, src, dst) -> None:
        self._rng = _rng(seed, f"client-{client}")
        self._nodes = np.union1d(src, dst)
        self._member = set(zip(src.tolist(), dst.tolist()))

    def next_request(self) -> "tuple[str, dict]":
        """The next ``(op, args)``; graph references are added by the caller."""
        rng = self._rng
        draw = rng.random()
        if draw < 0.40:
            return "GetPageRank", {}
        if draw < 0.75:
            return "GetBfsLevels", {"source": int(rng.choice(self._nodes))}
        if draw < 0.85:
            return "digest", {}
        ops = []
        while len(ops) < 50:
            u, v = (int(n) for n in rng.choice(self._nodes, 2))
            if u != v and (u, v) not in self._member:
                self._member.add((u, v))
                ops.append(["add_edge", u, v])
        return "ApplyOps", {"ops": ops}
