"""Per-graph mutation logs and the CSR delta-merge kernel.

The dynamic graph classes append one record per structural mutation to
an attached :class:`MutationLog` (see ``GraphBase._record_delta``).
When the snapshot cache finds a stale entry it slices the log between
the cached version and the live version, consolidates the op run into a
net :class:`EdgeDelta`, and calls :func:`apply_delta` to merge it into
the cached CSR — a sorted-key merge in numpy instead of the per-node
Python conversion loop a full rebuild pays.

Correctness hinges on the *net* form of the delta:

* an edge appears in at most one of ``edges_added`` / ``edges_deleted``
  (an add cancels a pending delete and vice versa), so every net-deleted
  edge exists in the base and every net-added edge is absent from it;
* ``del_node`` is recorded as explicit per-incident-edge deletes
  followed by the node delete, so a net-deleted node never has a
  surviving edge and the merge needs no implicit cascade;
* the log poisons itself on anything it cannot replay (bulk adjacency
  installs, version gaps, overflow), and a poisoned or gapped slice
  makes the cache fall back to a full rebuild — degraded performance,
  never a wrong answer.

:func:`apply_delta` produces a snapshot that is **bitwise identical** to
``CSRGraph.from_graph`` on the mutated graph (the property the
trace-differential harness pins down), including the undirected
representation detail that the out- and in-orientations share one
physical array pair.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.exceptions import RingoError
from repro.graphs.csr import CSRGraph

#: A log that outgrows this many retained ops poisons itself — the
#: consumer has stopped draining it and unbounded growth would quietly
#: become a leak attached to the graph object.
MAX_LOG_OPS = 1 << 20

#: Node-count ceiling for the keyed merge: edge keys are ``row * n +
#: col`` in int64, so ``n`` must stay below 2**31 for the product to be
#: overflow-free. Graphs beyond this fall back to a full rebuild.
MAX_MERGE_NODES = 1 << 31


class DeltaError(RingoError):
    """A delta could not be applied to its base snapshot.

    Raised by :func:`apply_delta` when an invariant fails (a dangling
    delete, a duplicate add, a node-set mismatch). The snapshot cache
    treats it as a signal to fall back to a full rebuild.
    """


class MutationLog:
    """Version-stamped structural mutation log attached to one graph.

    Records are ``(version, kind, a, b)`` tuples appended by the graph
    mutators after each version bump. The log is *contiguous*: a record
    must carry the current ``contiguous_until`` version (several records
    may share one bump — ``del_node`` emits one per incident edge) or
    advance it by exactly one; any larger jump means a mutation went
    unrecorded and the log poisons itself.

    ``slice(v0, v1)`` returns the ops in ``(v0, v1]`` only when the log
    can prove it observed every mutation in that window; otherwise it
    returns ``None`` and the caller rebuilds from scratch.
    """

    __slots__ = (
        "_lock", "start_version", "contiguous_until", "_ops",
        "poison_reason",
    )

    def __init__(self, version: int) -> None:
        self._lock = threading.Lock()
        self.start_version = int(version)
        self.contiguous_until = int(version)
        self._ops: list[tuple[int, str, int, int]] = []
        self.poison_reason: "str | None" = None

    def record(self, version: int, kind: str, a: int, b: int) -> None:
        """Append one mutation record (called by the graph mutators)."""
        self.record_many(version, [(kind, int(a), int(b))])

    def record_many(self, version: int, records: "list[tuple[str, int, int]]") -> None:
        """Append ``(kind, a, b)`` records that all carry ``version``.

        A batch applied as one net change (``ApplyOps``) records it here
        at its single version bump.
        """
        with self._lock:
            if self.poison_reason is not None:
                return
            if version == self.contiguous_until + 1:
                self.contiguous_until = version
            elif version != self.contiguous_until:
                self.poison_reason = (
                    f"version gap: recorded v{version} after v{self.contiguous_until}"
                )
                self._ops.clear()
                return
            self._ops.extend((version, kind, a, b) for kind, a, b in records)
            if len(self._ops) > MAX_LOG_OPS:
                self.poison_reason = f"log overflow past {MAX_LOG_OPS} ops"
                self._ops.clear()

    def poison(self, reason: str) -> None:
        """Mark the log unusable (bulk install, unrecordable mutation)."""
        with self._lock:
            if self.poison_reason is None:
                self.poison_reason = reason
            self._ops.clear()

    def usable_at(self, version: int) -> bool:
        """Whether the log can serve slices ending at ``version``."""
        with self._lock:
            return (
                self.poison_reason is None and self.contiguous_until == version
            )

    def slice(self, v0: int, v1: int) -> "list[tuple[str, int, int]] | None":
        """The ``(kind, a, b)`` ops in ``(v0, v1]``, or ``None``.

        ``None`` means the log cannot prove completeness over the window
        (poisoned, anchored after ``v0``, or not yet caught up to
        ``v1``) and the caller must rebuild.
        """
        with self._lock:
            if (
                self.poison_reason is not None
                or v0 < self.start_version
                or self.contiguous_until < v1
            ):
                return None
            return [
                (kind, a, b)
                for version, kind, a, b in self._ops
                if v0 < version <= v1
            ]

    def drop_before(self, floor: int) -> None:
        """Discard ops at or below ``floor`` (no consumer needs them)."""
        with self._lock:
            if floor <= self.start_version:
                return
            self.start_version = min(floor, self.contiguous_until)
            self._ops = [op for op in self._ops if op[0] > floor]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ops)


class EdgeDelta:
    """The net effect of an op run: node and edge add/delete sets.

    Edge keys are ``(src, dst)`` original-id pairs for directed graphs
    and ``(min, max)`` pairs for undirected ones. The consolidation
    guarantees the add and delete sets are disjoint.
    """

    __slots__ = ("nodes_added", "nodes_deleted", "edges_added", "edges_deleted")

    def __init__(self) -> None:
        self.nodes_added: set[int] = set()
        self.nodes_deleted: set[int] = set()
        self.edges_added: set[tuple[int, int]] = set()
        self.edges_deleted: set[tuple[int, int]] = set()

    def empty(self) -> bool:
        """True when the run cancelled out to a structural no-op."""
        return not (
            self.nodes_added or self.nodes_deleted
            or self.edges_added or self.edges_deleted
        )

    def size(self) -> int:
        """Total number of net node/edge changes."""
        return (
            len(self.nodes_added) + len(self.nodes_deleted)
            + len(self.edges_added) + len(self.edges_deleted)
        )


def consolidate(ops, directed: bool) -> EdgeDelta:
    """Fold an ordered op run into its net :class:`EdgeDelta`.

    Later ops cancel earlier ones: re-adding a deleted edge removes it
    from the delete set instead of entering the add set (the edge exists
    in both base and target, so the merge must not touch it), and
    deleting a node added within the window erases it entirely.

    >>> delta = consolidate(
    ...     [("add_edge", 1, 2), ("del_edge", 1, 2), ("del_edge", 3, 4)],
    ...     directed=True,
    ... )
    >>> delta.edges_added, delta.edges_deleted
    (set(), {(3, 4)})
    """
    delta = EdgeDelta()
    for kind, a, b in ops:
        if kind == "add_node":
            if a in delta.nodes_deleted:
                delta.nodes_deleted.discard(a)
            else:
                delta.nodes_added.add(a)
        elif kind == "del_node":
            if a in delta.nodes_added:
                delta.nodes_added.discard(a)
            else:
                delta.nodes_deleted.add(a)
        elif kind in ("add_edge", "del_edge"):
            key = (a, b) if directed or a <= b else (b, a)
            if kind == "add_edge":
                if key in delta.edges_deleted:
                    delta.edges_deleted.discard(key)
                else:
                    delta.edges_added.add(key)
            else:
                if key in delta.edges_added:
                    delta.edges_added.discard(key)
                else:
                    delta.edges_deleted.add(key)
        else:
            raise DeltaError(f"unknown mutation kind {kind!r}")
    return delta


def _pair_arrays(pairs: "set[tuple[int, int]]") -> tuple[np.ndarray, np.ndarray]:
    """Split a pair set into parallel (first, second) int64 arrays."""
    if not pairs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    array = np.asarray(sorted(pairs), dtype=np.int64)
    return array[:, 0], array[:, 1]


def _exact_positions(
    haystack: np.ndarray, needles: np.ndarray, what: str
) -> np.ndarray:
    """Positions of ``needles`` in sorted ``haystack``; all must match."""
    positions = np.searchsorted(haystack, needles)
    if len(needles):
        if positions.max(initial=0) >= len(haystack) or np.any(
            haystack[np.minimum(positions, len(haystack) - 1)] != needles
        ):
            raise DeltaError(f"dangling {what}: key not present in base")
    return positions


def _merge_orientation(
    n_old: int,
    n_new: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    del_rows: np.ndarray,
    del_cols: np.ndarray,
    add_rows: np.ndarray,
    add_cols: np.ndarray,
    old_to_new: np.ndarray,
    row_alive: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge one CSR orientation: delete, remap, insert — all on sorted keys.

    Rows/cols are dense ids; deletes come in *old* dense space, adds in
    *new* dense space. Returns the merged ``(indptr, indices)``.
    """
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(n_old, dtype=np.int64), degrees)
    keys = rows * n_old + indices
    keep = np.ones(len(keys), dtype=bool)
    if len(del_rows):
        del_keys = np.sort(del_rows * n_old + del_cols)
        keep[_exact_positions(keys, del_keys, "delete")] = False
    kept_rows = rows[keep]
    kept_cols = indices[keep]
    if not bool(np.all(row_alive[kept_rows]) and np.all(row_alive[kept_cols])):
        raise DeltaError("a deleted node still has retained edges")
    # Monotone densify old → new: both endpoints survive, and the remap
    # preserves order, so the kept key sequence stays strictly ascending.
    merged_keys = old_to_new[kept_rows] * n_new + old_to_new[kept_cols]
    if len(add_rows):
        add_keys = np.sort(add_rows * n_new + add_cols)
        merged_keys = np.insert(
            merged_keys, np.searchsorted(merged_keys, add_keys), add_keys
        )
    if len(merged_keys) > 1 and int(np.diff(merged_keys).min()) <= 0:
        raise DeltaError("merged edge keys are not strictly increasing")
    new_rows = merged_keys // n_new if n_new else merged_keys
    new_cols = merged_keys % n_new if n_new else merged_keys
    new_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(new_rows, minlength=n_new)))
    ).astype(np.int64)
    return new_indptr, new_cols.astype(np.int64)


def apply_delta(base: CSRGraph, delta: EdgeDelta, directed: bool) -> CSRGraph:
    """Merge a net delta into a base CSR; raises :class:`DeltaError`.

    The result matches ``CSRGraph.from_graph`` on the mutated graph
    array-for-array. Undirected bases expand each delta edge into both
    orientations and keep the from_graph property that out- and
    in-adjacency share one physical array pair.

    >>> base = CSRGraph.from_edges([1, 2], [2, 3])
    >>> delta = EdgeDelta(); delta.edges_added.add((3, 1))
    >>> apply_delta(base, delta, directed=True).num_edges
    3
    """
    base_ids = base.node_ids
    n_old = len(base_ids)
    del_nodes = np.fromiter(
        sorted(delta.nodes_deleted), dtype=np.int64, count=len(delta.nodes_deleted)
    )
    add_nodes = np.fromiter(
        sorted(delta.nodes_added), dtype=np.int64, count=len(delta.nodes_added)
    )
    del_dense = _exact_positions(base_ids, del_nodes, "node delete")
    if len(add_nodes) and n_old:
        probe = np.clip(np.searchsorted(base_ids, add_nodes), 0, n_old - 1)
        if np.any(base_ids[probe] == add_nodes):
            raise DeltaError("added node already present in base")
    row_alive = np.ones(n_old, dtype=bool)
    row_alive[del_dense] = False
    new_node_ids = np.union1d(base_ids[row_alive], add_nodes)
    n_new = len(new_node_ids)
    if n_new >= MAX_MERGE_NODES or n_old >= MAX_MERGE_NODES:
        raise DeltaError(f"graph too large for keyed merge ({n_new} nodes)")
    old_to_new = np.searchsorted(new_node_ids, base_ids)

    del_src, del_dst = _pair_arrays(delta.edges_deleted)
    add_src, add_dst = _pair_arrays(delta.edges_added)
    del_src = _exact_positions(base_ids, del_src, "edge-delete endpoint")
    del_dst = _exact_positions(base_ids, del_dst, "edge-delete endpoint")
    add_src = _exact_positions(new_node_ids, add_src, "edge-add endpoint")
    add_dst = _exact_positions(new_node_ids, add_dst, "edge-add endpoint")

    if directed:
        out_indptr, out_indices = _merge_orientation(
            n_old, n_new, base.out_indptr, base.out_indices,
            del_src, del_dst, add_src, add_dst, old_to_new, row_alive,
        )
        in_indptr, in_indices = _merge_orientation(
            n_old, n_new, base.in_indptr, base.in_indices,
            del_dst, del_src, add_dst, add_src, old_to_new, row_alive,
        )
        return CSRGraph(
            new_node_ids, out_indptr, out_indices, in_indptr, in_indices
        )
    # Undirected: the symmetric representation stores {u, v} as (u, v)
    # and (v, u) — a self-loop once — so expand the delta the same way
    # and merge the single shared orientation.
    loops = del_src == del_dst
    sym_del_src = np.concatenate([del_src, del_dst[~loops]])
    sym_del_dst = np.concatenate([del_dst, del_src[~loops]])
    loops = add_src == add_dst
    sym_add_src = np.concatenate([add_src, add_dst[~loops]])
    sym_add_dst = np.concatenate([add_dst, add_src[~loops]])
    indptr, indices = _merge_orientation(
        n_old, n_new, base.out_indptr, base.out_indices,
        sym_del_src, sym_del_dst, sym_add_src, sym_add_dst,
        old_to_new, row_alive,
    )
    return CSRGraph(new_node_ids, indptr, indices, indptr, indices)
