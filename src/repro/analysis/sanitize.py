"""CSR snapshot sanitizer — post-conversion invariant validation.

A :class:`~repro.graphs.csr.CSRGraph` is trusted blindly by every bulk
kernel: PageRank gathers over ``in_indptr``/``in_indices``, triangle
counting intersects *sorted* rows, degree vectors steer partitioning.
A corrupted snapshot (a conversion bug, a mutation racing the build, a
fault injected mid-copy) does not crash — it silently produces wrong
analytics. The sanitizer is the runtime tripwire: under
``RINGO_SANITIZE=1`` (or :func:`enable`) every conversion the snapshot
cache performs is validated before being served:

* ``indptr`` monotone non-decreasing, starting at 0, ending at nnz;
* per-row ``indices`` sorted (the binary-search/merge contract);
* ``indices`` within ``[0, num_nodes)``;
* degree arrays summing to nnz on both orientations;
* ``node_ids`` strictly increasing (densification contract);
* cache-key coherence: the live graph's ``version`` still equals the
  version the cache is about to stamp — a mismatch means the graph
  mutated *during* the build and the snapshot is torn.

Violations raise :class:`~repro.exceptions.SanitizerError`; counters are
process-wide and surface in ``Ringo.health()["analysis"]``.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.exceptions import SanitizerError

_ENV_VAR = "RINGO_SANITIZE"

_STATE_LOCK = threading.Lock()
_FORCED: "bool | None" = None  # programmatic override; None defers to the env
_CHECKS = 0
_VIOLATIONS = 0
_LAST_VIOLATION: "str | None" = None


def env_enabled() -> bool:
    """Whether ``RINGO_SANITIZE`` requests validation."""
    return os.environ.get(_ENV_VAR, "").strip().lower() in ("1", "true", "yes", "on")


def enabled() -> bool:
    """Whether conversions should currently be sanitized."""
    forced = _FORCED
    if forced is not None:
        return forced
    return env_enabled()


def enable() -> None:
    """Force sanitizing on, regardless of the environment."""
    global _FORCED
    with _STATE_LOCK:
        _FORCED = True


def disable() -> None:
    """Force sanitizing off, regardless of the environment."""
    global _FORCED
    with _STATE_LOCK:
        _FORCED = False


def reset() -> None:
    """Return control to ``RINGO_SANITIZE`` and zero the counters."""
    global _FORCED, _CHECKS, _VIOLATIONS, _LAST_VIOLATION
    with _STATE_LOCK:
        _FORCED = None
        _CHECKS = 0
        _VIOLATIONS = 0
        _LAST_VIOLATION = None


def stats() -> dict:
    """Counter snapshot for ``Ringo.health()``."""
    with _STATE_LOCK:
        return {
            "enabled": enabled(),
            "checks": _CHECKS,
            "violations": _VIOLATIONS,
            "last_violation": _LAST_VIOLATION,
        }


def _fail(check: str, detail: str) -> None:
    global _VIOLATIONS, _LAST_VIOLATION
    with _STATE_LOCK:
        _VIOLATIONS += 1
        _LAST_VIOLATION = f"{check}: {detail}"
    raise SanitizerError(check, detail)


def _check_orientation(
    side: str, indptr: np.ndarray, indices: np.ndarray,
    degrees: np.ndarray, num_nodes: int,
) -> None:
    if len(indptr) != num_nodes + 1:
        _fail(
            f"{side}.indptr-length",
            f"len(indptr)={len(indptr)} for {num_nodes} nodes",
        )
    if num_nodes == 0:
        return
    if indptr[0] != 0:
        _fail(f"{side}.indptr-origin", f"indptr[0]={int(indptr[0])}, expected 0")
    steps = np.diff(indptr)
    if len(steps) and int(steps.min()) < 0:
        row = int(np.argmax(steps < 0))
        _fail(
            f"{side}.indptr-monotone",
            f"indptr decreases at row {row} "
            f"({int(indptr[row])} -> {int(indptr[row + 1])})",
        )
    nnz = int(indptr[-1])
    if nnz != len(indices):
        _fail(
            f"{side}.indptr-extent",
            f"indptr[-1]={nnz} but len(indices)={len(indices)}",
        )
    if len(indices):
        low = int(indices.min())
        high = int(indices.max())
        if low < 0 or high >= num_nodes:
            _fail(
                f"{side}.indices-range",
                f"indices span [{low}, {high}] outside [0, {num_nodes})",
            )
        # Per-row sortedness, vectorised: within a row every step is
        # non-decreasing, so the only positions where indices may drop
        # are row boundaries (the starts listed in indptr[1:-1]).
        drops = np.flatnonzero(np.diff(indices) < 0) + 1
        if len(drops):
            boundaries = indptr[1:-1]
            bad = np.setdiff1d(drops, boundaries, assume_unique=False)
            if len(bad):
                position = int(bad[0])
                row = int(np.searchsorted(indptr, position, side="right")) - 1
                _fail(
                    f"{side}.row-sorted",
                    f"row {row} is unsorted at offset {position} "
                    f"({int(indices[position - 1])} then {int(indices[position])})",
                )
    if int(degrees.sum()) != nnz:
        _fail(
            f"{side}.degree-sum",
            f"degrees sum to {int(degrees.sum())} but nnz={nnz}",
        )
    if not np.array_equal(np.diff(indptr), degrees):
        _fail(
            f"{side}.degree-indptr",
            "degree array disagrees with indptr row widths",
        )


def sanitize_csr(csr, graph=None, expected_version: "int | None" = None) -> dict:
    """Validate one CSR snapshot; raises :class:`SanitizerError` on violation.

    ``graph``/``expected_version`` arm the cache-coherence check: if the
    live graph's ``version`` no longer equals the version captured when
    the conversion started, the graph mutated mid-build and the snapshot
    cannot be trusted (or cached). Returns the check summary on success.

    >>> from repro.graphs.csr import CSRGraph
    >>> csr = CSRGraph.from_edges([0, 1], [1, 2])
    >>> sanitize_csr(csr)["nodes"]
    3
    """
    global _CHECKS
    with _STATE_LOCK:
        _CHECKS += 1
    node_ids = csr.node_ids
    num_nodes = csr.num_nodes
    if len(node_ids) != num_nodes:
        _fail(
            "node-ids-length",
            f"{len(node_ids)} ids for {num_nodes} nodes",
        )
    if len(node_ids) > 1 and int(np.diff(node_ids).min()) <= 0:
        _fail(
            "node-ids-sorted",
            "node_ids must be strictly increasing (densification contract)",
        )
    _check_orientation(
        "out", csr.out_indptr, csr.out_indices, csr.out_degrees(), num_nodes
    )
    _check_orientation(
        "in", csr.in_indptr, csr.in_indices, csr.in_degrees(), num_nodes
    )
    if int(csr.out_indptr[-1] if num_nodes else 0) != int(
        csr.in_indptr[-1] if num_nodes else 0
    ):
        _fail(
            "orientation-nnz",
            f"out nnz {int(csr.out_indptr[-1])} != in nnz {int(csr.in_indptr[-1])}",
        )
    if graph is not None and expected_version is not None:
        live = graph.version
        if live != expected_version:
            _fail(
                "version-coherence",
                f"graph version moved {expected_version} -> {live} during "
                f"conversion; the snapshot may be torn",
            )
    return {
        "nodes": num_nodes,
        "edges": int(csr.out_indptr[-1]) if num_nodes else 0,
        "version_checked": expected_version is not None,
    }


def maybe_sanitize(csr, graph=None, expected_version: "int | None" = None) -> None:
    """Run :func:`sanitize_csr` only when sanitizing is enabled."""
    if enabled():
        sanitize_csr(csr, graph=graph, expected_version=expected_version)


def _dense_lookup(node_ids: np.ndarray, values: np.ndarray):
    """``(positions, found_mask)`` of original ids in sorted ``node_ids``."""
    positions = np.searchsorted(node_ids, values)
    if len(node_ids) == 0:
        return positions, np.zeros(len(values), dtype=bool)
    clipped = np.minimum(positions, len(node_ids) - 1)
    return clipped, node_ids[clipped] == values


def _merged_membership(merged, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Per delta edge: ``(present_in_merged, both_endpoints_exist)``.

    Presence is a binary search over the merged snapshot's globally
    ascending out-edge keys ``src * n + dst`` (global ascent follows
    from the indptr/row-sortedness invariants checked just before).
    """
    node_ids = merged.node_ids
    count = merged.num_nodes
    src_pos, src_ok = _dense_lookup(node_ids, src)
    dst_pos, dst_ok = _dense_lookup(node_ids, dst)
    both = src_ok & dst_ok
    present = np.zeros(len(src), dtype=bool)
    if np.any(both) and count:
        query = src_pos[both] * count + dst_pos[both]
        present[both] = _dense_lookup(merged.out_edge_keys(), query)[1]
    return present, both


def sanitize_delta_view(
    merged, base, delta, graph=None, expected_version: "int | None" = None
) -> dict:
    """Validate a delta-merged snapshot against its base and overlay.

    Beyond the full :func:`sanitize_csr` pass this checks the merge
    actually honoured the overlay:

    * the version watermark the cache stamped on the merged view
      (``_delta_target_version``) matches the version it is about to be
      cached under (the overlay-LSN coherence check);
    * node arithmetic: ``merged nodes == base - deleted + added``;
    * no dangling deletes: every net-deleted edge is absent from the
      merged view (a surviving one means a stale read waiting to
      happen);
    * every net-added edge whose endpoints exist is present;
    * a projection the merge carried forward equals a fresh
      symmetrisation of the merged view, array for array.

    Raises :class:`~repro.exceptions.SanitizerError` on violation.
    """
    summary = sanitize_csr(merged, graph=graph, expected_version=expected_version)
    watermark = getattr(merged, "_delta_target_version", None)
    if expected_version is not None and watermark != expected_version:
        _fail(
            "delta.watermark",
            f"merged view stamped for v{watermark} but cached at "
            f"v{expected_version}",
        )
    expected_nodes = (
        base.num_nodes - len(delta.nodes_deleted) + len(delta.nodes_added)
    )
    if merged.num_nodes != expected_nodes:
        _fail(
            "delta.node-count",
            f"merged has {merged.num_nodes} nodes, "
            f"base {base.num_nodes} - {len(delta.nodes_deleted)} deleted "
            f"+ {len(delta.nodes_added)} added = {expected_nodes}",
        )
    if len(delta.del_src):
        present, _ = _merged_membership(merged, delta.del_src, delta.del_dst)
        if np.any(present):
            _fail(
                "delta.dangling-delete",
                f"{int(present.sum())} net-deleted edge(s) survive in the "
                f"merged view",
            )
    if len(delta.add_src):
        present, both = _merged_membership(merged, delta.add_src, delta.add_dst)
        if not np.all(both):
            _fail(
                "delta.add-endpoint",
                "a net-added edge references a node absent from the merged view",
            )
        if not np.all(present):
            _fail(
                "delta.missing-add",
                f"{int((~present).sum())} net-added edge(s) absent from the "
                f"merged view",
            )
    carried = merged._undirected
    if carried is not None:
        fresh = merged._symmetrise()
        arrays = ("node_ids", "out_indptr", "out_indices", "in_indptr", "in_indices")
        pairs = [(getattr(carried, name), getattr(fresh, name)) for name in arrays]
        if not all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs):
            _fail(
                "delta.projection",
                "the carried undirected projection differs from a fresh "
                "symmetrisation of the merged view",
            )
    summary["delta_checked"] = True
    return summary


def maybe_sanitize_delta(
    merged, base, delta, graph=None, expected_version: "int | None" = None
) -> None:
    """Run :func:`sanitize_delta_view` only when sanitizing is enabled."""
    if enabled():
        sanitize_delta_view(
            merged, base, delta, graph=graph, expected_version=expected_version
        )
