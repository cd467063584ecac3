"""Equi-join (paper §2.3, benchmarked in Table 4).

"Ringo join operation always produces a new table object." The engine here
is a vectorised sort-probe join: the right key column is argsorted once,
each left key finds the start of its matching run with one binary search,
the run's length comes from a run table of the sorted right side, and the
output index pairs are materialised without Python-level loops. Name
clashes between the two inputs are resolved by suffixing ``-1`` (left) and
``-2`` (right) — which is exactly why the paper's StackOverflow join ends
up with ``UserId-1`` and ``UserId-2`` columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import TypeMismatchError
from repro.faults import fault_point
from repro.obs.spans import trace
from repro.tables.groupby import factorize_rows
from repro.tables.schema import ColumnType, Schema
from repro.tables.table import Table
from repro.util.keys import run_heads

LEFT_SUFFIX = "-1"
RIGHT_SUFFIX = "-2"
PROVENANCE_LEFT = "SrcRowId"
PROVENANCE_RIGHT = "DstRowId"


def _check_joinable(left: Table, right: Table, left_on: str, right_on: str) -> None:
    left_type = left.schema.require(left_on)
    right_type = right.schema.require(right_on)
    both_string = (left_type is ColumnType.STRING, right_type is ColumnType.STRING)
    if any(both_string) and not all(both_string):
        raise TypeMismatchError(
            f"cannot join {left_on!r} ({left_type.value}) with "
            f"{right_on!r} ({right_type.value})"
        )
    if all(both_string) and left.pool is not right.pool:
        raise TypeMismatchError(
            "string join requires both tables to share a string pool"
        )


def join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(left_idx, right_idx)`` where the keys are equal.

    Pairs are produced for every match (inner join with duplicates),
    ordered by left index then right sort order. Equality is
    ``factorize``'s: a NaN key joins every NaN key, and ``-0.0`` joins
    ``0.0``.

    Each left key makes one binary search for the first equal key of the
    sorted right side. When the right side repeats a key, the length of
    each match's run comes from a run table of the sorted right side,
    built in one pass.
    """
    if len(left_keys) == 0 or len(right_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    right_order = np.argsort(right_keys, kind="stable")
    right_sorted = right_keys[right_order]
    n_right = len(right_sorted)
    span_lo = np.searchsorted(right_sorted, left_keys, side="left")
    # Past the end every right key sorts below the probe, so the last
    # one cannot equal it.
    found = right_sorted[np.minimum(span_lo, n_right - 1)]
    hit = found == left_keys
    if right_sorted.dtype.kind == "f":
        # A NaN probe lands on the first NaN, which compares unequal.
        hit |= np.isnan(found) & np.isnan(left_keys)
    left_idx = np.flatnonzero(hit)
    lo_hit = span_lo[left_idx]
    heads = run_heads(right_sorted)
    if len(left_idx) == 0 or heads.all():
        # No hit, or no repeated right key: each hit is exactly one pair.
        return left_idx, right_order[lo_hit]
    run_starts = np.flatnonzero(heads)
    run_end = np.empty(n_right, dtype=np.int64)  # read at run starts only
    run_end[run_starts] = np.append(run_starts[1:], n_right)
    counts = run_end[lo_hit] - lo_hit
    total = int(counts.sum())
    # Positions into right_sorted: for each matching left row, the run
    # lo .. lo + count. Built with the cumsum-of-steps trick: each
    # position advances by 1 within a run, and each run's first step
    # jumps from the previous run's last position to this run's start.
    steps = np.ones(total, dtype=np.int64)
    out_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    prev_last = np.concatenate(([0], lo_hit[:-1] + counts[:-1] - 1))
    steps[out_starts] = lo_hit - prev_last
    positions = np.cumsum(steps)
    return np.repeat(left_idx, counts), right_order[positions]


def composite_keys(
    left_columns: Sequence[np.ndarray], right_columns: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Factorise multi-column keys into comparable int64 ids.

    Equal tuples across the two sides get equal ids, so a multi-column
    join reduces to a single-column join on the ids. Ids number tuples
    by first appearance, left rows before right ones.
    """
    if len(left_columns) != len(right_columns):
        raise TypeMismatchError("key column lists must have equal length")
    n_left = len(left_columns[0]) if left_columns else 0
    ids, _ = factorize_rows(
        [
            np.concatenate([np.asarray(l), np.asarray(r)])
            for l, r in zip(left_columns, right_columns)
        ]
    )
    return ids[:n_left], ids[n_left:]


def join(
    left: Table,
    right: Table,
    left_on: "str | Sequence[str]",
    right_on: "str | Sequence[str] | None" = None,
    include_provenance: bool = False,
    how: str = "inner",
) -> Table:
    """Equi-join of two tables on one or more key columns.

    Always produces a new table (fresh row ids), as Ringo's join does.
    With ``include_provenance=True``, ``SrcRowId``/``DstRowId`` columns
    record which input rows produced each output row — the fine-grained
    data-tracking feature §2.3 highlights.

    ``how`` is ``inner`` (default) or ``left``. A left join keeps
    unmatched left rows; since columns have no null representation,
    their right-side cells are filled with 0 / 0.0 / "" by type (and
    their ``DstRowId`` provenance is -1).

    >>> users = Table.from_columns({"Id": [1, 2], "Name": ["ann", "bo"]})
    >>> posts = Table.from_columns({"UserId": [2, 2, 9]})
    >>> join(users, posts, "Id", "UserId").num_rows
    2
    >>> join(users, posts, "Id", "UserId", how="left").num_rows
    3
    """
    if how not in ("inner", "left"):
        raise TypeMismatchError(f"unknown join type {how!r}; use inner or left")
    left_cols = [left_on] if isinstance(left_on, str) else list(left_on)
    if right_on is None:
        right_cols = list(left_cols)
    else:
        right_cols = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(left_cols) != len(right_cols):
        raise TypeMismatchError("left and right key lists must have equal length")
    if not left_cols:
        raise TypeMismatchError("join needs at least one key column")
    for l_name, r_name in zip(left_cols, right_cols):
        _check_joinable(left, right, l_name, r_name)
    fault_point("join.materialize")
    with trace(
        "table.join", left_rows=left.num_rows, right_rows=right.num_rows, how=how
    ) as span:
        if len(left_cols) == 1:
            left_keys = left.column(left_cols[0])
            right_keys = right.column(right_cols[0])
            if left_keys.dtype != right_keys.dtype:
                left_keys = left_keys.astype(np.float64)
                right_keys = right_keys.astype(np.float64)
            left_idx, right_idx = join_indices(left_keys, right_keys)
        else:
            left_ids, right_ids = composite_keys(
                [left.column(name) for name in left_cols],
                [right.column(name) for name in right_cols],
            )
            left_idx, right_idx = join_indices(left_ids, right_ids)

        unmatched = np.empty(0, dtype=np.int64)
        if how == "left":
            matched_mask = np.zeros(left.num_rows, dtype=bool)
            matched_mask[left_idx] = True
            unmatched = np.flatnonzero(~matched_mask)
            left_idx = np.concatenate([left_idx, unmatched])

        if left.pool is not right.pool:
            has_strings = any(t is ColumnType.STRING for _, t in left.schema) or any(
                t is ColumnType.STRING for _, t in right.schema
            )
            if has_strings:
                raise TypeMismatchError(
                    "joining tables with string columns requires a shared string pool"
                )

        out_schema_cols: list[tuple[str, ColumnType]] = []
        out_columns: dict[str, np.ndarray] = {}
        clashes = set(left.schema.names) & set(right.schema.names)

        def output_name(name: str, suffix: str) -> str:
            return f"{name}{suffix}" if name in clashes else name

        def right_fill(col_type: ColumnType) -> np.ndarray:
            if col_type is ColumnType.STRING:
                code = left.pool.encode("")
                return np.full(len(unmatched), code, dtype=np.int32)
            return np.zeros(len(unmatched), dtype=col_type.dtype)

        for name, col_type in left.schema:
            out_name = output_name(name, LEFT_SUFFIX)
            out_schema_cols.append((out_name, col_type))
            out_columns[out_name] = left._raw_column(name)[left_idx]
        for name, col_type in right.schema:
            out_name = output_name(name, RIGHT_SUFFIX)
            out_schema_cols.append((out_name, col_type))
            matched_values = right._raw_column(name)[right_idx]
            if len(unmatched):
                matched_values = np.concatenate([matched_values, right_fill(col_type)])
            out_columns[out_name] = matched_values
        if include_provenance:
            out_schema_cols.append((PROVENANCE_LEFT, ColumnType.INT))
            out_columns[PROVENANCE_LEFT] = left.row_ids[left_idx]
            out_schema_cols.append((PROVENANCE_RIGHT, ColumnType.INT))
            right_prov = right.row_ids[right_idx]
            if len(unmatched):
                right_prov = np.concatenate(
                    [right_prov, np.full(len(unmatched), -1, dtype=np.int64)]
                )
            out_columns[PROVENANCE_RIGHT] = right_prov
        result = Table(Schema(out_schema_cols), out_columns, pool=left.pool)
        span.set_tag("rows", result.num_rows)
        return result
