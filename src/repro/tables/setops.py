"""Set operations over tables with identical schemas (paper §2.3).

Rows compare by *content*: two rows are equal when every column value is
equal (strings by decoded value; a shared pool makes that code equality).
``union``/``intersect``/``minus`` follow SQL semantics — distinct output,
with ``union(..., distinct=False)`` giving UNION ALL.
"""

from __future__ import annotations

import numpy as np

from repro.tables.groupby import factorize, factorize_rows
from repro.tables.table import Table, check_same_layout


def _row_keys(left: Table, right: Table) -> tuple[np.ndarray, np.ndarray]:
    """Factorise both tables' rows into comparable int64 keys."""
    keys, _ = factorize_rows(
        [
            np.concatenate([left.column(name), right.column(name)])
            for name in left.schema.names
        ]
    )
    return keys[: left.num_rows], keys[left.num_rows :]


def _distinct_positions(keys: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each key, in input order."""
    return factorize(keys)[1]


def union(left: Table, right: Table, distinct: bool = True) -> Table:
    """Rows of both tables; duplicates removed unless ``distinct=False``.

    The result is a new table whose rows come from ``left`` first (keeping
    left row ids) then the ``right`` rows (ids offset past left's maximum
    so ids stay unique within the result).
    """
    check_same_layout(left, right)
    left_keys, right_keys = _row_keys(left, right)
    if distinct:
        left_take = _distinct_positions(left_keys)
        right_new = ~np.isin(right_keys, left_keys)
        right_take = np.flatnonzero(right_new)
        if len(right_take):
            right_take = right_take[_distinct_positions(right_keys[right_take])]
    else:
        left_take = np.arange(left.num_rows, dtype=np.int64)
        right_take = np.arange(right.num_rows, dtype=np.int64)
    columns = {
        name: np.concatenate(
            [left._raw_column(name)[left_take], right._raw_column(name)[right_take]]
        )
        for name in left.schema.names
    }
    offset = int(left.row_ids.max()) + 1 if left.num_rows else 0
    row_ids = np.concatenate(
        [left.row_ids[left_take], right.row_ids[right_take] + offset]
    )
    return Table(left.schema, columns, pool=left.pool, row_ids=row_ids)


def intersect(left: Table, right: Table) -> Table:
    """Distinct rows of ``left`` that also appear in ``right``."""
    check_same_layout(left, right)
    left_keys, right_keys = _row_keys(left, right)
    matching = np.flatnonzero(np.isin(left_keys, right_keys))
    if len(matching):
        matching = matching[_distinct_positions(left_keys[matching])]
    return left.take(matching)


def minus(left: Table, right: Table) -> Table:
    """Distinct rows of ``left`` that do not appear in ``right``."""
    check_same_layout(left, right)
    left_keys, right_keys = _row_keys(left, right)
    keep = np.flatnonzero(~np.isin(left_keys, right_keys))
    if len(keep):
        keep = keep[_distinct_positions(left_keys[keep])]
    return left.take(keep)
