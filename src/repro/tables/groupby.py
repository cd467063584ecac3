"""Group & aggregate (paper §2.3).

Two entry points mirror the two Ringo uses:

* :func:`group_ids` supports the "fast in-place grouping" the paper ties to
  persistent row ids — it labels each row with its group without moving
  data, and can append the labels as a column.
* :func:`group_by` produces a new aggregated table (count/sum/mean/...).

Both, and every other site that numbers distinct keys (``distinct``, the
set operations, multi-column join keys, the TSV loader's string columns),
go through :func:`factorize`. It codes the keys by
:func:`repro.util.keys.sorted_codes` — by value for integers whose range
spans at most the row count, against a small sampled dictionary for keys
with a few distinct values, and by one ``argsort`` otherwise — and then
numbers the codes by first appearance with one counting pass.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import SchemaError, TypeMismatchError
from repro.obs.spans import trace
from repro.tables.schema import ColumnType, Schema
from repro.tables.table import Table
from repro.util.keys import first_appearance, sorted_codes

_AGGREGATES = ("count", "sum", "mean", "min", "max", "first")


def factorize(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` by first appearance.

    Returns ``(labels, firsts)``: ``labels[i]`` is row ``i``'s group
    (int64), and ``firsts[g]`` the first row of group ``g``, so ``firsts``
    ascends. Equality is ``np.unique``'s: NaNs form one group and ``-0.0``
    groups with ``0.0``.

    >>> labels, firsts = factorize(np.array([1, np.nan, -0.0, 0.0, np.nan, 2]))
    >>> labels.tolist(), firsts.tolist()
    ([0, 1, 2, 2, 1, 3], [0, 1, 2, 5])
    """
    codes, values = sorted_codes(keys)
    return first_appearance(codes, len(values))


def factorize_rows(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`factorize` over key tuples, one per row of equal-length ``columns``.

    Each column is factorised on its own and the labels are combined
    into one int64 key per row, compacted whenever the next product
    could overflow; the combined key is factorised last, so labels
    number tuples by first appearance.

    >>> labels, firsts = factorize_rows([np.array([1, 1, 2, 1]), np.array([5, 6, 5, 5])])
    >>> labels.tolist(), firsts.tolist()
    ([0, 1, 2, 0], [0, 1, 2])
    """
    if not columns:
        raise SchemaError("grouping needs at least one key column")
    labels, firsts = factorize(columns[0])
    if len(columns) == 1:
        return labels, firsts
    groups = len(firsts)
    for column in columns[1:]:
        inner, inner_firsts = factorize(column)
        width = len(inner_firsts)
        if groups * width >= 2**62:
            labels, firsts = factorize(labels)
            groups = len(firsts)
        labels = labels * width + inner
        groups *= width
    return factorize(labels)


def group_ids(table: Table, keys: "Sequence[str] | str") -> np.ndarray:
    """Dense int64 group label per row; equal key tuples share a label.

    Labels number groups by first appearance order of their key tuple.
    """
    if isinstance(keys, str):
        keys = [keys]
    return factorize_rows([table.column(name) for name in keys])[0]


def add_group_column(
    table: Table, keys: "Sequence[str] | str", out: str = "GroupId"
) -> Table:
    """Append a group-label column in place (the in-place grouping mode)."""
    table.add_column(out, group_ids(table, keys), ColumnType.INT)
    return table


def group_by(
    table: Table,
    keys: "Sequence[str] | str",
    aggregations: "Mapping[str, tuple[str, str]] | None" = None,
) -> Table:
    """Aggregate ``table`` per distinct key tuple.

    ``aggregations`` maps output column name to ``(aggregate, column)``
    where aggregate is one of count, sum, mean, min, max, first. When
    omitted, a single ``Count`` column is produced.

    >>> table = Table.from_columns({"k": [1, 1, 2], "v": [10, 20, 5]})
    >>> result = group_by(table, "k", {"Total": ("sum", "v")})
    >>> result.column("Total").tolist()
    [30, 5]
    """
    if isinstance(keys, str):
        keys = [keys]
    if aggregations is None:
        aggregations = {"Count": ("count", keys[0])}
    with trace("table.groupby", rows=table.num_rows, keys=len(keys)) as span:
        labels, first_occurrence = factorize_rows([table.column(name) for name in keys])
        n_groups = len(first_occurrence)

        out_schema_cols: list[tuple[str, ColumnType]] = []
        out_columns: dict[str, np.ndarray] = {}
        for name in keys:
            out_schema_cols.append((name, table.schema[name]))
            out_columns[name] = table._raw_column(name)[first_occurrence]

        for out_name, (agg, col_name) in aggregations.items():
            if out_name in dict(out_schema_cols):
                raise SchemaError(f"aggregate output {out_name!r} clashes with a key column")
            values, out_type = _aggregate(table, labels, n_groups, first_occurrence, agg, col_name)
            out_schema_cols.append((out_name, out_type))
            out_columns[out_name] = values
        span.set_tag("groups", n_groups)
        return Table(Schema(out_schema_cols), out_columns, pool=table.pool)


def _aggregate(
    table: Table,
    labels: np.ndarray,
    n_groups: int,
    first_occurrence: np.ndarray,
    agg: str,
    col_name: str,
) -> tuple[np.ndarray, ColumnType]:
    if agg not in _AGGREGATES:
        raise SchemaError(
            f"unknown aggregate {agg!r}; use one of {', '.join(_AGGREGATES)}"
        )
    col_type = table.schema.require(col_name)
    if agg == "count":
        return np.bincount(labels, minlength=n_groups).astype(np.int64), ColumnType.INT
    if agg == "first":
        return table._raw_column(col_name)[first_occurrence], col_type
    if col_type is ColumnType.STRING and agg in ("sum", "mean"):
        raise TypeMismatchError(f"cannot {agg} string column {col_name!r}")
    values = table.column(col_name)
    if agg == "sum":
        sums = np.bincount(labels, weights=values, minlength=n_groups)
        if col_type is ColumnType.INT:
            return sums.astype(np.int64), ColumnType.INT
        return sums, ColumnType.FLOAT
    if agg == "mean":
        sums = np.bincount(labels, weights=values, minlength=n_groups)
        counts = np.bincount(labels, minlength=n_groups)
        return sums / np.maximum(counts, 1), ColumnType.FLOAT
    # min/max via sort + reduceat over group-contiguous runs. The order
    # within a run changes at most which zero (0.0 or -0.0) answers.
    order = np.argsort(labels)
    boundaries = np.flatnonzero(np.diff(labels[order])) + 1
    if col_type is ColumnType.STRING:
        # Min/max of a string column means lexicographic min/max.
        decoded = np.asarray(table.values(col_name), dtype=object)[order]
        segments = np.split(decoded, boundaries)
        best = [seg.min() if agg == "min" else seg.max() for seg in segments]
        codes = table.pool.encode_many(str(v) for v in best)
        return codes, ColumnType.STRING
    reducer = np.minimum.reduceat if agg == "min" else np.maximum.reduceat
    return reducer(values[order], np.concatenate(([0], boundaries))), col_type
