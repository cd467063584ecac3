"""Convenience table operators layered on the §2.3 primitives.

distinct, limit, top-k, value counts, and row sampling — the small
verbs an interactive exploration session reaches for constantly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import SchemaError
from repro.tables.groupby import factorize_rows
from repro.tables.order import sort_permutation
from repro.tables.schema import ColumnType, Schema
from repro.tables.table import Table
from repro.util.validation import check_non_negative, check_positive


def distinct(table: Table, columns: "Sequence[str] | None" = None) -> Table:
    """Rows that are unique on ``columns`` (all columns by default).

    Keeps the first occurrence, preserving input order and row ids.

    >>> table = Table.from_columns({"x": [1, 1, 2]})
    >>> distinct(table).column("x").tolist()
    [1, 2]
    """
    names = list(columns) if columns is not None else list(table.schema.names)
    if not names:
        raise SchemaError("distinct needs at least one column")
    _, firsts = factorize_rows([table.column(name) for name in names])
    return table.take(firsts)


def limit(table: Table, count: int) -> Table:
    """The first ``count`` rows (all rows when the table is shorter)."""
    check_non_negative(count, "count")
    return table.take(np.arange(min(count, table.num_rows), dtype=np.int64))


def top_k(table: Table, column: str, k: int, ascending: bool = False) -> Table:
    """The ``k`` rows with the largest (default) or smallest values.

    Equivalent to sort + limit but selects before materialising the
    full ordering, so it stays cheap on wide tables.
    """
    check_positive(k, "k")
    permutation = sort_permutation(table, column, ascending=ascending)
    return table.take(permutation[:k])


def value_counts(table: Table, column: str, out: str = "Count") -> Table:
    """Distinct values of ``column`` with occurrence counts, descending.

    >>> table = Table.from_columns({"tag": ["a", "b", "a"]})
    >>> result = value_counts(table, "tag")
    >>> result.values("tag"), result.column("Count").tolist()
    (['a', 'b'], [2, 1])
    """
    col_type = table.schema.require(column)
    values, counts = np.unique(table.column(column), return_counts=True)
    order = np.lexsort((values, -counts))
    schema = Schema([(column, col_type), (out, ColumnType.INT)])
    return Table(
        schema,
        {column: values[order], out: counts[order].astype(np.int64)},
        pool=table.pool,
    )


def sample_rows(table: Table, count: int, seed: int = 0) -> Table:
    """A uniform random sample of ``count`` distinct rows (ids preserved)."""
    check_positive(count, "count")
    if count > table.num_rows:
        raise SchemaError(
            f"cannot sample {count} rows from a {table.num_rows}-row table"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(table.num_rows, size=count, replace=False)
    return table.take(np.sort(picks))


def concat_rows(tables: Sequence[Table]) -> Table:
    """Stack tables with identical schemas (row ids renumbered densely)."""
    if not tables:
        raise SchemaError("concat_rows needs at least one table")
    first = tables[0]
    for other in tables[1:]:
        if other.schema != first.schema:
            raise SchemaError("all tables must share a schema")
        if other.pool is not first.pool:
            raise SchemaError("all tables must share a string pool")
    columns = {
        name: np.concatenate([t._raw_column(name) for t in tables])
        for name in first.schema.names
    }
    return Table(first.schema, columns, pool=first.pool)
