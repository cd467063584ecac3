"""The column-store table object (paper §2.3).

Ringo "implements tables with a column based store" because "most tabular
operations ... primarily use iterations over columns". Each column is one
contiguous numpy array; string columns hold int32 codes into a shared
:class:`~repro.tables.strings.StringPool`.

"In Ringo each row has a persistent unique identifier. This allows for
fast in-place grouping, filtering and selection. Moreover, identifiers
allow for fine-grained data tracking" — every :class:`Table` carries a
``row_ids`` vector; in-place operations filter it alongside the data, so a
record keeps its identity through a pipeline of operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import SchemaError, TypeMismatchError
from repro.tables.schema import ColumnType, Schema
from repro.tables.strings import StringPool, default_pool

_PREVIEW_ROWS = 8


class Table:
    """A relational table with typed numpy columns and persistent row ids.

    Most callers build tables through :meth:`from_columns`,
    :func:`repro.tables.io_tsv.load_table_tsv`, or the
    :class:`repro.core.engine.Ringo` session rather than this constructor.

    >>> table = Table.from_columns({"UserId": [1, 2], "Tag": ["java", "c"]})
    >>> table.num_rows
    2
    >>> table.values("Tag")
    ['java', 'c']
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        pool: StringPool | None = None,
        row_ids: np.ndarray | None = None,
    ) -> None:
        self._schema = schema
        self._pool = pool if pool is not None else default_pool()
        self._columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, col_type in schema:
            if name not in columns:
                raise SchemaError(f"schema column {name!r} missing from data")
            array = np.ascontiguousarray(columns[name], dtype=col_type.dtype)
            if array.ndim != 1:
                raise SchemaError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise SchemaError(
                    f"column {name!r} has {len(array)} rows, expected {length}"
                )
            self._columns[name] = array
        extra = set(columns) - set(schema.names)
        if extra:
            raise SchemaError(f"data columns not in schema: {', '.join(sorted(extra))}")
        self._length = length if length is not None else 0
        if row_ids is None:
            row_ids = np.arange(self._length, dtype=np.int64)
        else:
            row_ids = np.ascontiguousarray(row_ids, dtype=np.int64)
            if len(row_ids) != self._length:
                raise SchemaError(
                    f"row_ids has {len(row_ids)} entries, expected {self._length}"
                )
        self._row_ids = row_ids

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        data: Mapping[str, Sequence[object] | np.ndarray],
        schema: Schema | Sequence[tuple[str, object]] | None = None,
        pool: StringPool | None = None,
    ) -> "Table":
        """Build a table from per-column data, inferring types if needed."""
        pool = pool if pool is not None else default_pool()
        if schema is None:
            inferred = []
            for name, values in data.items():
                if isinstance(values, np.ndarray):
                    if np.issubdtype(values.dtype, np.integer):
                        inferred.append((name, ColumnType.INT))
                    elif np.issubdtype(values.dtype, np.floating):
                        inferred.append((name, ColumnType.FLOAT))
                    else:
                        inferred.append((name, ColumnType.STRING))
                else:
                    inferred.append((name, ColumnType.infer(values)))
            schema = Schema(inferred)
        elif not isinstance(schema, Schema):
            schema = Schema(schema)
        columns: dict[str, np.ndarray] = {}
        for name, col_type in schema:
            if name not in data:
                raise SchemaError(f"schema column {name!r} missing from data")
            values = data[name]
            if col_type is ColumnType.STRING and not (
                isinstance(values, np.ndarray) and values.dtype == np.int32
            ):
                columns[name] = pool.encode_many(str(v) for v in values)
            else:
                columns[name] = np.asarray(values, dtype=col_type.dtype)
        return cls(schema, columns, pool=pool)

    @classmethod
    def from_rows(
        cls,
        schema: Schema | Sequence[tuple[str, object]],
        rows: Iterable[Sequence[object]],
        pool: StringPool | None = None,
    ) -> "Table":
        """Build a table from row tuples ordered like the schema."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        materialised = [tuple(row) for row in rows]
        for row in materialised:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row has {len(row)} fields, schema has {len(schema)}"
                )
        data = {
            name: [row[index] for row in materialised]
            for index, name in enumerate(schema.names)
        }
        return cls.from_columns(data, schema=schema, pool=pool)

    @classmethod
    def empty(
        cls,
        schema: Schema | Sequence[tuple[str, object]],
        pool: StringPool | None = None,
    ) -> "Table":
        """A zero-row table with the given schema."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        columns = {
            name: np.empty(0, dtype=col_type.dtype) for name, col_type in schema
        }
        return cls(schema, columns, pool=pool)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def pool(self) -> StringPool:
        """The string pool backing this table's string columns."""
        return self._pool

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._length

    @property
    def num_cols(self) -> int:
        """Number of columns."""
        return len(self._schema)

    def __len__(self) -> int:
        return self._length

    @property
    def row_ids(self) -> np.ndarray:
        """Read-only view of the persistent row identifiers."""
        view = self._row_ids.view()
        view.flags.writeable = False
        return view

    def column(self, name: str) -> np.ndarray:
        """Read-only view of a column's physical array.

        For string columns this is the int32 code array; use
        :meth:`values` for decoded strings.
        """
        self._schema.require(name)
        view = self._columns[name].view()
        view.flags.writeable = False
        return view

    def values(self, name: str) -> "np.ndarray | list[str]":
        """Column contents with strings decoded."""
        col_type = self._schema.require(name)
        if col_type is ColumnType.STRING:
            return self._pool.decode_many(self._columns[name])
        return self.column(name)

    def row(self, index: int) -> dict[str, object]:
        """A single row as a ``{column: value}`` dict (strings decoded)."""
        if not -self._length <= index < self._length:
            raise IndexError(f"row index {index} out of range for {self._length} rows")
        out: dict[str, object] = {}
        for name, col_type in self._schema:
            raw = self._columns[name][index]
            if col_type is ColumnType.STRING:
                out[name] = self._pool.decode(int(raw))
            elif col_type is ColumnType.INT:
                out[name] = int(raw)
            else:
                out[name] = float(raw)
        return out

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Iterate rows as dicts. Convenient, not fast — use columns in bulk code."""
        for index in range(self._length):
            yield self.row(index)

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{t.value}" for n, t in self._schema)
        return f"Table({self._length} rows; {cols})"

    def head(self, count: int = _PREVIEW_ROWS) -> str:
        """A printable preview of the first ``count`` rows."""
        names = self._schema.names
        lines = ["\t".join(names)]
        for index in range(min(count, self._length)):
            row = self.row(index)
            lines.append("\t".join(str(row[name]) for name in names))
        if self._length > count:
            lines.append(f"... ({self._length - count} more rows)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Structural updates
    # ------------------------------------------------------------------

    def add_column(
        self,
        name: str,
        values: Sequence[object] | np.ndarray,
        col_type: ColumnType | str | None = None,
    ) -> None:
        """Append a column in place."""
        if col_type is None:
            if isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.integer):
                col_type = ColumnType.INT
            elif isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.floating):
                col_type = ColumnType.FLOAT
            else:
                col_type = ColumnType.infer(values)
        else:
            col_type = ColumnType.parse(col_type)
        if len(values) != self._length:
            raise SchemaError(
                f"column {name!r} has {len(values)} rows, table has {self._length}"
            )
        if col_type is ColumnType.STRING:
            array = self._pool.encode_many(str(v) for v in values)
        else:
            array = np.asarray(values, dtype=col_type.dtype)
        self._schema = self._schema.with_column(name, col_type)
        self._columns[name] = array

    def drop_column(self, name: str) -> None:
        """Remove a column in place."""
        self._schema = self._schema.without_column(name)
        del self._columns[name]

    def rename_column(self, old: str, new: str) -> None:
        """Rename a column in place."""
        self._schema = self._schema.renamed(old, new)
        if old != new:
            self._columns[new] = self._columns.pop(old)

    def clone(self) -> "Table":
        """Deep copy of data (the pool is shared, as in Ringo)."""
        columns = {name: array.copy() for name, array in self._columns.items()}
        return Table(self._schema, columns, pool=self._pool, row_ids=self._row_ids.copy())

    # ------------------------------------------------------------------
    # Row subsetting — the primitives the operators build on
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """New table containing the given row positions (ids preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        columns = {name: array[indices] for name, array in self._columns.items()}
        return Table(
            self._schema, columns, pool=self._pool, row_ids=self._row_ids[indices]
        )

    def filter_in_place(self, keep: np.ndarray) -> None:
        """Keep only rows selected by a boolean mask or index array, in place.

        This is the paper's "select in place ... the current table is
        modified": data and row ids shrink together so surviving rows keep
        their identities.
        """
        keep = np.asarray(keep)
        if keep.dtype == np.bool_:
            if len(keep) != self._length:
                raise SchemaError(
                    f"mask has {len(keep)} entries, table has {self._length} rows"
                )
            indices = np.flatnonzero(keep)
        else:
            indices = keep.astype(np.int64)
        for name in self._schema.names:
            self._columns[name] = self._columns[name][indices]
        self._row_ids = self._row_ids[indices]
        self._length = len(indices)

    def reorder_in_place(self, permutation: np.ndarray) -> None:
        """Apply a row permutation in place (used by in-place sort)."""
        permutation = np.asarray(permutation, dtype=np.int64)
        if len(permutation) != self._length:
            raise SchemaError("permutation length must equal the row count")
        for name in self._schema.names:
            self._columns[name] = self._columns[name][permutation]
        self._row_ids = self._row_ids[permutation]

    def _raw_column(self, name: str) -> np.ndarray:
        """Writable internal array — operator modules only."""
        self._schema.require(name)
        return self._columns[name]

    # ------------------------------------------------------------------
    # Memory accounting (Table 2)
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Bytes held by column arrays and row ids (pool excluded —
        it is shared across tables, as in Ringo)."""
        total = self._row_ids.nbytes
        for array in self._columns.values():
            total += array.nbytes
        return total

    # ------------------------------------------------------------------
    # Fluent operator façade (implementations live in sibling modules)
    # ------------------------------------------------------------------

    def select(self, predicate: object, in_place: bool = False) -> "Table":
        """Filter rows by a predicate string/AST/mask. See :mod:`repro.tables.select`."""
        from repro.tables.select import select

        return select(self, predicate, in_place=in_place)

    def join(self, other: "Table", left_on: str, right_on: str | None = None, **kwargs) -> "Table":
        """Inner equi-join. See :mod:`repro.tables.join`."""
        from repro.tables.join import join

        return join(self, other, left_on, right_on, **kwargs)

    def project(self, names: Sequence[str]) -> "Table":
        """Keep only ``names``. See :mod:`repro.tables.project`."""
        from repro.tables.project import project

        return project(self, names)

    def group_by(self, keys: Sequence[str] | str, aggregations: Mapping[str, tuple[str, str]] | None = None) -> "Table":
        """Group & aggregate. See :mod:`repro.tables.groupby`."""
        from repro.tables.groupby import group_by

        return group_by(self, keys, aggregations)

    def order_by(self, keys: Sequence[str] | str, ascending: bool = True, in_place: bool = False) -> "Table":
        """Sort rows. See :mod:`repro.tables.order`."""
        from repro.tables.order import order_by

        return order_by(self, keys, ascending=ascending, in_place=in_place)

    def union(self, other: "Table", distinct: bool = True) -> "Table":
        """Set union. See :mod:`repro.tables.setops`."""
        from repro.tables.setops import union

        return union(self, other, distinct=distinct)

    def intersect(self, other: "Table") -> "Table":
        """Set intersection. See :mod:`repro.tables.setops`."""
        from repro.tables.setops import intersect

        return intersect(self, other)

    def minus(self, other: "Table") -> "Table":
        """Set difference. See :mod:`repro.tables.setops`."""
        from repro.tables.setops import minus

        return minus(self, other)


def check_same_layout(left: Table, right: Table) -> None:
    """Require identical schemas and a shared pool (set operations need both)."""
    if left.schema != right.schema:
        raise TypeMismatchError(
            f"tables have different schemas: {left.schema} vs {right.schema}"
        )
    if left.pool is not right.pool:
        raise TypeMismatchError(
            "tables use different string pools; rebuild one with a shared pool"
        )
