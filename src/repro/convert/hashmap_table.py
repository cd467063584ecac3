"""Result → table conversion (paper §4.1, ``ringo.TableFromHashMap``).

Graph algorithms return per-node result maps; the demo's last line —
``S = ringo.TableFromHashMap(PR, 'User', 'Scr')`` — turns the PageRank
map into a two-column table so the workflow loop (Figure 2) can continue
with relational operations.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.exceptions import ConversionError
from repro.tables.schema import ColumnType, Schema
from repro.tables.strings import StringPool
from repro.tables.table import Table


def table_from_hashmap(
    mapping: Mapping[int, "int | float"],
    key_col: str,
    value_col: str,
    pool: StringPool | None = None,
) -> Table:
    """Build a two-column table from a ``{node_id: value}`` mapping.

    Values must be uniformly int or float; the value column type follows.
    An algorithm's :class:`~repro.algorithms.common.NodeValues` result is
    taken as its two arrays, with no pass over its items.

    >>> table = table_from_hashmap({1: 0.5, 2: 0.25}, "User", "Scr")
    >>> table.schema.names
    ('User', 'Scr')
    >>> table.num_rows
    2
    """
    if key_col == value_col:
        raise ConversionError("key and value columns must have distinct names")
    from repro.algorithms.common import NodeValues

    if isinstance(mapping, NodeValues):
        # Adopt the result's arrays (copied: the table owns its columns).
        keys = mapping.node_ids.copy()
        values = mapping.value_array
        integral = len(values) == 0 or values.dtype.kind in "iub"
    else:
        keys = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
        values = list(mapping.values())
        integral = all(isinstance(value, (int, np.integer)) for value in values)
    if integral:
        value_type = ColumnType.INT
        value_array = np.array(values, dtype=np.int64)
    else:
        value_type = ColumnType.FLOAT
        value_array = np.array(values, dtype=np.float64)
    schema = Schema([(key_col, ColumnType.INT), (value_col, value_type)])
    return Table(schema, {key_col: keys, value_col: value_array}, pool=pool)
