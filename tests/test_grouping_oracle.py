"""Every key-numbering site against a dict-based reference.

``group_ids``, ``distinct``, ``union`` and ``composite_keys`` all number
distinct keys through ``groupby.factorize``. The reference here walks
the rows in order and numbers each key tuple the first time a dict sees
it. Float keys follow ``np.unique``: every NaN is one key, and ``-0.0``
is ``0.0``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables.extras import distinct
from repro.tables.groupby import factorize, factorize_rows, group_ids
from repro.tables.join import composite_keys, join
from repro.tables.setops import union
from repro.tables.strings import StringPool
from repro.tables.table import Table

_FLOATS = [0.0, -0.0, 1.5, -2.25, math.nan, -math.nan, math.inf, -math.inf, 1e300]
_WORDS = ["", "a", "b", "ab", "ü", "question", "answer", "aaaaaaaaX", "bbbbbbbbX"]


def _norm(value):
    """A dict key with the grouping's equality."""
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def reference_labels(rows):
    """First-appearance label of each row's key tuple."""
    seen: dict = {}
    return [seen.setdefault(tuple(map(_norm, row)), len(seen)) for row in rows]


def _column(rng, kind, n, distinct_values):
    if kind == "int":
        return rng.integers(-distinct_values, distinct_values, n).tolist()
    if kind == "float":
        pool = _FLOATS[: max(2, min(distinct_values, len(_FLOATS)))]
        return [pool[i] for i in rng.integers(0, len(pool), n)]
    return [_WORDS[i] for i in rng.integers(0, min(distinct_values, len(_WORDS)), n)]


def random_table(seed, kinds, n, pool):
    rng = np.random.default_rng(seed)
    columns = {
        f"k{i}": _column(rng, kind, n, int(rng.integers(1, 12)))
        for i, kind in enumerate(kinds)
    }
    schema = [(f"k{i}", kind) for i, kind in enumerate(kinds)]
    return Table.from_columns(columns, schema=schema, pool=pool), columns


def rows_of(columns, names):
    return list(zip(*(columns[name] for name in names)))


_KINDS = st.lists(st.sampled_from(["int", "float", "string"]), min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(_KINDS, st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_group_ids_matches_the_reference(kinds, n, seed):
    table, columns = random_table(seed, kinds, n, StringPool())
    names = list(columns)
    assert group_ids(table, names).tolist() == reference_labels(rows_of(columns, names))
    for name in names:
        assert group_ids(table, name).tolist() == reference_labels(rows_of(columns, [name]))


@settings(max_examples=80, deadline=None)
@given(_KINDS, st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_distinct_matches_the_reference(kinds, n, seed):
    table, columns = random_table(seed, kinds, n, StringPool())
    names = list(columns)
    for keys in (names, names[:1]):
        labels = reference_labels(rows_of(columns, keys))
        firsts = [row for row, label in enumerate(labels) if label not in labels[:row]]
        assert distinct(table, keys).row_ids.tolist() == table.row_ids[firsts].tolist()


@settings(max_examples=80, deadline=None)
@given(_KINDS, st.integers(0, 40), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_union_matches_the_reference(kinds, n_left, n_right, seed):
    pool = StringPool()
    left, left_columns = random_table(seed, kinds, n_left, pool)
    right, right_columns = random_table(seed + 1, kinds, n_right, pool)
    names = list(left_columns)
    seen: set = set()
    expected = []
    for row in rows_of(left_columns, names) + rows_of(right_columns, names):
        key = tuple(map(_norm, row))
        if key not in seen:
            seen.add(key)
            expected.append(key)
    result = union(left, right)
    values = [result.values(name) for name in names]
    values = [column if isinstance(column, list) else column.tolist() for column in values]
    assert [tuple(map(_norm, row)) for row in zip(*values)] == expected


@settings(max_examples=80, deadline=None)
@given(_KINDS, st.integers(0, 40), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_composite_keys_match_the_reference(kinds, n_left, n_right, seed):
    pool = StringPool()
    left, left_columns = random_table(seed, kinds, n_left, pool)
    right, right_columns = random_table(seed + 1, kinds, n_right, pool)
    names = list(left_columns)
    left_ids, right_ids = composite_keys(
        [left.column(name) for name in names], [right.column(name) for name in names]
    )
    rows = rows_of(left_columns, names) + rows_of(right_columns, names)
    assert left_ids.tolist() + right_ids.tolist() == reference_labels(rows)


def test_multi_column_join_pairs_match_the_reference():
    pool = StringPool()
    left, left_columns = random_table(5, ["int", "float", "string"], 300, pool)
    right, right_columns = random_table(6, ["int", "float", "string"], 300, pool)
    names = list(left_columns)
    result = join(left, right, names, include_provenance=True)
    left_rows = [tuple(map(_norm, row)) for row in rows_of(left_columns, names)]
    right_rows = [tuple(map(_norm, row)) for row in rows_of(right_columns, names)]
    expected = [
        (i, j) for i, key in enumerate(left_rows) for j, other in enumerate(right_rows)
        if key == other
    ]
    got = list(zip(result.column("SrcRowId").tolist(), result.column("DstRowId").tolist()))
    assert got == expected


@pytest.mark.parametrize(
    "keys,labels",
    [
        (np.array([1, np.nan, -0.0, 0.0, np.nan, 2]), [0, 1, 2, 2, 1, 3]),
        (np.array([np.nan, -np.nan, np.nan]), [0, 0, 0]),
        (np.array([3, 1, 3, 2, 1], dtype=np.int64), [0, 1, 0, 2, 1]),
        (np.array([2**63 - 1, -(2**63), 2**63 - 1]), [0, 1, 0]),
        (np.empty(0, dtype=np.int64), []),
    ],
)
def test_factorize_labels_and_firsts(keys, labels):
    got, firsts = factorize(keys)
    assert got.dtype == np.int64 and got.tolist() == labels
    assert firsts.tolist() == [labels.index(g) for g in range(len(set(labels)))]


def test_factorize_rows_keeps_wide_int_keys_apart():
    # Stacking an int64 column with a float column would round these two
    # apart-by-one ids together; factorising each column on its own does not.
    ids = np.array([2**60, 2**60 + 1, 2**60], dtype=np.int64)
    labels, _ = factorize_rows([ids, np.array([0.5, 0.5, 0.5])])
    assert labels.tolist() == [0, 1, 0]


def test_factorize_rows_compacts_before_the_product_overflows():
    n = 5000
    columns = [np.arange(n, dtype=np.int64) % (n - i) for i in range(8)]
    labels, _ = factorize_rows(columns)
    assert labels.tolist() == reference_labels(list(zip(*(c.tolist() for c in columns))))
