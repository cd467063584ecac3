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

import repro.graphs.base as graphs_base
import repro.util.keys as keys_module
from repro.graphs.base import dense_labels
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


# Each regime of the counting kernel (``repro.util.keys.sorted_codes``)
# against the dict reference: dense integer ranges, a few distinct
# values, and the sort every other key falls back to.


def assert_factorize_exact(keys):
    labels, firsts = factorize(keys)
    expected = reference_labels([(value,) for value in keys.tolist()])
    assert labels.dtype == np.int64 and labels.tolist() == expected
    first_rows: dict = {}
    for row, label in enumerate(expected):
        first_rows.setdefault(label, row)
    assert firsts.tolist() == list(first_rows.values())


def assert_dense_labels_exact(values):
    ids, labels = dense_labels(values)
    expected_ids, expected_labels = np.unique(values, return_inverse=True)
    assert ids.dtype == values.dtype and ids.tolist() == expected_ids.tolist()
    assert labels.dtype == np.int64 and labels.tolist() == expected_labels.tolist()


def _dense_range_keys():
    rng = np.random.default_rng(21)
    n = 3000
    yield "negative", rng.integers(-1500, 1000, n)
    yield "bool", rng.random(n) < 0.3
    yield "uint64-near-2**64", np.uint64(2**64 - 1) - rng.integers(0, n, n).astype(np.uint64)
    yield "int64-at-the-bottom", np.int64(-(2**63)) + rng.integers(0, n, n)
    yield "int8", rng.integers(-128, 128, n).astype(np.int8)
    yield "uint8", rng.integers(0, 256, n).astype(np.uint8)
    for width in (n, n + 1):
        # Both ends of the range appear, so it spans exactly ``width`` values.
        keys = rng.integers(0, width, n)
        keys[:2] = 0, width - 1
        yield f"range-{width - n:+d}", keys


@pytest.mark.parametrize("name,keys", [pytest.param(*case, id=case[0]) for case in _dense_range_keys()])
def test_dense_range_integer_keys(name, keys):
    assert_factorize_exact(keys)
    assert_dense_labels_exact(keys)


def _few_valued_keys():
    rng = np.random.default_rng(22)
    n = 60_000
    for p in (0.1, 0.37):
        bits = rng.random(n) < p
        yield f"int64-p{p}", np.where(bits, 2**40 + 7, -(2**41))
        yield f"uint64-p{p}", np.where(bits, np.uint64(2**64 - 3), np.uint64(0x9E3779B97F4A7C15))
        yield f"float64-p{p}", np.where(bits, 2.5, -0.0)
    yield "five-values", np.array([5, 2**50, -9, 2**33, 17])[rng.integers(0, 5, n)]
    yield "signed-zeros", np.array([0.0, -0.0, 1e300])[rng.integers(0, 3, n)]


@pytest.mark.parametrize("name,keys", [pytest.param(*case, id=case[0]) for case in _few_valued_keys()])
def test_few_valued_keys(name, keys):
    assert_factorize_exact(keys)
    if name != "signed-zeros":  # which zero stands for both is unspecified
        assert_dense_labels_exact(keys)


def test_a_rare_value_the_sample_misses_falls_back_to_the_sort(monkeypatch):
    n = 60_000
    keys = np.where(np.random.default_rng(23).random(n) < 0.37, 2**45, 2**44)
    keys[n // 2 + 1] = 3  # between two strided sample rows
    sorted_keys = []
    real_sort_codes = keys_module._sort_codes
    monkeypatch.setattr(
        keys_module, "_sort_codes", lambda k: sorted_keys.append(len(k)) or real_sort_codes(k)
    )
    assert_factorize_exact(keys)
    assert sorted_keys == [n]


def test_nan_among_few_values_falls_back_and_stays_one_group():
    keys = np.array([1.5, np.nan, 2.5])[np.random.default_rng(24).integers(0, 3, 50_000)]
    assert_factorize_exact(keys)


def _high_cardinality_keys():
    rng = np.random.default_rng(25)
    n = 20_000
    yield "int64", rng.integers(-(2**62), 2**62, n)
    yield "int64-repeats", rng.integers(0, 10**9, n // 4)[rng.integers(0, n // 4, n)]
    yield "float64", np.round(rng.normal(size=n), 3)
    yield "string", np.array([f"w{i}" for i in rng.integers(0, 5000, n)])


@pytest.mark.parametrize("name,keys", [pytest.param(*case, id=case[0]) for case in _high_cardinality_keys()])
def test_high_cardinality_keys(name, keys):
    assert_factorize_exact(keys)
    assert_dense_labels_exact(keys)


def test_high_cardinality_string_column_groups():
    words = [f"user-{i}" for i in np.random.default_rng(26).integers(0, 3000, 10_000)]
    table = Table.from_columns({"w": words}, pool=StringPool())
    assert group_ids(table, "w").tolist() == reference_labels([(w,) for w in words])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40), st.integers(0, 40))
def test_dense_labels_matches_np_unique(values, spread):
    values = np.array(values + [v % (spread + 1) for v in values], dtype=np.int64)
    assert_dense_labels_exact(values)


class _NoArgsortNumpy:
    """numpy, except that ``argsort`` raises."""

    def __getattr__(self, name):
        if name == "argsort":
            raise AssertionError("np.argsort called on a countable key")
        return getattr(np, name)


@pytest.mark.parametrize(
    "keys",
    [
        np.random.default_rng(27).integers(0, 20_000, 400_000),
        np.where(np.random.default_rng(28).random(400_000) < 0.1, np.uint64(2**63 + 5), np.uint64(11)),
    ],
    ids=["dense-integer", "two-valued"],
)
def test_countable_keys_are_numbered_without_argsort(keys, monkeypatch):
    expected = factorize(keys), dense_labels(keys)
    for module in (keys_module, graphs_base):
        monkeypatch.setattr(module, "np", _NoArgsortNumpy())
    got = factorize(keys), dense_labels(keys)
    for want, have in zip(expected, got):
        assert all(np.array_equal(a, b) for a, b in zip(want, have))
