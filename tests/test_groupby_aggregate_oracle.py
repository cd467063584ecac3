"""Group-by kernels against dict-based references.

``factorize`` on keys that are nearly all distinct (its first-appearance
ranking is one pass over the rows), and per-group ``min``/``max`` of INT,
FLOAT and STRING columns. A group's float min/max is NaN when the group
holds a NaN, as numpy's ``minimum``/``maximum`` say; ``-0.0`` equals
``0.0``, so either zero may answer a group holding both.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables.groupby import factorize, group_by
from repro.tables.table import Table
from tests.test_grouping_oracle import reference_labels

_FLOATS = [0.0, -0.0, 1.5, -2.25, math.nan, math.inf, -math.inf, 1e300]
_WORDS = ["", "a", "b", "ab", "ü", "question", "answer", "aaaaaaaaX"]


def test_factorize_near_unique_float_keys():
    rng = np.random.default_rng(11)
    keys = rng.permutation(np.arange(3000) * 0.5 - 700.0)
    keys[rng.integers(0, len(keys), 40)] = np.nan
    keys[rng.integers(0, len(keys), 5)] = -0.0
    keys[rng.integers(0, len(keys), 5)] = 0.0
    keys[rng.integers(0, len(keys), 30)] = keys[rng.integers(0, len(keys), 30)]
    expected = reference_labels([(value,) for value in keys.tolist()])
    labels, firsts = factorize(keys)
    assert len(firsts) > 0.95 * len(keys)
    assert labels.tolist() == expected
    assert firsts.tolist() == [expected.index(g) for g in range(len(firsts))]


def _reference_extreme(values, agg):
    if any(isinstance(v, float) and math.isnan(v) for v in values):
        return math.nan
    return min(values) if agg == "min" else max(values)


def _same(got, expected):
    if isinstance(expected, float) and math.isnan(expected):
        return math.isnan(got)
    return got == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_group_min_max_match_the_reference(n, distinct_keys, seed):
    rng = np.random.default_rng(seed)
    columns = {
        "k": rng.integers(0, distinct_keys, n).tolist(),
        "i": rng.integers(-(2**62), 2**62, n).tolist(),
        "f": [_FLOATS[j] for j in rng.integers(0, len(_FLOATS), n)],
        "s": [_WORDS[j] for j in rng.integers(0, len(_WORDS), n)],
    }
    table = Table.from_columns(
        columns, schema=[("k", "int"), ("i", "int"), ("f", "float"), ("s", "string")]
    )
    aggregations = {
        f"{agg}_{name}": (agg, name) for agg in ("min", "max") for name in "ifs"
    }
    result = group_by(table, "k", aggregations)
    groups: dict = {}
    for row, key in enumerate(columns["k"]):
        groups.setdefault(key, []).append(row)
    assert result.column("k").tolist() == list(groups)
    for out_name, (agg, name) in aggregations.items():
        got = result.values(out_name)
        got = got if isinstance(got, list) else got.tolist()
        expected = [
            _reference_extreme([columns[name][row] for row in rows], agg)
            for rows in groups.values()
        ]
        assert all(map(_same, got, expected)), out_name
