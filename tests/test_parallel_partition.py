"""Tests for repro.parallel.partition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import RingoError
from repro.parallel.partition import split_range


class TestSplitRange:
    def test_even_split(self):
        assert split_range(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_uneven_split_front_loads_extras(self):
        assert split_range(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_items(self):
        assert split_range(2, 5) == [(0, 1), (1, 2)]

    def test_zero_total(self):
        assert split_range(0, 4) == []

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            split_range(-1, 2)

    def test_zero_parts_rejected(self):
        with pytest.raises(RingoError):
            split_range(10, 0)

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=20))
    def test_spans_cover_range_exactly_once(self, total, parts):
        spans = split_range(total, parts)
        covered = [i for lo, hi in spans for i in range(lo, hi)]
        assert covered == list(range(total))

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=20))
    def test_span_lengths_balanced(self, total, parts):
        spans = split_range(total, parts)
        lengths = [hi - lo for lo, hi in spans]
        assert max(lengths) - min(lengths) <= 1
