"""Tests for the equi-join, including the paper's StackOverflow shape."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TypeMismatchError
from repro.tables.join import composite_keys, join, join_indices
from repro.tables.strings import StringPool
from repro.tables.table import Table

# ``repro.tables.join`` the attribute is the function; this is the module.
join_module = importlib.import_module("repro.tables.join")


class TestJoinIndices:
    def test_unique_keys(self):
        left = np.array([1, 2, 3])
        right = np.array([2, 3, 4])
        li, ri = join_indices(left, right)
        assert list(zip(left[li], right[ri])) == [(2, 2), (3, 3)]

    def test_duplicates_produce_cross_product(self):
        left = np.array([7, 7])
        right = np.array([7, 7, 7])
        li, ri = join_indices(left, right)
        assert len(li) == 6

    def test_no_matches(self):
        li, ri = join_indices(np.array([1]), np.array([2]))
        assert len(li) == 0

    def test_empty_inputs(self):
        li, ri = join_indices(np.array([], dtype=np.int64), np.array([1]))
        assert len(li) == 0

    def test_interleaved_runs(self):
        left = np.array([5, 1, 5, 9])
        right = np.array([9, 5, 1, 5])
        li, ri = join_indices(left, right)
        pairs = sorted(zip(left[li].tolist(), right[ri].tolist()))
        assert pairs == [(1, 1), (5, 5), (5, 5), (5, 5), (5, 5), (9, 9)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 8), max_size=40),
        st.lists(st.integers(0, 8), max_size=40),
    )
    def test_matches_nested_loop_reference(self, left_list, right_list):
        left = np.array(left_list, dtype=np.int64)
        right = np.array(right_list, dtype=np.int64)
        li, ri = join_indices(left, right)
        got = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left_list)
            for j, rv in enumerate(right_list)
            if lv == rv
        )
        assert got == expected



def _same_key(a, b):
    """The join's equality: NaN equals NaN, and ``-0.0`` equals ``0.0``."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def nested_loop_pairs(left, right):
    """Every matching pair, by left index then right index."""
    pairs = [(i, j) for i, a in enumerate(left) for j, b in enumerate(right) if _same_key(a, b)]
    return [i for i, _ in pairs], [j for _, j in pairs]


class _NoRightProbeNumpy:
    """numpy, except that ``searchsorted(side="right")`` raises."""

    def __getattr__(self, name):
        if name != "searchsorted":
            return getattr(np, name)

        def searchsorted(a, v, side="left", sorter=None):
            if side == "right":
                raise AssertionError("a second binary search per probe")
            return np.searchsorted(a, v, side=side, sorter=sorter)

        return searchsorted


class TestJoinEquality:
    """The pairs and their order are pinned exactly, not only as a set."""

    def test_nan_joins_every_nan_and_negative_zero_joins_zero(self):
        li, ri = join_indices(
            np.array([np.nan, 1.0, -0.0]), np.array([0.0, np.nan, 1.0, np.nan])
        )
        assert (li.tolist(), ri.tolist()) == ([0, 0, 1, 2], [1, 3, 2, 0])

    def test_nan_probe_without_a_nan_on_the_build_side(self):
        li, ri = join_indices(np.array([np.nan, 2.0]), np.array([2.0, 1.0]))
        assert (li.tolist(), ri.tolist()) == ([1], [0])

    def test_zero_probes_a_negative_zero_build_side(self):
        li, ri = join_indices(np.array([0.0, -0.0, 0.0]), np.array([-0.0]))
        assert (li.tolist(), ri.tolist()) == ([0, 1, 2], [0, 0, 0])

    @pytest.mark.parametrize("right", [[1, 5, 9], [1, 1, 5, 9, 9]], ids=["unique", "repeated"])
    def test_probes_past_both_ends(self, right):
        left = [-(2**62), 0, 5, 10, 2**62]
        li, ri = join_indices(np.array(left), np.array(right))
        assert (li.tolist(), ri.tolist()) == nested_loop_pairs(left, right)

    def test_probe_past_the_end_of_a_float_side_ending_in_nan(self):
        left = [np.inf, 7.0, np.nan]
        right = [np.nan, 3.0, np.nan]
        li, ri = join_indices(np.array(left), np.array(right))
        assert (li.tolist(), ri.tolist()) == ([2, 2], [0, 2])

    def test_duplicated_build_side_in_right_index_order(self):
        li, ri = join_indices(np.array([3, 1, 3, 4]), np.array([3, 1, 3, 3]))
        assert (li.tolist(), ri.tolist()) == ([0, 0, 0, 1, 2, 2, 2], [0, 2, 3, 1, 0, 2, 3])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, math.nan, math.inf]), max_size=30),
        st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, math.nan, math.inf]), max_size=30),
    )
    def test_float_keys_match_the_nested_loop_exactly(self, left, right):
        li, ri = join_indices(np.array(left, dtype=float), np.array(right, dtype=float))
        assert (li.tolist(), ri.tolist()) == nested_loop_pairs(left, right)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-3, 12), max_size=40),
        st.lists(st.integers(-3, 12), max_size=40),
    )
    def test_int_keys_match_the_nested_loop_exactly(self, left, right):
        li, ri = join_indices(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))
        assert (li.tolist(), ri.tolist()) == nested_loop_pairs(left, right)

    def test_one_probe_per_key_on_a_build_side_without_repeats(self, monkeypatch):
        rng = np.random.default_rng(3)
        right = rng.permutation(1000)
        left = rng.integers(-10, 1010, 3000)
        expected = nested_loop_pairs(left.tolist(), right.tolist())
        monkeypatch.setattr(join_module, "np", _NoRightProbeNumpy())
        li, ri = join_indices(left, right)
        assert (li.tolist(), ri.tolist()) == expected

    def test_left_join_keeps_nan_matches_and_appends_the_unmatched(self):
        left = Table.from_columns({"k": [math.nan, 2.0, 5.0, -0.0]})
        right = Table.from_columns({"k2": [math.nan, 5.0, 0.0, 5.0]})
        result = join(left, right, "k", "k2", include_provenance=True, how="left")
        assert result.column("SrcRowId").tolist() == [0, 2, 2, 3, 1]
        assert result.column("DstRowId").tolist() == [0, 1, 3, 2, -1]

    def test_composite_keys_with_nan_and_signed_zero(self):
        left = Table.from_columns({"a": [math.nan, -0.0, 1.0], "b": [1, 2, 2]})
        right = Table.from_columns({"a": [0.0, math.nan, math.nan], "b": [2, 1, 1]})
        result = join(left, right, ["a", "b"], include_provenance=True)
        assert result.column("SrcRowId").tolist() == [0, 0, 1]
        assert result.column("DstRowId").tolist() == [1, 2, 0]

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_composite_keys_match_the_nested_loop(self, how):
        rng = np.random.default_rng(11)
        pool = np.array([0.0, -0.0, math.nan, 2.5])
        left = Table.from_columns({"a": pool[rng.integers(0, 4, 60)].tolist(), "b": rng.integers(0, 3, 60).tolist()})
        right = Table.from_columns({"a": pool[rng.integers(0, 4, 50)].tolist(), "b": rng.integers(0, 3, 50).tolist()})
        rows = lambda t: list(zip(t.column("a").tolist(), t.column("b").tolist()))
        expected = [
            (i, j) for i, x in enumerate(rows(left)) for j, y in enumerate(rows(right))
            if _same_key(x[0], y[0]) and x[1] == y[1]
        ]
        if how == "left":
            matched = {i for i, _ in expected}
            expected += [(i, -1) for i in range(left.num_rows) if i not in matched]
        result = join(left, right, ["a", "b"], include_provenance=True, how=how)
        got = list(zip(result.column("SrcRowId").tolist(), result.column("DstRowId").tolist()))
        assert got == expected

class TestCompositeKeys:
    def test_equal_tuples_get_equal_ids(self):
        left_ids, right_ids = composite_keys(
            [np.array([1, 1, 2]), np.array([5, 6, 5])],
            [np.array([1, 2]), np.array([6, 5])],
        )
        assert left_ids[1] == right_ids[0]
        assert left_ids[2] == right_ids[1]
        assert left_ids[0] not in right_ids

    def test_length_mismatch_rejected(self):
        with pytest.raises(TypeMismatchError):
            composite_keys([np.array([1])], [])


class TestJoin:
    def test_basic_inner_join(self):
        users = Table.from_columns({"Id": [1, 2, 3], "Name": ["ann", "bo", "cy"]})
        posts = Table.from_columns({"UserId": [2, 3, 3, 9], "PostId": [10, 11, 12, 13]})
        result = join(users, posts, "Id", "UserId")
        assert result.num_rows == 3
        assert sorted(result.column("PostId").tolist()) == [10, 11, 12]

    def test_clashing_names_get_paper_suffixes(self):
        questions = Table.from_columns({"UserId": [1, 2], "AnswerId": [100, 101]})
        answers = Table.from_columns({"UserId": [5, 6], "PostId": [100, 101]})
        result = join(questions, answers, "AnswerId", "PostId")
        assert "UserId-1" in result.schema
        assert "UserId-2" in result.schema
        assert result.column("UserId-1").tolist() == [1, 2]
        assert result.column("UserId-2").tolist() == [5, 6]

    def test_result_is_new_table_with_fresh_ids(self):
        left = Table.from_columns({"k": [1, 2]})
        right = Table.from_columns({"k2": [2, 1]})
        result = join(left, right, "k", "k2")
        assert result.row_ids.tolist() == [0, 1]

    def test_same_column_name_join(self):
        left = Table.from_columns({"k": [1, 2], "a": [10, 20]})
        right = Table.from_columns({"k": [2], "b": [99]})
        result = join(left, right, "k")
        assert result.column("a").tolist() == [20]
        assert result.column("b").tolist() == [99]

    def test_provenance_columns(self):
        left = Table.from_columns({"k": [5, 6]})
        right = Table.from_columns({"k2": [6]})
        result = join(left, right, "k", "k2", include_provenance=True)
        assert result.column("SrcRowId").tolist() == [1]
        assert result.column("DstRowId").tolist() == [0]

    def test_string_key_join_via_shared_pool(self):
        pool = StringPool()
        left = Table.from_columns({"tag": ["java", "go"]}, pool=pool)
        right = Table.from_columns({"tag2": ["go", "rust"]}, pool=pool)
        result = join(left, right, "tag", "tag2")
        assert result.values("tag") == ["go"]

    def test_string_key_join_different_pools_rejected(self):
        left = Table.from_columns({"tag": ["a"]}, pool=StringPool())
        right = Table.from_columns({"tag2": ["a"]}, pool=StringPool())
        with pytest.raises(TypeMismatchError):
            join(left, right, "tag", "tag2")

    def test_string_vs_numeric_key_rejected(self):
        left = Table.from_columns({"tag": ["a"]})
        right = Table.from_columns({"num": [1]})
        with pytest.raises(TypeMismatchError):
            join(left, right, "tag", "num")

    def test_int_float_keys_coerce(self):
        left = Table.from_columns({"k": [1, 2]})
        right = Table.from_columns({"k2": [2.0, 3.0]})
        result = join(left, right, "k", "k2")
        assert result.column("k").tolist() == [2]

    def test_multi_column_join(self):
        left = Table.from_columns({"a": [1, 1, 2], "b": [5, 6, 5], "x": [0, 1, 2]})
        right = Table.from_columns({"a": [1, 2], "b": [6, 5], "y": [10, 20]})
        result = join(left, right, ["a", "b"])
        assert sorted(result.column("x").tolist()) == [1, 2]
        assert sorted(result.column("y").tolist()) == [10, 20]

    def test_empty_key_list_rejected(self):
        left = Table.from_columns({"a": [1]})
        with pytest.raises(TypeMismatchError):
            join(left, left, [])

    def test_key_list_length_mismatch_rejected(self):
        left = Table.from_columns({"a": [1], "b": [2]})
        with pytest.raises(TypeMismatchError):
            join(left, left, ["a"], ["a", "b"])

    def test_duplicate_keys_cross_product_count(self):
        left = Table.from_columns({"k": [1, 1, 1]})
        right = Table.from_columns({"k2": [1, 1]})
        assert join(left, right, "k", "k2").num_rows == 6

    def test_paper_question_answer_pipeline_shape(self):
        # Mirrors: QA = ringo.Join(Q, A, 'AnswerId', 'PostId')
        questions = Table.from_columns(
            {"PostId": [1, 2], "UserId": [100, 200], "AnswerId": [11, 12]}
        )
        answers = Table.from_columns(
            {"PostId": [11, 12, 13], "UserId": [300, 400, 500], "AnswerId": [0, 0, 0]}
        )
        qa = join(questions, answers, "AnswerId", "PostId")
        assert qa.num_rows == 2
        assert qa.column("UserId-1").tolist() == [100, 200]
        assert qa.column("UserId-2").tolist() == [300, 400]
