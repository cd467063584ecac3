"""``NodeValues``: the read-only per-node result every kernel returns.

It must behave as the ``{node_id: value}`` dict it replaced (``==`` both
ways, ``repr``, order, ``len``, ``get``, ``in``), refuse writes, pickle,
feed ``TableFromHashMap`` without a pass over its items, and log the
same WAL bytes as the equal dict in a durable session.
"""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.common import NodeValues
from repro.core.engine import Ringo
from repro.exceptions import AlgorithmError
from repro.incremental.engine import incremental_engine
from repro.recovery import OPS
from repro.recovery.digest import catalog_digest
from repro.recovery.ops import encode_value
from repro.recovery.wal import WAL_FILENAME, read_wal

GOLDEN = Path(__file__).parent / "fixtures" / "golden_wal"

IDS = np.array([5, 1, 3], dtype=np.int64)
SCORES = np.array([0.5, 0.25, 0.125])
AS_DICT = {5: 0.5, 1: 0.25, 3: 0.125}


def scores():
    return NodeValues(IDS, SCORES)


class TestMappingSemantics:
    def test_equals_the_dict_in_both_directions(self):
        assert scores() == AS_DICT
        assert AS_DICT == scores()
        assert scores() == {1: 0.25, 3: 0.125, 5: 0.5}  # order-free, as dicts
        assert scores() != {5: 0.5, 1: 0.25}
        assert {5: 0.5, 1: 0.25, 3: 0.0} != scores()
        assert scores() == scores()
        assert scores() == NodeValues(IDS[::-1], SCORES[::-1])
        assert scores() != NodeValues(IDS, SCORES + 1)
        assert scores() != [5, 1, 3]

    def test_repr_order_len_get_in(self):
        result = scores()
        assert repr(result) == repr(AS_DICT)
        assert list(result) == [5, 1, 3]
        assert list(result.items()) == list(AS_DICT.items())
        assert list(result.values()) == [0.5, 0.25, 0.125]
        assert len(result) == 3
        assert result.get(1) == 0.25 and result.get(2) is None
        assert result.get(2, -1.0) == -1.0
        assert 3 in result and 4 not in result
        assert result[5] == 0.5
        with pytest.raises(KeyError):
            result[4]

    def test_keys_and_values_are_python_scalars(self):
        result = NodeValues(np.array([7]), np.array([2], dtype=np.int64))
        [(key, value)] = result.items()
        assert type(key) is int and type(value) is int

    def test_is_read_only(self):
        result = scores()
        with pytest.raises(TypeError):
            result[1] = 2.0
        with pytest.raises(TypeError):
            del result[1]
        with pytest.raises(ValueError):
            result.value_array[0] = 9.0
        with pytest.raises(ValueError):
            result.node_ids[0] = 9
        with pytest.raises(TypeError):
            hash(result)

    def test_does_not_freeze_the_callers_arrays(self):
        ids, values = IDS.copy(), SCORES.copy()
        NodeValues(ids, values)
        values[0] = 1.0  # the kernel's own array stays writeable
        assert ids.flags.writeable

    def test_pickle_round_trip(self):
        result = scores()
        clone = pickle.loads(pickle.dumps(result))
        assert isinstance(clone, NodeValues)
        assert clone == result and repr(clone) == repr(result)
        assert clone.value_array.dtype == result.value_array.dtype

    def test_empty(self):
        empty = NodeValues(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert empty == {} and {} == empty
        assert len(empty) == 0 and list(empty) == [] and repr(empty) == "{}"
        assert pickle.loads(pickle.dumps(empty)) == {}

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(AlgorithmError):
            NodeValues(np.array([1, 2]), np.array([0.5]))


def _graph(ringo):
    table = ringo.TableFromColumns(
        {"s": [1, 2, 3, 3, 4, 6], "d": [2, 3, 1, 4, 5, 7]}
    )
    return ringo.ToGraph(table, "s", "d")


class TestEngineResults:
    def test_get_ops_return_node_values(self):
        with Ringo(workers=1) as ringo:
            graph = _graph(ringo)
            hubs, authorities = ringo.GetHits(graph)
            for result in (
                ringo.GetPageRank(graph), ringo.GetBfsLevels(graph, 1),
                ringo.GetWcc(graph), ringo.GetScc(graph),
                ringo.GetTriangleCounts(graph), ringo.GetCoreNumbers(graph),
                ringo.GetColoring(graph), ringo.GetCommunities(graph),
                ringo.GetClusteringCoefficients(graph), hubs, authorities,
            ):
                assert isinstance(result, NodeValues)

    def test_warm_results_do_not_alias_later_state(self):
        """A returned result keeps its values after later warm refreshes."""
        engine = incremental_engine()
        engine.reset()
        with Ringo(workers=1) as ringo:
            graph = _graph(ringo)
            results = [ringo.GetPageRank(graph), ringo.GetWcc(graph)]
            results += [ringo.GetPageRank(graph), ringo.GetWcc(graph)]  # cached
            # Arrays, not dicts: a dict built now would hide a later write.
            frozen = [result.value_array.copy() for result in results]
            for ops in (
                [["add_edge", 5, 6], ["del_edge", 3, 4]],
                [["add_edge", 5, 7]],
                [["add_edge", 5, 8]],
            ):
                ringo.ApplyOps(graph, ops)
                ringo.GetPageRank(graph)
                ringo.GetWcc(graph)
            for result, before in zip(results, frozen):
                assert np.array_equal(result.value_array, before)
            modes = engine.stats()["algorithms"]
            assert modes["pagerank"]["warm"] >= 1 and modes["wcc"]["warm"] >= 1


class TestTableFromHashMap:
    @pytest.mark.parametrize(
        "mapping",
        [
            NodeValues(IDS, SCORES),
            NodeValues(IDS, np.array([4, 0, 9], dtype=np.int64)),
            NodeValues(IDS, np.array([True, False, True])),
            NodeValues(np.zeros(0, dtype=np.int64), np.zeros(0)),
        ],
        ids=["float", "int", "bool", "empty"],
    )
    def test_columns_equal_those_built_from_the_dict(self, mapping):
        with Ringo(workers=1) as ringo:
            adopted = ringo.TableFromHashMap(mapping, "node", "value")
            assert mapping._dict is None  # adopted without building the dict
            plain = ringo.TableFromHashMap(dict(mapping), "node", "value")
            assert adopted.schema == plain.schema
            for name in ("node", "value"):
                left, right = adopted.column(name), plain.column(name)
                assert left.dtype == right.dtype
                assert np.array_equal(left, right)
            assert not np.shares_memory(adopted.column("node"), mapping.node_ids)

    def test_durable_wal_bytes_equal_the_dicts(self, tmp_path):
        logs = []
        with Ringo(workers=1) as scratch:
            graph = _graph(scratch)
            results = [scratch.GetPageRank(graph), scratch.GetWcc(graph)]
        for name, mappings in (
            ("columns", results), ("dict", [dict(r) for r in results])
        ):
            with Ringo(workers=1, durability=tmp_path / name) as ringo:
                for i, mapping in enumerate(mappings):
                    ringo.TableFromHashMap(mapping, "node", f"value{i}")
                digest = catalog_digest(ringo)
            logs.append((tmp_path / name / WAL_FILENAME).read_bytes())
            with Ringo.recover(tmp_path / name, strict=True, workers=1) as back:
                assert catalog_digest(back) == digest
        assert logs[0] == logs[1]

    def test_golden_record_encodes_from_columns(self):
        records, _ = read_wal(GOLDEN / WAL_FILENAME)
        [record] = [r for r in records if r.op == "TableFromHashMap"]
        pairs = record.args["items"]
        mapping = NodeValues([k for k, _ in pairs], [v for _, v in pairs])
        args = {"mapping": mapping, "key_col": record.args["key_col"],
                "value_col": record.args["value_col"]}
        assert OPS["TableFromHashMap"].encode(None, args, ()) == record.args


def test_encode_value_takes_node_values():
    assert encode_value(scores()) == encode_value(AS_DICT)
    assert encode_value({"nested": scores()}) == {"nested": encode_value(AS_DICT)}
