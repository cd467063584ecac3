"""Column replies: ``"accept": "columns"`` and the ``$columns`` envelope.

A request that asks for columns gets every ``NodeValues`` in its result
as base64 column bytes; ``ServiceClient.call`` and ``ServiceHandle.call``
decode them back to ``NodeValues`` equal to the in-process answer. A
request without the field gets the ``{"<id>": value}`` object, byte for
byte as before. Malformed envelopes raise ``ProtocolError``.
"""

import base64
import json
import time

import numpy as np
import pytest

from repro.algorithms.common import NodeValues
from repro.core.engine import Ringo
from repro.service import ServiceClient, ServiceConfig, ServiceHandle
from repro.service.protocol import (
    COLUMNS_KEY,
    ProtocolError,
    accepts_columns,
    decode_result,
    dump_line,
    encode_result,
    ok_response,
)

SCHEMA = [["src", "int"], ["dst", "int"]]


def round_trip(value):
    """Encode with columns, through JSON text, and decode again."""
    with Ringo(workers=1) as ringo:
        encoded = encode_result(ringo, value, columns=True)
    return encoded, decode_result(json.loads(json.dumps(encoded)))


def column(array, dtype):
    data = np.ascontiguousarray(array, dtype=np.dtype(dtype)).tobytes()
    return {"dtype": dtype, "b64": base64.b64encode(data).decode("ascii")}


class TestEnvelope:
    def test_int_columns_narrow_to_int32_when_lossless(self):
        ids = np.array([0, 2**15, 2**31 - 1, 3, -(2**31)])
        result = NodeValues(ids, np.array([0, -3, 2**31 - 1, 7, -(2**31)]))
        encoded, decoded = round_trip(result)
        columns = encoded[COLUMNS_KEY]
        assert columns["node_ids"]["dtype"] == "<i4"
        assert columns["values"]["dtype"] == "<i4"
        assert isinstance(decoded, NodeValues) and decoded == result
        assert decoded.node_ids.dtype == np.int64
        assert decoded.value_array.dtype == np.int64
        assert all(type(key) is int for key in decoded)

    def test_ids_past_int32_stay_int64(self):
        ids = np.array([1, 2**31, 2**40, -(2**31) - 1])
        result = NodeValues(ids, np.array([2**31, 1, 2, 3]))
        encoded, decoded = round_trip(result)
        assert encoded[COLUMNS_KEY]["node_ids"]["dtype"] == "<i8"
        assert encoded[COLUMNS_KEY]["values"]["dtype"] == "<i8"
        assert decoded == result and list(decoded) == ids.tolist()

    @pytest.mark.parametrize(
        "entries, dtype",
        [
            ([-128, 127], "<i1"),
            ([-129, 0], "<i2"),
            ([0, 128], "<i2"),
            ([-(2**15), 2**15 - 1], "<i2"),
            ([-(2**15) - 1], "<i4"),
            ([2**15], "<i4"),
            ([2**31 - 1, -(2**31)], "<i4"),
            ([2**31], "<i8"),
            ([-(2**31) - 1], "<i8"),
            ([2**63 - 1, -(2**63)], "<i8"),
        ],
        ids=["i1-edges", "-129", "128", "i2-edges", "-2**15-1", "2**15",
             "i4-edges", "2**31", "-2**31-1", "i8-edges"],
    )
    def test_int_columns_take_the_narrowest_lossless_width(self, entries, dtype):
        entries = np.array(entries, dtype=np.int64)
        result = NodeValues(entries, entries[::-1])
        encoded, decoded = round_trip(result)
        columns = encoded[COLUMNS_KEY]
        assert columns["node_ids"]["dtype"] == columns["values"]["dtype"] == dtype
        itemsize = np.dtype(dtype).itemsize
        assert len(base64.b64decode(columns["node_ids"]["b64"])) == itemsize * len(entries)
        assert decoded == result
        assert decoded.node_ids.dtype == decoded.value_array.dtype == np.int64
        assert decoded.node_ids.tolist() == entries.tolist()

    def test_empty_int_column_is_one_byte_wide(self):
        empty = NodeValues(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        encoded, decoded = round_trip(empty)
        assert encoded[COLUMNS_KEY]["node_ids"] == {"dtype": "<i1", "b64": ""}
        assert decoded.value_array.dtype == np.int64 and decoded == {}

    def test_bfs_levels_shrink_below_the_plain_reply(self):
        ids = np.arange(5_000, dtype=np.int64) * 3
        levels = np.arange(5_000, dtype=np.int64) % 9
        result = NodeValues(ids, levels)
        with Ringo(workers=1) as ringo:
            plain = dump_line(encode_result(ringo, result))
            columns = dump_line(encode_result(ringo, result, columns=True))
        encoded = json.loads(columns)[COLUMNS_KEY]
        assert (encoded["node_ids"]["dtype"], encoded["values"]["dtype"]) == ("<i2", "<i1")
        assert len(columns) < len(plain)

    def test_floats_are_bit_exact(self):
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1])
        result = NodeValues(np.arange(6), values)
        encoded, decoded = round_trip(result)
        assert encoded[COLUMNS_KEY]["values"]["dtype"] == "<f8"
        assert decoded.value_array.tobytes() == values.tobytes()

    def test_bools_and_empty(self):
        flags = NodeValues(np.array([3, 4]), np.array([True, False]))
        encoded, decoded = round_trip(flags)
        assert encoded[COLUMNS_KEY]["values"]["dtype"] == "|b1"
        assert decoded == {3: True, 4: False}
        _, empty = round_trip(NodeValues(np.zeros(0, dtype=np.int64), np.zeros(0)))
        assert isinstance(empty, NodeValues) and empty == {}

    def test_hits_tuple_and_nested_results(self):
        with Ringo(workers=1) as ringo:
            table = ringo.TableFromColumns({"s": [1, 2, 3, 3], "d": [2, 3, 1, 4]})
            hits = ringo.GetHits(ringo.ToGraph(table, "s", "d"))
        encoded, decoded = round_trip(hits)
        assert [set(part) for part in encoded] == [{COLUMNS_KEY}, {COLUMNS_KEY}]
        assert tuple(decoded) == hits
        _, nested = round_trip({"ranks": hits[0], "n": 4, "parts": [hits[1]]})
        assert nested == {"ranks": hits[0], "n": 4, "parts": [hits[1]]}

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"node_ids": column([1], "<i8"), "values": {"dtype": "|O", "b64": ""}},
             "not one of"),
            ({"node_ids": column([1], "<i8"), "values": {"dtype": "<f8", "b64": "AAAA"}},
             "whole number"),
            ({"node_ids": column([1, 2], "<i4"), "values": column([0.5], "<f8")},
             "lengths differ"),
            ({"node_ids": column([1], "<i4"), "values": {"dtype": "<f8", "b64": "!!"}},
             "base64"),
            ({"node_ids": column([1.0], "<f8"), "values": column([0.5], "<f8")},
             "integer"),
            ({"node_ids": column([1], "<i4")}, "exactly"),
            ({"node_ids": column([1], "<i4"), "values": "AAAA"}, "object"),
        ],
        ids=["dtype", "item-size", "lengths", "base64", "float-ids", "missing",
             "not-object"],
    )
    def test_malformed_envelopes_raise(self, columns, message):
        with pytest.raises(ProtocolError, match=message):
            decode_result({"result": [{COLUMNS_KEY: columns}]})


class TestNegotiation:
    def test_accept_field(self):
        assert accepts_columns({"op": "ping"}) is False
        assert accepts_columns({"accept": "columns"}) is True
        with pytest.raises(ProtocolError):
            accepts_columns({"accept": "arrow"})

    def test_plain_form_is_unchanged(self):
        result = NodeValues(np.array([2, 1]), np.array([0.75, np.nan]))
        with Ringo(workers=1) as ringo:
            assert dump_line(ok_response(1, encode_result(ringo, result))) == (
                b'{"id":1,"ok":true,"result":{"2":0.75,"1":NaN}}\n'
            )
            assert encode_result(ringo, [np.bool_(True), {"x": np.bool_(False)}]) == [
                True, {"x": False}
            ]


@pytest.fixture
def edges_tsv(tmp_path):
    path = tmp_path / "edges.tsv"
    with open(path, "w") as fh:
        for i in range(60):
            fh.write(f"{i}\t{(i * 7 + 3) % 60}\n{i}\t{(i * 11 + 1) % 60}\n")
    return str(path)


def load_graph(call, edges_tsv):
    table = call("LoadTableTSV", path=edges_tsv, schema=SCHEMA)
    graph = call("ToGraph", table={"$ref": table["$ref"]}, src_col="src", dst_col="dst")
    return {"$ref": graph["$ref"]}


def local_answers(edges_tsv):
    with Ringo(workers=1) as ringo:
        graph = ringo.ToGraph(ringo.LoadTableTSV(SCHEMA, edges_tsv), "src", "dst")
        return {
            "GetPageRank": ringo.GetPageRank(graph),
            "GetBfsLevels": ringo.GetBfsLevels(graph, 3),
            "GetHits": ringo.GetHits(graph),
        }


def remote_answers(call, graph):
    hubs, authorities = call("GetHits", graph=graph)
    return {
        "GetPageRank": call("GetPageRank", graph=graph),
        "GetBfsLevels": call("GetBfsLevels", graph=graph, source=3),
        "GetHits": (hubs, authorities),
    }


def assert_equal_answers(remote, local):
    assert remote == local
    for name in ("GetPageRank", "GetBfsLevels"):
        assert isinstance(remote[name], NodeValues)
        assert remote[name].value_array.tobytes() == local[name].value_array.tobytes()


class TestOverTheWire:
    def test_remote_equals_local(self, tmp_path, edges_tsv):
        with ServiceHandle(ServiceConfig(spool_dir=str(tmp_path / "spool"))) as handle:
            with ServiceClient(*handle.address, tenant="alice") as client:
                graph = load_graph(client.call, edges_tsv)
                local = local_answers(edges_tsv)
                assert_equal_answers(remote_answers(client.call, graph), local)

                def in_process(op, **args):
                    return handle.call("alice", op, **args)

                assert_equal_answers(remote_answers(in_process, graph), local)

                # wait() hands back the JSON-native envelope as sent.
                envelope = client.wait(client.send("GetPageRank", graph=graph))
                assert set(envelope["result"]) == {COLUMNS_KEY}
                assert json.loads(json.dumps(envelope)) == envelope

    def test_request_without_accept_gets_the_plain_bytes(self, tmp_path, edges_tsv):
        with ServiceHandle(ServiceConfig(spool_dir=str(tmp_path / "spool"))) as handle:
            graph = load_graph(lambda op, **a: handle.call("alice", op, **a), edges_tsv)
            local = local_answers(edges_tsv)["GetPageRank"]
            raw = {"id": 9, "tenant": "alice", "op": "GetPageRank",
                   "args": {"graph": graph}}
            plain = {str(node): score for node, score in local.items()}
            assert dump_line(handle.submit(raw)) == dump_line(ok_response(9, plain))
            bad = handle.submit(dict(raw, accept="arrow"))
            assert not bad["ok"] and bad["error"]["type"] == "ProtocolError"

    def test_replica_reads_answer_in_columns(self, tmp_path, edges_tsv):
        replica = ServiceHandle(
            ServiceConfig(spool_dir=str(tmp_path / "replica"), role="replica",
                          tick_s=0.02)
        ).start()
        host, port = replica.address
        primary = ServiceHandle(
            ServiceConfig(spool_dir=str(tmp_path / "primary"),
                          replica_address=f"{host}:{port}", ship_interval_s=0.02,
                          tick_s=0.02)
        ).start()
        try:
            graph = load_graph(lambda op, **a: primary.call("alice", op, **a), edges_tsv)
            deadline = time.monotonic() + 30.0
            while True:  # both records (load, graph) applied on the replica
                state = primary.health()["replication"]["tenants"].get("alice")
                if state and state["applied_lsn"] >= 2 and not state["lag_records"]:
                    break
                assert time.monotonic() < deadline, "replica never caught up"
                time.sleep(0.02)
            with ServiceClient(host, port, tenant="alice") as client:
                assert_equal_answers(
                    remote_answers(client.call, graph), local_answers(edges_tsv)
                )
        finally:
            primary.stop()
            replica.stop()
