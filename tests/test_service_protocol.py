"""Wire-protocol units: parsing, op allowlist, encoding, error envelopes."""

import asyncio

import numpy as np
import pytest

from repro.core.engine import Ringo
from repro.exceptions import AdmissionRejected, TransientError
from repro.service.protocol import (
    REF_KEY,
    ProtocolError,
    RemoteError,
    TransientRemoteError,
    allowed_engine_ops,
    decode_args,
    dump_line,
    encode_result,
    error_response,
    load_line,
    ok_response,
    parse_request,
    raise_remote_error,
)
from repro.service.server import ServiceConfig, ServiceHandle


def test_parse_request_happy_path():
    rid, tenant, op, args, deadline = parse_request(
        {"id": 7, "tenant": "alice", "op": "GetPageRank",
         "args": {"graph": {"$ref": "graph-1"}}, "deadline_ms": 500}
    )
    assert rid == 7
    assert tenant == "alice"
    assert op == "GetPageRank"
    assert args == {"graph": {"$ref": "graph-1"}}
    assert deadline == pytest.approx(0.5)


def test_parse_request_deadline_optional():
    *_, deadline = parse_request({"tenant": "t", "op": "ping"})
    assert deadline is None


@pytest.mark.parametrize("raw", [
    "not a dict",
    {"op": "ping"},                                   # no tenant
    {"tenant": "t"},                                  # no op
    {"tenant": "", "op": "ping"},                     # empty tenant
    {"tenant": "t", "op": "NoSuchOp"},                # unknown op
    {"tenant": "t", "op": "recover"},                 # lifecycle op denied
    {"tenant": "t", "op": "close"},                   # lifecycle op denied
    {"tenant": "t", "op": "ping", "args": [1, 2]},    # args not an object
    {"tenant": "t", "op": "ping", "deadline_ms": 0},  # non-positive deadline
    {"tenant": "t", "op": "ping", "deadline_ms": "soon"},
])
def test_parse_request_rejects_malformed(raw):
    with pytest.raises(ProtocolError):
        parse_request(raw)


PATH_LIKE_TENANTS = ["..", "a/b", "../x", "/abs", "a\\b", "a\x00b"]


@pytest.mark.parametrize("tenant", PATH_LIKE_TENANTS)
def test_parse_request_refuses_path_like_tenants(tenant):
    with pytest.raises(ProtocolError, match="invalid tenant name") as info:
        parse_request({"tenant": tenant, "op": "ping"})
    assert not isinstance(info.value, TransientError)


def test_service_refuses_path_like_tenants_before_touching_disk(tmp_path):
    # A tenant name becomes <spool>/<tenant>/; a path-like one would put
    # the WAL and checkpoints outside the spool. The absolute case points
    # inside tmp_path so a regression cannot write to the real root.
    root = tmp_path / "root"
    spool = root / "spool"
    names = [str(root / "abs") if n == "/abs" else n for n in PATH_LIKE_TENANTS]
    with ServiceHandle(ServiceConfig(spool_dir=str(spool))) as handle:
        before = sorted(tmp_path.rglob("*"))
        for tenant in names:
            with pytest.raises(RemoteError, match="ProtocolError") as info:
                handle.call(tenant, "TableFromColumns", data={"a": [1, 2]})
            assert not isinstance(info.value, TransientRemoteError)
        assert sorted(tmp_path.rglob("*")) == before
        # A plain name still works and stays inside the spool.
        handle.call("alice", "TableFromColumns", data={"a": [1, 2]})
    assert (spool / "alice").is_dir()
    assert sorted(root.iterdir()) == [spool]


def test_allowed_engine_ops_track_the_engine():
    ops = allowed_engine_ops()
    # The paper's CamelCase surface is served...
    assert {"LoadTableTSV", "Select", "Join", "ToGraph", "GetPageRank"} <= ops
    # ...but catalog access and lifecycle stay service-mediated.
    assert "Objects" not in ops and "GetObject" not in ops
    assert "checkpoint" not in ops and "close" not in ops


def test_encode_result_table_and_graph_refs(tmp_path):
    # Durable, like every service-hosted session — derivations publish
    # to the catalog, so encoded results carry a $ref.
    with Ringo(workers=1, durability=tmp_path) as ringo:
        table = ringo.TableFromColumns({"src": [0, 1, 2], "dst": [1, 2, 0]})
        encoded = encode_result(ringo, table)
        assert encoded["kind"] == "table"
        assert encoded["rows"] == 3
        assert encoded["columns"] == ["src", "dst"]
        assert encoded[REF_KEY] in ringo.Objects()

        graph = ringo.ToGraph(table, "src", "dst")
        encoded = encode_result(ringo, graph)
        assert encoded["kind"] == "graph"
        assert encoded["nodes"] == 3 and encoded["edges"] == 3
        assert encoded["directed"] is True
        assert encoded[REF_KEY] in ringo.Objects()


def test_encode_result_plain_values():
    with Ringo(workers=1) as ringo:
        assert encode_result(ringo, np.int64(4)) == 4
        assert encode_result(ringo, np.float64(0.5)) == 0.5
        assert encode_result(ringo, np.array([1, 2])) == [1, 2]
        assert encode_result(ringo, {1: 0.5}) == {"1": 0.5}
        assert encode_result(ringo, {3, 1, 2}) == [1, 2, 3]
        assert encode_result(ringo, (1, "x")) == [1, "x"]


def test_decode_args_resolves_refs_recursively(tmp_path):
    with Ringo(workers=1, durability=tmp_path) as ringo:
        table = ringo.TableFromColumns({"a": [1, 2]})
        name = ringo.Objects()[0]
        decoded = decode_args(ringo, {
            "table": {"$ref": name},
            "nested": {"inner": [{"$ref": name}, 5]},
            "plain": "x",
        })
        assert decoded["table"] is table
        assert decoded["nested"]["inner"][0] is table
        assert decoded["nested"]["inner"][1] == 5
        assert decoded["plain"] == "x"


def test_error_response_marks_transient_retryable():
    class Flaky(TransientError):
        """Test transient error."""

    envelope = error_response(3, Flaky("busy"))
    assert envelope["ok"] is False
    assert envelope["error"]["type"] == "Flaky"
    assert envelope["error"]["retryable"] is True

    envelope = error_response(3, AdmissionRejected("t", 10, 5))
    assert envelope["error"]["retryable"] is False


def test_raise_remote_error_reconstructs_types():
    with pytest.raises(TransientRemoteError):
        raise_remote_error(
            {"error": {"type": "InjectedFaultError", "message": "x",
                       "retryable": True}}
        )
    with pytest.raises(RemoteError) as info:
        raise_remote_error(
            {"error": {"type": "AdmissionRejected", "message": "x",
                       "retryable": False}}
        )
    assert not isinstance(info.value, TransientError)
    assert info.value.error_type == "AdmissionRejected"


def test_line_framing_round_trip():
    message = ok_response(1, {"kind": "table", "rows": 2})
    line = dump_line(message)
    assert line.endswith(b"\n")
    assert load_line(line) == message
    with pytest.raises(ProtocolError):
        load_line(b"{not json}\n")


def test_request_future_resolution_is_single_shot():
    from repro.service.protocol import Request

    async def scenario():
        loop = asyncio.get_running_loop()
        request = Request(id=1, tenant="t", op="ping", future=loop.create_future())
        request.future.set_result(ok_response(1, "pong"))
        assert request.future.done()
        return await request.future

    assert asyncio.run(scenario())["result"] == "pong"
