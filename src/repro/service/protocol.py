"""Wire protocol for the session service: line-delimited JSON.

One request per line, one response per line, correlated by ``id`` (the
server may answer out of order when a connection pipelines requests).

Request::

    {"id": 7, "tenant": "alice", "op": "GetPageRank",
     "args": {"graph": {"$ref": "graph-1"}}, "deadline_ms": 500,
     "accept": "columns"}

Response::

    {"id": 7, "ok": true, "result": {"1": 0.31, ...}}
    {"id": 7, "ok": false,
     "error": {"type": "DeadlineExceededError", "message": "...",
               "retryable": false}}

``op`` is either a *service op* (lowercase: ``ping``, ``open``,
``health``, ``objects``, ``digest``) or an *engine op* — an entry of
the op table :data:`repro.recovery.ops.SESSION_OPS`, one per CamelCase
method of :class:`~repro.core.engine.Ringo` but the catalog accessors,
so the analytics API the paper defines is served unchanged. Arguments
reference catalog objects
as ``{"$ref": "<catalog-name>"}``; results that are tables or graphs
come back as a ``$ref`` envelope carrying their catalog name and shape,
everything else is encoded to plain JSON.

A per-node result (:class:`~repro.algorithms.common.NodeValues`) goes
out as the ``{"1": 0.31, ...}`` object above unless the request carries
``"accept": "columns"``. Then every ``NodeValues`` in the result, nested
ones too, is a column envelope instead::

    {"$columns": {"node_ids": {"dtype": "<i4", "b64": "AQAAAA..."},
                  "values": {"dtype": "<f8", "b64": "..."}}}

Each column is the little-endian bytes of one array, base64-encoded.
Integer columns are sent as the narrowest of ``<i1``/``<i2``/``<i4``/
``<i8`` that holds every entry; floats as ``<f8``, booleans as ``|b1``.
:func:`decode_result` turns an envelope back into a ``NodeValues`` with
int64 ids (and int64 integer values), and raises
:class:`ProtocolError` on a dtype outside that list, a byte count that is
not a whole number of items, or columns of unequal length.

The service is an analytics front-end for trusted tenants sharing one
big-memory machine, not a security boundary: path-taking ops
(``LoadTableTSV``...) read the server's filesystem.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.algorithms.common import NodeValues
from repro.core.engine import Ringo
from repro.exceptions import RingoError, ServiceError, TransientError
from repro.graphs.directed import DirectedGraph
from repro.graphs.undirected import UndirectedGraph
from repro.recovery.ops import SESSION_OPS
from repro.recovery.wal import validate_tenant_name
from repro.tables.table import Table

REF_KEY = "$ref"
COLUMNS_KEY = "$columns"

#: The one value of a request's optional ``accept`` field.
ACCEPT_COLUMNS = "columns"

#: Every dtype a column envelope may carry, by its ``numpy`` string.
COLUMN_DTYPES = frozenset({"<i1", "<i2", "<i4", "<i8", "<f8", "|b1"})
#: Integer wire widths, narrowest first; ``<i8`` holds every int64.
_INT_WIDTHS = tuple((f"<i{size}", np.iinfo(f"i{size}")) for size in (1, 2, 4))

#: Service-level ops handled by the server itself, not a tenant engine.
#: ``digest_at`` and ``checkpoint`` run inside the tenant's serialized
#: dispatcher (a consistent WAL watermark); ``replicate`` /
#: ``replicate_seed`` / ``promote`` are the replication verbs a replica
#: service answers (see :mod:`repro.replication`).
SERVICE_OPS = (
    "ping",
    "open",
    "health",
    "objects",
    "digest",
    "digest_at",
    "checkpoint",
    "replicate",
    "replicate_seed",
    "promote",
)

def allowed_engine_ops() -> frozenset:
    """The CamelCase :class:`Ringo` methods the service dispatches: the
    op table's entries, less its adoption pseudo-ops."""
    return frozenset(name for name in SESSION_OPS if not name.startswith("_"))


_ALLOWED_ENGINE_OPS = allowed_engine_ops()


class ProtocolError(ServiceError):
    """A request line could not be parsed or names an unknown op."""


@dataclass
class Request:
    """One parsed client request, plus the server-side bookkeeping.

    ``deadline`` is absolute (event-loop clock), computed at accept time
    from the client's relative ``deadline_ms`` budget; ``future``
    resolves to the response envelope (set exactly once, whether the
    request completed, expired, or was shed). ``columns`` is whether
    the client asked for column envelopes (:func:`accepts_columns`).
    """

    id: object
    tenant: str
    op: str
    args: dict = field(default_factory=dict)
    deadline: float = 0.0
    accepted_at: float = 0.0
    future: object = None
    columns: bool = False


def parse_request(raw: object) -> "tuple[object, str, str, dict, float | None]":
    """Validate one decoded request object.

    Returns ``(id, tenant, op, args, deadline_s-or-None)``; raises
    :class:`ProtocolError` on anything malformed. Deadlines stay
    relative here — the accept loop anchors them to its clock.
    """
    if not isinstance(raw, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(raw).__name__}")
    request_id = raw.get("id")
    tenant = raw.get("tenant")
    op = raw.get("op")
    args = raw.get("args", {})
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("request needs a non-empty string 'tenant'")
    validate_tenant_name(tenant, ProtocolError)
    if not isinstance(op, str) or not op:
        raise ProtocolError("request needs a non-empty string 'op'")
    if op not in SERVICE_OPS and op not in _ALLOWED_ENGINE_OPS:
        raise ProtocolError(f"unknown op {op!r}")
    if not isinstance(args, dict):
        raise ProtocolError("request 'args' must be a JSON object")
    deadline_ms = raw.get("deadline_ms")
    if deadline_ms is None:
        return request_id, tenant, op, args, None
    if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
        raise ProtocolError("'deadline_ms' must be a positive number")
    return request_id, tenant, op, args, float(deadline_ms) / 1000.0


def accepts_columns(raw: Mapping) -> bool:
    """Whether a request asked for column envelopes (``"accept": "columns"``).

    The field is optional; any value other than ``"columns"`` is a
    :class:`ProtocolError`.
    """
    accept = raw.get("accept")
    if accept is None:
        return False
    if accept != ACCEPT_COLUMNS:
        raise ProtocolError(f"'accept' must be {ACCEPT_COLUMNS!r}, got {accept!r}")
    return True


def decode_args(session: Ringo, args: Mapping) -> dict:
    """Resolve ``{"$ref": name}`` placeholders against a session catalog."""

    def walk(value):
        if isinstance(value, dict):
            if set(value) == {REF_KEY}:
                return session.GetObject(value[REF_KEY])
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value

    return {key: walk(value) for key, value in dict(args).items()}


def encode_result(session: Ringo, result: object, columns: bool = False) -> object:
    """Encode one engine result into JSON-safe content.

    Catalogued tables/graphs become ``$ref`` envelopes; anonymous ones
    (a session without durability does not publish every derivation)
    are summarised without a ref. Mappings get string keys, sets become
    sorted lists, numpy scalars/arrays become Python numbers/lists.
    With ``columns`` every :class:`NodeValues` becomes a column envelope.
    """
    if isinstance(result, Table):
        envelope: dict = {
            "kind": "table",
            "rows": result.num_rows,
            "columns": [name for name, _ in result.schema],
        }
        name = _catalog_name(session, result)
        if name is not None:
            envelope[REF_KEY] = name
        return envelope
    if isinstance(result, (DirectedGraph, UndirectedGraph)):
        envelope = {
            "kind": "graph",
            "nodes": result.num_nodes,
            "edges": result.num_edges,
            "directed": result.is_directed,
        }
        name = _catalog_name(session, result)
        if name is not None:
            envelope[REF_KEY] = name
        return envelope
    return _plain(result, columns)


def _catalog_name(session: Ringo, obj: object) -> "str | None":
    with session._catalog_lock:
        name = session._object_names.get(id(obj))
        if name is not None and session._catalog.get(name) is obj:
            return name
    return None


def _plain(value: object, columns: bool = False) -> object:
    """Recursively reduce a value to JSON-native types."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, NodeValues):
        if columns and value.value_array.dtype.kind in "bif":
            return _encode_columns(value)
        return dict(
            zip(map(str, value.node_ids.tolist()), value.value_array.tolist())
        )
    if isinstance(value, np.ndarray):
        return [_plain(item) for item in value.tolist()]
    if isinstance(value, Mapping):
        return {
            str(_plain(key)): _plain(item, columns) for key, item in value.items()
        }
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_plain(item, columns) for item in value]
    return repr(value)


def _encode_columns(result: NodeValues) -> dict:
    """One :class:`NodeValues` as a ``$columns`` envelope (module docstring)."""
    return {
        COLUMNS_KEY: {
            "node_ids": _encode_column(result.node_ids),
            "values": _encode_column(result.value_array),
        }
    }


def _encode_column(array: np.ndarray) -> dict:
    kind = array.dtype.kind
    if kind == "b":
        dtype = "|b1"
    elif kind == "f":
        dtype = "<f8"
    else:
        dtype = _int_width(array)
    data = np.ascontiguousarray(array, dtype=np.dtype(dtype)).tobytes()
    return {"dtype": dtype, "b64": base64.b64encode(data).decode("ascii")}


def _int_width(array: np.ndarray) -> str:
    """The narrowest integer wire dtype that holds every entry of ``array``."""
    low, high = (int(array.min()), int(array.max())) if len(array) else (0, 0)
    for dtype, info in _INT_WIDTHS:
        if info.min <= low and high <= info.max:
            return dtype
    return "<i8"


def decode_result(value: object) -> object:
    """Turn every ``$columns`` envelope in a result back into :class:`NodeValues`.

    Walks dicts and lists; anything else is returned as it is. A
    malformed envelope raises :class:`ProtocolError`.
    """
    if isinstance(value, dict):
        if COLUMNS_KEY in value and len(value) == 1:
            return _decode_columns(value[COLUMNS_KEY])
        return {key: decode_result(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_result(item) for item in value]
    return value


def _decode_columns(columns: object) -> NodeValues:
    """Invert :func:`_encode_columns` (given the envelope's inner object)."""
    if not isinstance(columns, dict) or set(columns) != {"node_ids", "values"}:
        raise ProtocolError("a column envelope needs exactly 'node_ids' and 'values'")
    node_ids = _decode_column(columns["node_ids"])
    values = _decode_column(columns["values"])
    if node_ids.dtype.kind != "i":
        raise ProtocolError(
            f"node_ids must be an integer column, got {node_ids.dtype.str}"
        )
    if len(node_ids) != len(values):
        raise ProtocolError(
            f"column lengths differ: {len(node_ids)} node_ids, {len(values)} values"
        )
    if values.dtype.kind == "i":
        values = values.astype(np.int64)
    return NodeValues(node_ids, values)


def _decode_column(column: object) -> np.ndarray:
    if not isinstance(column, dict):
        raise ProtocolError("a column must be an object with 'dtype' and 'b64'")
    dtype, data = column.get("dtype"), column.get("b64")
    if dtype not in COLUMN_DTYPES:
        raise ProtocolError(
            f"column dtype {dtype!r} is not one of {sorted(COLUMN_DTYPES)}"
        )
    if not isinstance(data, str):
        raise ProtocolError("a column's 'b64' must be a string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as error:
        raise ProtocolError(f"a column's 'b64' is not valid base64: {error}")
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise ProtocolError(
            f"a {dtype} column of {len(raw)} bytes is not a whole number of "
            f"{itemsize}-byte items"
        )
    return np.frombuffer(raw, dtype=np.dtype(dtype))


def ok_response(request_id: object, result: object) -> dict:
    """A success envelope."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: object, error: BaseException) -> dict:
    """A typed failure envelope.

    ``retryable`` tells the client whether re-sending the same request
    can succeed (transient faults: yes; budget denials, bad ops: no) —
    the client-side :func:`~repro.parallel.resilience.run_with_retry`
    keys off it.
    """
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "retryable": isinstance(error, TransientError),
        },
    }


class RemoteError(RingoError):
    """A typed error envelope reconstructed on the client side."""

    def __init__(self, error_type: str, message: str):
        self.error_type = error_type
        super().__init__(f"{error_type}: {message}")


class TransientRemoteError(RemoteError, TransientError):
    """A retryable remote failure — a client retry policy re-attempts it."""


def raise_remote_error(envelope: Mapping) -> None:
    """Raise the typed client-side exception for a failure envelope."""
    error = envelope.get("error") or {}
    error_type = str(error.get("type", "ServiceError"))
    message = str(error.get("message", ""))
    if error.get("retryable"):
        raise TransientRemoteError(error_type, message)
    raise RemoteError(error_type, message)


def dump_line(message: Mapping) -> bytes:
    """Serialise one protocol message as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def load_line(line: bytes) -> object:
    """Parse one protocol line; raises :class:`ProtocolError` on bad JSON."""
    try:
        return json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"request line is not valid JSON: {error}")
