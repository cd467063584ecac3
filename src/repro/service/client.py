"""A blocking TCP client for the session service.

:class:`ServiceClient` speaks the line-delimited JSON protocol of
:mod:`repro.service.protocol` over a plain socket. It supports two
styles:

* ``call(op, ...)`` — send one request and block for its response,
  optionally retrying transient failures under a shared
  :class:`~repro.parallel.resilience.RetryPolicy` (the server marks
  retryable errors with ``retryable: true`` in the envelope).
* ``send(op, ...)`` + ``wait(request_id)`` — pipeline many requests on
  one connection; responses are matched by ``id`` regardless of the
  order the server answers in.

The client is intentionally synchronous: tenants of an interactive
analytics service are scripts and notebooks, and a blocking call per
analytics step is their natural shape.
"""

from __future__ import annotations

import json
import socket
import threading

from repro.exceptions import RingoError, TransientError
from repro.parallel.resilience import RetryPolicy, run_with_retry
from repro.service.protocol import (
    ACCEPT_COLUMNS,
    TransientRemoteError,
    decode_result,
    raise_remote_error,
)


class EndpointFailure(TransientError):
    """The current endpoint's connection failed mid-request.

    Transient by design: a client built with an ordered address list
    advances to the next endpoint before this is raised, so a retry
    policy re-attempting the call lands on the standby — the failover
    path after a promotion.
    """

    def __init__(self, endpoint: tuple, reason: str):
        self.endpoint = endpoint
        super().__init__(f"endpoint {endpoint[0]}:{endpoint[1]} failed: {reason}")


class ServiceClient:
    """One tenant's connection to a running session service.

    ``addresses`` (optional) is an ordered failover list of
    ``(host, port)`` pairs; a connection failure advances to the next
    address and — when a ``retry_policy`` is set — transparently
    re-sends the request there. ``last_endpoint`` records which address
    served the most recent reply.

    >>> client = ServiceClient("127.0.0.1", 9000, tenant="alice")  # doctest: +SKIP
    >>> client.call("ping")  # doctest: +SKIP
    'pong'
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        timeout: float = 60.0,
        retry_policy: "RetryPolicy | None" = None,
        addresses: "list[tuple[str, int]] | None" = None,
    ) -> None:
        self.tenant = tenant
        self.timeout = timeout
        self.retry_policy = retry_policy
        self.addresses: list = [
            (str(h), int(p)) for h, p in (addresses or [(host, port)])
        ]
        if not self.addresses:
            raise RingoError("ServiceClient needs at least one address")
        self._address_index = 0
        self.last_endpoint: "tuple | None" = None
        self._sock: "socket.socket | None" = None
        self._file = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._received: dict[object, dict] = {}

    @property
    def host(self) -> str:
        """The current endpoint's host (tracks failover)."""
        return self.addresses[self._address_index][0]

    @property
    def port(self) -> int:
        """The current endpoint's port (tracks failover)."""
        return self.addresses[self._address_index][1]

    # -- connection lifecycle -------------------------------------------

    def connect(self) -> "ServiceClient":
        """Open the TCP connection to the current endpoint (idempotent)."""
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._file = sock.makefile("rwb")
        return self

    def _fail_endpoint(self, reason: str) -> None:
        """Drop the connection, rotate to the next address, raise typed.

        In-flight pipelined requests on the dead connection are lost —
        their :meth:`wait` raises this same typed error. Re-sending is
        at-least-once: an op the dead server committed before failing
        may run twice, which is why callers failing over should stick
        to idempotent or re-derivable requests.
        """
        endpoint = (self.host, self.port)
        self.close()
        self._received.clear()
        self._address_index = (self._address_index + 1) % len(self.addresses)
        raise EndpointFailure(endpoint, reason)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request plumbing ------------------------------------------------

    def send(
        self, op: str, deadline_ms: "int | None" = None, **args: object
    ) -> int:
        """Write one request without waiting; returns its request id.

        Use with :meth:`wait` to pipeline many requests on one
        connection (how the benchmarks saturate a queue). Every request
        asks for column replies (``"accept": "columns"``); :meth:`wait`
        returns them as sent, and :meth:`call` decodes them.
        """
        with self._lock:
            try:
                self.connect()
            except OSError as error:
                self._fail_endpoint(f"connect failed: {error}")
            self._next_id += 1
            request_id = self._next_id
            raw: dict = {
                "id": request_id,
                "tenant": self.tenant,
                "op": op,
                "args": args,
                "accept": ACCEPT_COLUMNS,
            }
            if deadline_ms is not None:
                raw["deadline_ms"] = deadline_ms
            line = (json.dumps(raw, separators=(",", ":")) + "\n").encode()
            try:
                self._file.write(line)
                self._file.flush()
            except OSError as error:
                self._fail_endpoint(f"send failed: {error}")
        return request_id

    def wait(self, request_id: int) -> dict:
        """Block for the response envelope with ``id == request_id``.

        A dead connection — including one a *previous* ``wait`` already
        failed and rotated away from, losing this pipelined request with
        it — raises the typed, retryable :class:`EndpointFailure`, never
        a bare attribute error.
        """
        while True:
            with self._lock:
                if request_id in self._received:
                    envelope = self._received.pop(request_id)
                    self.last_endpoint = (self.host, self.port)
                    return envelope
                if self._file is None:
                    raise EndpointFailure(
                        (self.host, self.port),
                        f"no open connection; the response to pipelined "
                        f"request {request_id} was lost with the previous "
                        f"endpoint",
                    )
                try:
                    line = self._file.readline()
                except OSError as error:
                    self._fail_endpoint(f"read failed: {error}")
                if not line:
                    self._fail_endpoint(
                        f"connection closed waiting for response {request_id}"
                    )
            envelope = json.loads(line.decode())
            if envelope.get("id") == request_id:
                self.last_endpoint = (self.host, self.port)
                return envelope
            self._received[envelope.get("id")] = envelope

    # -- the convenience surface ----------------------------------------

    def call(
        self, op: str, deadline_ms: "int | None" = None, **args: object
    ) -> object:
        """One request, blocking; unwraps the result or raises typed errors.

        Column envelopes in the result come back as
        :class:`~repro.algorithms.common.NodeValues` with int keys, equal
        to what the engine returns in process. Failure envelopes become
        :class:`~repro.service.protocol.RemoteError` (or its retryable
        subclass). When the client was built with a ``retry_policy``,
        retryable failures are re-sent with jittered backoff — the same
        policy machinery the server's dispatcher uses. With an ordered
        ``addresses`` list, a dead connection or a retryable envelope
        rotates to the next address before the re-send, so a client
        keeps working across a failover; check ``last_endpoint`` to see
        which address served the reply.
        """

        def attempt() -> object:
            envelope = self.wait(self.send(op, deadline_ms=deadline_ms, **args))
            if not envelope.get("ok"):
                raise_remote_error(envelope)
            return decode_result(envelope.get("result"))

        def on_retry(attempt_no: int, error: BaseException) -> None:
            # A connection-level failure already rotated in
            # _fail_endpoint; a retryable *envelope* (a lagging replica,
            # a transient fault) rotates here so the retry can land on
            # a healthier member of the pair.
            if isinstance(error, TransientRemoteError) and len(self.addresses) > 1:
                with self._lock:
                    self.close()
                    self._received.clear()
                    self._address_index = (
                        self._address_index + 1
                    ) % len(self.addresses)

        if self.retry_policy is None:
            return attempt()
        return run_with_retry(
            attempt, self.retry_policy, on_retry=on_retry, metric_prefix="client"
        )

    def ping(self) -> object:
        """Liveness probe."""
        return self.call("ping")

    def health(self) -> dict:
        """The server's full health report."""
        return self.call("health")
