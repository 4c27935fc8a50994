"""Small blocking client for the analysis service.

Used by the test suite, the benchmarks, the CI smoke probe, the
campaign's ``--remote`` dispatch and the CLI verbs' ``--remote
HOST:PORT``.  One persistent TCP connection, JSON-lines framing,
sequential request/response; :meth:`ServiceClient.call` is the one
entry point for every op in ``protocol.OPS``::

    with ServiceClient("127.0.0.1", 8642) as client:
        payload = client.call("analyze", {"source": source})
        print(client.call("health")["status"])

Failures come back as :class:`ServiceError` carrying the server's error
code (``overloaded``, ``timeout``, ``bad_request``, ...) and, for
transport failures, the upstream ``HOST:PORT`` for diagnosability.
The client fails fast: a refused connect raises :class:`OSError` and a
broken connection raises on the round trip it broke; nothing is
retried or resent.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional

from repro.service.protocol import PROTOCOL_VERSION


class ServiceError(Exception):
    """An error response from the service (or a transport failure)."""

    def __init__(self, code: str, message: str,
                 address: Optional[str] = None):
        label = f"{code}: {message}"
        if address:
            label += f" (upstream {address})"
        super().__init__(label)
        self.code = code
        self.message = message
        self.address = address


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (IPv6 hosts in brackets)."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host.strip("[]") or "127.0.0.1", int(port)


class ServiceClient:
    """Blocking JSON-lines client over one TCP connection."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 300.0):
        self.host = host
        self.port = port
        self.address = f"{host}:{port}"
        self.timeout = timeout
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    @classmethod
    def connect(cls, address: str, *,
                timeout: float = 300.0) -> "ServiceClient":
        host, port = parse_address(address)
        return cls(host, port, timeout=timeout)

    # -- plumbing ----------------------------------------------------
    def request(self, op: str,
                params: Optional[dict[str, Any]] = None, *,
                timeout: Optional[float] = None) -> dict[str, Any]:
        """One round trip; returns the full response envelope."""
        self._next_id += 1
        request_id = self._next_id
        message: dict[str, Any] = {
            "id": request_id,
            "version": PROTOCOL_VERSION,
            "op": op,
        }
        if params:
            message["params"] = params
        if timeout is not None:
            message["timeout"] = timeout
        try:
            self._file.write((json.dumps(message) + "\n").encode())
            self._file.flush()
            line = self._file.readline()
        except (OSError, ValueError) as exc:
            raise ServiceError("transport", str(exc),
                               address=self.address) from exc
        if not line:
            raise ServiceError("transport",
                               "server closed the connection",
                               address=self.address)
        response = json.loads(line.decode("utf-8"))
        if response.get("id") not in (request_id, None):
            raise ServiceError(
                "transport",
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}", address=self.address)
        return response

    def call(self, op: str,
             params: Optional[dict[str, Any]] = None, *,
             timeout: Optional[float] = None) -> Any:
        """One round trip; returns ``result`` or raises ServiceError."""
        response = self.request(op, params, timeout=timeout)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(error.get("code", "internal"),
                               error.get("message", "unknown error"),
                               address=self.address)
        return response["result"]

    def metrics(self) -> dict[str, Any]:
        """The ``metrics`` snapshot (kept for the perfbench harness,
        which reads it by this name; every other op goes via
        :meth:`call`)."""
        return self.call("metrics")

    # -- lifecycle ---------------------------------------------------
    def close(self) -> None:
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
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
