"""TCP transport: a real two-process gateway/cloud deployment.

Frames are length-prefixed (4-byte big-endian) wire-codec payloads, and
every request payload is a ``batch`` frame: N requests (one for a lone
call) answered with one batch reply of N slots (per-request error
isolation).  A frame the server cannot read as a batch — a retired
single-request frame included — is refused with one bare error
response, which the client's reply parser in turn refuses as a
:class:`~repro.errors.TransportError`; the connection serves the next
frame.  The server hosts a :class:`repro.net.rpc.ServiceHost` behind a
threading TCP server; the client is a
:class:`repro.net.transport.Transport` with one pooled connection
per thread.  ``examples/distributed_deployment.py`` uses this pair to
run the cloud zone as an actual separate process.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from typing import Sequence

from repro.errors import TransportError
from repro.net.latency import NetworkStats, TrafficMeter
from repro.net.message import decode, encode
from repro.net.transport import Transport
from repro.net.rpc import (
    Request,
    Response,
    ServiceHost,
    encode_batch,
    requests_from_batch,
    responses_from_batch,
)

_HEADER = struct.Struct(">I")
MAX_FRAME = 64 * 1024 * 1024


def send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise TransportError("frame exceeds maximum size")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> bytes:
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise TransportError("incoming frame exceeds maximum size")
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _RpcHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        host: ServiceHost = self.server.service_host  # type: ignore[attr-defined]
        while True:
            try:
                frame = recv_frame(self.request)
            except TransportError:
                return  # client went away
            try:
                # Error isolation per sub-request lives in dispatch_batch.
                reply, _ = encode_batch(host.dispatch_batch(
                    requests_from_batch(decode(frame))
                ))
            except Exception as exc:  # noqa: BLE001 - keep the server alive
                reply = encode(Response(
                    ok=False, error_type=type(exc).__name__,
                    error_message=str(exc),
                ).to_payload())
            send_frame(self.request, reply)


class TcpRpcServer(socketserver.ThreadingTCPServer):
    """Threaded RPC server for the untrusted zone."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, host: ServiceHost, address: tuple[str, int] = ("127.0.0.1", 0)):
        super().__init__(address, _RpcHandler)
        self.service_host = host

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.socket.getsockname()

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class TcpTransport(Transport):
    """Client side: one pooled connection per calling thread."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0):
        self._address = address
        self._timeout = timeout
        self._local = threading.local()
        self._meter = TrafficMeter()
        self._closed = False

    def _connection(self) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if sock is None:
            sock = socket.create_connection(self._address, self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.sock = sock
        return sock

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        """Ship the whole batch as one frame over the pooled socket."""
        if not requests:
            return []
        frame, sizes = encode_batch(requests)
        reply = self._roundtrip(frame, requests, sizes)
        try:
            responses = responses_from_batch(decode(reply), len(requests))
        except TransportError:
            self._meter.record_receive(len(reply))  # it still arrived
            raise
        # The reply arrives as one frame; its slot sizes are recovered
        # by re-encoding the (small, mostly ``null``) write replies.
        self._meter.record_receive(len(reply), 0.0, requests,
                                   encode_batch(responses)[1])
        return responses

    def _roundtrip(self, frame: bytes, requests: Sequence[Request],
                   sizes: Sequence[int]) -> bytes:
        if self._closed:
            raise TransportError("transport is closed")
        # One transparent reconnect: a pooled connection may have died
        # between calls (server restart, idle timeout); retrying on a
        # fresh socket is safe because no reply was consumed yet.
        for attempt in (1, 2):
            sock = self._connection()
            try:
                send_frame(sock, frame)
                # Counted when written: a frame whose reply is lost
                # still crossed the wire.
                self._meter.record_send(len(frame), 0.0, requests, sizes)
                return recv_frame(sock)
            except (OSError, TransportError) as exc:
                self._drop_connection()
                if attempt == 2:
                    raise TransportError(
                        f"rpc transport failure: {exc}"
                    ) from exc

    def _drop_connection(self) -> None:
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self._local.sock = None

    def stats(self) -> NetworkStats:
        return self._meter.snapshot()

    def wire_cells(self) -> dict:
        return {"endpoint": self._meter.cells()}

    def close(self) -> None:
        self._closed = True
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            sock.close()
            self._local.sock = None
