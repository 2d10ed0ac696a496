"""TCP transport: a real socket between the two zones."""

import socket
import threading

import pytest

from repro.errors import RemoteError, TransportError
from repro.net.message import decode, encode
from repro.net.rpc import Request, ServiceHost, encode_batch
from repro.net.tcp import TcpRpcServer, TcpTransport, recv_frame, send_frame


class MathService:
    def add(self, a, b):
        return a + b

    def echo_bytes(self, blob):
        return blob

    def fail(self):
        raise RuntimeError("remote failure")


@pytest.fixture()
def server():
    host = ServiceHost()
    host.register("math", MathService())
    server = TcpRpcServer(host)
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def client(server):
    transport = TcpTransport(server.endpoint)
    yield transport
    transport.close()


class TestTcpTransport:
    def test_call(self, client):
        assert client.call("math", "add", a=2, b=3) == 5

    def test_bytes_survive_the_socket(self, client):
        blob = bytes(range(256))
        assert client.call("math", "echo_bytes", blob=blob) == blob

    def test_large_payload(self, client):
        blob = b"\xab" * 300_000
        assert client.call("math", "echo_bytes", blob=blob) == blob

    def test_remote_error(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.call("math", "fail")
        assert excinfo.value.remote_type == "RuntimeError"

    def test_sequential_calls_reuse_connection(self, client):
        for i in range(20):
            assert client.call("math", "add", a=i, b=1) == i + 1
        assert client.stats().messages_sent == 20

    def test_concurrent_clients(self, server):
        transport = TcpTransport(server.endpoint)
        errors = []

        def worker(base):
            try:
                for i in range(10):
                    assert transport.call("math", "add", a=base,
                                          b=i) == base + i
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        transport.close()
        assert not errors

    def test_traffic_accounting(self, client):
        client.call("math", "add", a=1, b=2)
        stats = client.stats()
        assert stats.bytes_sent > 0 and stats.bytes_received > 0

    def test_closed_transport_rejects_calls(self, server):
        transport = TcpTransport(server.endpoint)
        transport.close()
        with pytest.raises(TransportError):
            transport.call("math", "add", a=1, b=2)

    def test_connect_failure_raises_transport_error(self):
        transport = TcpTransport(("127.0.0.1", 1))  # nothing listens there
        with pytest.raises((TransportError, OSError)):
            transport.call("math", "add", a=1, b=2)

    def test_transparent_reconnect_after_server_restart(self):
        host = ServiceHost()
        host.register("math", MathService())
        server = TcpRpcServer(host)
        server.serve_in_background()
        port = server.endpoint[1]
        transport = TcpTransport(("127.0.0.1", port))
        assert transport.call("math", "add", a=1, b=1) == 2

        # Restart the untrusted zone on the same port: the pooled
        # connection is dead, but the next call reconnects transparently.
        server.shutdown()
        server.server_close()
        server2 = TcpRpcServer(host, ("127.0.0.1", port))
        server2.serve_in_background()
        try:
            assert transport.call("math", "add", a=2, b=3) == 5
        finally:
            transport.close()
            server2.shutdown()
            server2.server_close()


class StubPeer:
    """A peer that answers every frame with one canned reply."""

    def __init__(self, reply):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.reply = encode(reply)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        connection, _ = self.listener.accept()
        with connection:
            recv_frame(connection)
            send_frame(connection, self.reply)

    @property
    def endpoint(self):
        return self.listener.getsockname()

    def close(self):
        self.thread.join(timeout=10)
        self.listener.close()
        assert not self.thread.is_alive()


class TestMalformedReplies:
    @pytest.mark.parametrize("reply", [
        [1],                                   # not a batch frame
        {"batch": []},                         # no slot for either request
        {"batch": [{"ok": True, "result": 1}]},  # one slot for two
    ])
    def test_client_raises_transport_error(self, reply):
        peer = StubPeer(reply)
        transport = TcpTransport(peer.endpoint, timeout=5.0)
        try:
            with pytest.raises(TransportError):
                transport.call_batch([Request("math", "add", {"a": 1, "b": 2}),
                                      Request("math", "add", {"a": 3, "b": 4})])
            # The refused reply still crossed the wire.
            stats = transport.stats()
            assert (stats.messages_received, stats.bytes_received) == (
                1, len(peer.reply))
        finally:
            transport.close()
            peer.close()


class TestRetiredSingleFrame:
    def test_single_request_frame_is_refused_and_the_link_survives(
            self, server):
        sock = socket.create_connection(server.endpoint, timeout=5)
        try:
            single = {"service": "math", "method": "add",
                      "kwargs": {"a": 1, "b": 2}}
            send_frame(sock, encode(single))
            refused = decode(recv_frame(sock))
            assert refused["ok"] is False
            assert refused["error_type"] == "TransportError"
            frame, _ = encode_batch([Request("math", "add", {"a": 1, "b": 2})])
            send_frame(sock, frame)
            assert decode(recv_frame(sock)) == {
                "batch": [{"ok": True, "result": 3}]}
        finally:
            sock.close()
