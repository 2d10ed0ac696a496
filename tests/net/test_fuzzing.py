"""Protocol robustness: malformed frames and adversarial payloads."""

import json
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import TransportError
from repro.net.message import decode, encode
from repro.net.rpc import ServiceHost
from repro.net.tcp import MAX_FRAME, TcpRpcServer, TcpTransport, send_frame


class Echo:
    def ping(self, x=None):
        return x


@pytest.fixture()
def server():
    host = ServiceHost()
    host.register("echo", Echo())
    server = TcpRpcServer(host)
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


class TestTcpRobustness:
    def test_garbage_frame_gets_error_response_not_crash(self, server):
        sock = socket.create_connection(server.endpoint, timeout=5)
        try:
            send_frame(sock, b"\xff\xfenot json at all")
            header = sock.recv(4)
            (length,) = struct.unpack(">I", header)
            reply = b""
            while len(reply) < length:
                reply += sock.recv(length - len(reply))
            response = decode(reply)
            assert response["ok"] is False
        finally:
            sock.close()
        # The server still serves well-formed clients afterwards.
        transport = TcpTransport(server.endpoint)
        assert transport.call("echo", "ping", x=1) == 1
        transport.close()

    def test_oversize_frame_rejected_client_side(self, server):
        transport = TcpTransport(server.endpoint)
        try:
            with pytest.raises(TransportError):
                transport.call("echo", "ping", x="a" * (MAX_FRAME + 1))
        finally:
            transport.close()

    def test_half_frame_then_disconnect_is_survivable(self, server):
        sock = socket.create_connection(server.endpoint, timeout=5)
        sock.sendall(struct.pack(">I", 100) + b"only-a-few-bytes")
        sock.close()
        transport = TcpTransport(server.endpoint)
        try:
            assert transport.call("echo", "ping", x="still alive") == (
                "still alive"
            )
        finally:
            transport.close()

    @given(junk=st.binary(min_size=1, max_size=64))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture,
              ])
    def test_random_junk_never_hangs_the_server(self, server, junk):
        sock = socket.create_connection(server.endpoint, timeout=5)
        try:
            sock.sendall(junk)
        finally:
            sock.close()
        transport = TcpTransport(server.endpoint)
        try:
            assert transport.call("echo", "ping", x=0) == 0
        finally:
            transport.close()


#: Recursive JSON values with ``__b__`` dicts mixed in, well-formed or
#: not: what a hostile cloud can put on the wire.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.builds(lambda value: {"__b__": value},
                  st.one_of(children, st.binary(max_size=8).map(bytes.hex))),
    ),
    max_leaves=16,
)


class TestCodecRobustness:
    @given(junk=st.binary(max_size=80))
    @settings(max_examples=50)
    def test_decode_never_crashes_unexpectedly(self, junk):
        try:
            decode(junk)
        except TransportError:
            pass  # the only acceptable failure mode

    @given(value=_json_values, cut=st.integers(min_value=0))
    @settings(max_examples=200)
    def test_decode_json_shaped_text_raises_only_transport_error(
            self, value, cut):
        text = json.dumps(value)
        if cut % 3 == 0:  # a torn frame, one time in three
            text = text[:cut % (len(text) + 1)]
        try:
            decode(text.encode("utf-8"))
        except TransportError:
            pass  # the only acceptable failure mode

    def test_deeply_nested_payload_roundtrips(self):
        payload = {"v": 0}
        for _ in range(40):
            payload = {"nested": payload, "blob": b"\x00"}
        assert decode(encode(payload)) == payload

    def test_spoofed_tag_collisions(self):
        # A dict that *looks* like the bytes tag but carries extra keys
        # must not be misinterpreted as bytes; ``__b__`` is the only tag,
        # so one-key ``__t__``/``__s__`` dicts are plain dicts.
        payload = {"__b__": "00", "extra": 1}
        assert decode(encode(payload)) == payload
        for payload2 in ({"__t__": [1, 2]}, {"__s__": [[1]]}):
            assert decode(encode(payload2)) == payload2
