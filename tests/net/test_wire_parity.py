"""TcpTransport accounts like InProcTransport; a lost reply still
counts the frame that left; ``reset_stats`` resets every counter."""

import socket
import threading

import pytest

from repro.errors import TransportError
from repro.net.rpc import Request, ServiceHost
from repro.net.tcp import TcpRpcServer, TcpTransport, recv_frame
from repro.net.transport import (
    DirectTransport,
    InProcTransport,
    TransportLayer,
)
from repro.shard.router import ShardedTransport


class Echo:
    def ping(self, x=None):
        return x

    def fail(self):
        raise RuntimeError("remote failure")


def scripted(transport) -> None:
    """The same request list for every transport under comparison."""
    transport.call("echo", "ping", x=b"\x00\xff" * 40)
    with pytest.raises(Exception):
        transport.call("echo", "fail")
    transport.call_batch([
        Request("echo", "ping", {"x": [1, 2, 3]}, idem="k-1"),
        Request("echo", "fail", {}),
        Request("echo", "ping", {"x": ("t", {"a": None})}),
    ])
    transport.call_batch([Request("echo", "ping", {"x": "only"})])


@pytest.fixture()
def host():
    host = ServiceHost()
    host.register("echo", Echo())
    return host


def test_tcp_cells_equal_inproc_cells(host):
    inproc = InProcTransport(host)
    scripted(inproc)
    server = TcpRpcServer(host)
    server.serve_in_background()
    tcp = TcpTransport(server.endpoint)
    try:
        scripted(tcp)
        assert tcp.wire_cells() == inproc.wire_cells()
        assert tcp.stats() == inproc.stats()
    finally:
        tcp.close()
        server.shutdown()
        server.server_close()
    cells = inproc.wire_cells()["endpoint"]
    assert cells["echo", "ping"].slots == 4
    assert cells["echo", "ping"].frames == 3
    assert cells["echo", "fail"].slots == 2


def test_direct_transport_counts_zero_byte_slots(host):
    direct = DirectTransport(host)
    scripted(direct)
    cells = direct.wire_cells()["endpoint"]
    assert cells["echo", "ping"] == (4, 3, 0, 0)
    assert cells["echo", "fail"] == (2, 2, 0, 0)


def test_wrappers_label_cells_like_labeled_stats(host):
    """Cells surface through wrappers under the ``labeled_stats``
    endpoint labels: node-prefixed by the shard router, passed through
    by a plain layer."""
    other = ServiceHost()
    other.register("echo", Echo())
    split = ShardedTransport([("a", InProcTransport(host)),
                              ("b", InProcTransport(other))])
    stack = TransportLayer(split)
    stack.call("echo", "ping", x=1)
    cells = stack.wire_cells()
    assert set(cells) == set(stack.labeled_stats()) - {"router"}
    assert list(cells["shard:a"]) == [("echo", "ping")]
    assert list(cells["shard:b"]) == [("echo", "ping")]


def test_lost_reply_still_counts_the_frame_that_left():
    """A server that reads the request and hangs up: the bytes left."""
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def read_then_close() -> None:
        for _ in range(2):  # first attempt + the transparent reconnect
            connection, _ = listener.accept()
            with connection:
                seen.append(len(recv_frame(connection)))

    thread = threading.Thread(target=read_then_close, daemon=True)
    thread.start()
    transport = TcpTransport(listener.getsockname(), timeout=5.0)
    try:
        with pytest.raises(TransportError):
            transport.call("echo", "ping", x="are you there")
    finally:
        transport.close()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    stats = transport.stats()
    assert stats.messages_sent == 2 and stats.bytes_sent == sum(seen) > 0
    assert stats.messages_received == 0 and stats.bytes_received == 0
    cell = transport.wire_cells()["endpoint"]["echo", "ping"]
    assert (cell.slots, cell.frames) == (2, 2)
    # Each attempt is a frame of one slot: 12 bytes of batch framing.
    assert (cell.bytes_sent, cell.bytes_received) == (sum(seen) - 2 * 12, 0)


def test_reset_stats_reports_a_delta_from_the_reset_point():
    host = ServiceHost(dedup_window=2)
    host.register("echo", Echo())
    transport = InProcTransport(host)
    for index in range(5):
        transport.call_request(
            Request("echo", "ping", {"x": index}, idem=f"k-{index}"))
    assert transport.stats().dedup_evictions == 3
    transport.reset_stats()
    stats = transport.stats()
    assert (stats.messages_sent, stats.bytes_sent,
            stats.dedup_evictions) == (0, 0, 0)
    assert transport.wire_cells() == {"endpoint": {}}
    transport.call_request(
        Request("echo", "ping", {"x": 9}, idem="k-9"))
    assert transport.stats().dedup_evictions == 1
