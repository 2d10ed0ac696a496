"""Batch RPC frames and the gateway-side write collector."""

import threading

import pytest

from repro.errors import RemoteError, TacticError, TransportError
from repro.net.batch import BatchCollector
from repro.net.latency import NetworkModel
from repro.net.rpc import (
    Request,
    ServiceHost,
    batch_request_payload,
    requests_from_batch,
    responses_from_batch,
)
from repro.net.tcp import TcpRpcServer, TcpTransport
from repro.net.transport import (
    DirectTransport,
    InProcTransport,
    slot_response,
)


class CounterService:
    """Records call order so tests can assert batch execution order."""

    def __init__(self):
        self.calls = []

    def bump(self, amount):
        self.calls.append(("bump", amount))
        return amount + 1

    def fail(self, reason):
        self.calls.append(("fail", reason))
        raise ValueError(reason)


@pytest.fixture()
def service():
    return CounterService()


@pytest.fixture()
def host(service):
    host = ServiceHost()
    host.register("counter", service)
    return host


def _requests(*amounts):
    return [Request("counter", "bump", {"amount": a}) for a in amounts]


class TestBatchPayload:
    def test_roundtrip(self):
        requests = _requests(1, 2, 3)
        payload = batch_request_payload(requests)
        assert list(payload) == ["batch"]
        assert requests_from_batch(payload) == requests

    def test_single_request_payload_is_not_batch(self):
        with pytest.raises(TransportError):
            requests_from_batch(Request("s", "m", {}).to_payload())


#: Frames a hostile peer can send: not a dict, a ``batch`` that is not
#: a list, a slot that is not an object.
MALFORMED_FRAMES = [[1], {"batch": 1}, {"batch": [1]}, {"batch": [{}, 2]},
                    "batch", None]


class TestMalformedFrames:
    @pytest.mark.parametrize("payload", MALFORMED_FRAMES)
    def test_request_parser_raises_only_transport_error(self, payload):
        with pytest.raises(TransportError):
            requests_from_batch(payload)

    @pytest.mark.parametrize("payload", MALFORMED_FRAMES)
    def test_response_parser_raises_only_transport_error(self, payload):
        with pytest.raises(TransportError):
            responses_from_batch(payload, 1)

    @pytest.mark.parametrize("slots,count", [(0, 2), (1, 2), (3, 2)])
    def test_reply_slot_count_must_match_the_request_count(self, slots,
                                                            count):
        payload = {"batch": [{"ok": True, "result": None}] * slots}
        with pytest.raises(TransportError):
            responses_from_batch(payload, count)

    def test_request_slot_with_bad_kwargs_raises_transport_error(self):
        with pytest.raises(TransportError):
            requests_from_batch({"batch": [
                {"service": "s", "method": "m", "kwargs": "ab"}]})


class TestDispatchBatch:
    def test_results_in_order(self, host):
        responses = host.dispatch_batch(_requests(10, 20))
        assert [r.result for r in responses] == [11, 21]

    def test_error_isolation(self, host, service):
        requests = [
            Request("counter", "bump", {"amount": 1}),
            Request("counter", "fail", {"reason": "boom"}),
            Request("counter", "bump", {"amount": 2}),
        ]
        responses = host.dispatch_batch(requests)
        assert [r.ok for r in responses] == [True, False, True]
        assert responses[1].error_type == "ValueError"
        assert responses[2].result == 3
        # The failing sub-call did not stop the batch server-side.
        assert service.calls == [("bump", 1), ("fail", "boom"), ("bump", 2)]


class TestInProcBatch:
    def test_one_frame_per_direction(self, host):
        transport = InProcTransport(host)
        responses = transport.call_batch(_requests(1, 2, 3))
        assert [r.result for r in responses] == [2, 3, 4]
        stats = transport.stats()
        assert stats.messages_sent == 1
        assert stats.messages_received == 1

    def test_single_latency_charge(self, host):
        model = NetworkModel(one_way_latency_ms=5.0, sleep=False)
        transport = InProcTransport(host, model)
        transport.call_batch(_requests(*range(8)))
        # 8 requests, but only one up + one down latency charge.
        assert transport.stats().simulated_delay_seconds == pytest.approx(
            0.010, abs=1e-6
        )

    def test_empty_batch_is_free(self, host):
        transport = InProcTransport(host)
        assert transport.call_batch([]) == []
        assert transport.stats().messages_sent == 0

    def test_error_isolation_over_the_wire(self, host):
        transport = InProcTransport(host)
        responses = transport.call_batch([
            Request("counter", "bump", {"amount": 1}),
            Request("counter", "fail", {"reason": "boom"}),
            Request("counter", "bump", {"amount": 2}),
        ])
        assert [r.ok for r in responses] == [True, False, True]
        with pytest.raises(RemoteError):
            responses[1].unwrap()


class TestDirectBatch:
    def test_batch(self, host):
        transport = DirectTransport(host)
        responses = transport.call_batch(_requests(5, 6))
        assert [r.result for r in responses] == [6, 7]
        assert transport.stats().messages_sent == 1


class TestBaseFallback:
    """``slot_response``: the per-slot isolation that a transport without
    its own batch frame (here, the sharded router's loose slots) falls
    back on."""

    def test_gateway_raised_slot_error_keeps_its_type(self, host):
        """An error raised on the gateway side of a slot re-raises with
        its own type; a cloud error stays remote; the other slots still
        run; a link failure propagates, since the frame is lost."""
        inproc = InProcTransport(host)

        def call(request):
            if request.method == "refuse":
                raise TacticError("refused at the gateway")
            if request.method == "explode":
                raise ValueError("local failure")
            if request.method == "cut":
                raise TransportError("link down")
            return inproc.call_request(request)

        refused, exploded, failed, bumped = [
            slot_response(call, request) for request in [
                Request("counter", "refuse", {}),
                Request("counter", "explode", {}),
                Request("counter", "fail", {"reason": "boom"}),
                Request("counter", "bump", {"amount": 2}),
            ]
        ]
        assert refused.error_type == "TacticError"
        with pytest.raises(TacticError):
            refused.unwrap()
        assert exploded.error_type == "ValueError"
        with pytest.raises(ValueError, match="local failure"):
            exploded.unwrap()
        with pytest.raises(RemoteError) as raised:
            failed.unwrap()
        assert raised.value.remote_type == "ValueError"
        assert bumped.result == 3
        with pytest.raises(TransportError, match="link down"):
            slot_response(call, Request("counter", "cut", {}))


class TestTcpBatch:
    @pytest.fixture()
    def server(self, host):
        server = TcpRpcServer(host)
        server.serve_in_background()
        yield server
        server.shutdown()
        server.server_close()

    @pytest.fixture()
    def client(self, server):
        transport = TcpTransport(server.endpoint)
        yield transport
        transport.close()

    def test_batch_over_the_socket(self, client):
        responses = client.call_batch(_requests(1, 2, 3))
        assert [r.result for r in responses] == [2, 3, 4]
        assert client.stats().messages_sent == 1

    def test_batch_error_isolation(self, client):
        responses = client.call_batch([
            Request("counter", "bump", {"amount": 1}),
            Request("counter", "fail", {"reason": "boom"}),
            Request("counter", "bump", {"amount": 2}),
        ])
        assert [r.ok for r in responses] == [True, False, True]
        assert responses[1].error_type == "ValueError"

    def test_single_calls_still_work_after_batch(self, client):
        client.call_batch(_requests(1))
        assert client.call("counter", "bump", amount=7) == 8


class RecordingService:
    def __init__(self):
        self.calls = []

    def insert(self, **kwargs):
        self.calls.append(("insert", kwargs))

    def insert_many(self, **kwargs):
        self.calls.append(("insert_many", kwargs))

    def delete(self, **kwargs):
        self.calls.append(("delete", kwargs))
        return True

    def get(self, **kwargs):
        self.calls.append(("get", kwargs))
        return {"doc": 1}

    def update(self, **kwargs):
        # Deferrable method that fails server-side.
        raise ValueError("flush failure")


class TestBatchCollector:
    @pytest.fixture()
    def deployment(self):
        host = ServiceHost()
        tactic = RecordingService()
        docs = RecordingService()
        admin = RecordingService()
        host.register("tactic/app/f/det", tactic)
        host.register("docs/app", docs)
        host.register("admin", admin)
        inner = InProcTransport(host)
        return BatchCollector(inner), inner, tactic, docs, admin

    def test_pass_through_outside_scope(self, deployment):
        collector, inner, tactic, _, _ = deployment
        collector.call("tactic/app/f/det", "insert", doc_id="d1")
        assert inner.stats().messages_sent == 1
        assert tactic.calls == [("insert", {"doc_id": "d1"})]

    def test_deferrable_writes_coalesce_into_one_frame(self, deployment):
        collector, inner, tactic, docs, _ = deployment
        with collector.collect():
            assert collector.call("tactic/app/f/det", "insert",
                                  doc_id="d1") is None
            assert collector.call("tactic/app/f/det", "insert",
                                  doc_id="d2") is None
            assert collector.call("docs/app", "insert_many",
                                  documents=[{}]) is None
            # Nothing shipped while the scope is open.
            assert inner.stats().messages_sent == 0
        assert inner.stats().messages_sent == 1
        assert [c[0] for c in tactic.calls] == ["insert", "insert"]
        assert [c[0] for c in docs.calls] == ["insert_many"]

    def test_result_bearing_call_joins_and_flushes(self, deployment):
        collector, inner, tactic, docs, _ = deployment
        with collector.collect():
            collector.call("tactic/app/f/det", "delete", doc_id="d1")
            result = collector.call("docs/app", "delete", doc_id="d1")
            assert result is True
        # Index delete + docs delete shared one frame; the queued index
        # delete ran before the result-bearing docs delete.
        assert inner.stats().messages_sent == 1
        assert tactic.calls == [("delete", {"doc_id": "d1"})]
        assert docs.calls == [("delete", {"doc_id": "d1"})]

    def test_read_with_empty_queue_goes_straight_through(self, deployment):
        collector, inner, _, docs, _ = deployment
        with collector.collect():
            assert collector.call("docs/app", "get",
                                  doc_id="d1") == {"doc": 1}
        assert inner.stats().messages_sent == 1
        assert docs.calls == [("get", {"doc_id": "d1"})]

    def test_admin_never_defers(self, deployment):
        collector, inner, _, _, admin = deployment
        with collector.collect():
            collector.call("admin", "insert", thing=1)
            assert inner.stats().messages_sent == 1
        assert admin.calls == [("insert", {"thing": 1})]

    def test_nested_scopes_flush_once(self, deployment):
        collector, inner, tactic, _, _ = deployment
        with collector.collect():
            collector.call("tactic/app/f/det", "insert", doc_id="d1")
            with collector.collect():
                collector.call("tactic/app/f/det", "insert", doc_id="d2")
            # Inner scope exit must not flush the outer queue.
            assert inner.stats().messages_sent == 0
        assert inner.stats().messages_sent == 1
        assert len(tactic.calls) == 2

    def test_flush_error_raises_after_whole_batch_ran(self, deployment):
        collector, _, tactic, _, _ = deployment
        with pytest.raises(RemoteError) as excinfo:
            with collector.collect():
                collector.call("tactic/app/f/det", "insert", doc_id="d1")
                collector.call("tactic/app/f/det", "update", doc_id="d1")
                collector.call("tactic/app/f/det", "insert", doc_id="d2")
        assert excinfo.value.remote_type == "ValueError"
        # Error isolation: the write after the failure still executed.
        assert [c[0] for c in tactic.calls] == ["insert", "insert"]

    def test_scope_flushes_on_application_error(self, deployment):
        collector, inner, tactic, _, _ = deployment
        with pytest.raises(RuntimeError):
            with collector.collect():
                collector.call("tactic/app/f/det", "insert", doc_id="d1")
                raise RuntimeError("gateway-side failure")
        # The queued write still reached the cloud.
        assert inner.stats().messages_sent == 1
        assert tactic.calls == [("insert", {"doc_id": "d1"})]

    def test_scopes_are_thread_local(self, deployment):
        collector, inner, tactic, _, _ = deployment
        started = threading.Event()
        release = threading.Event()
        errors = []

        def other_thread():
            try:
                # No scope on this thread: calls pass straight through
                # even while the main thread's scope is open.
                started.wait(5)
                collector.call("tactic/app/f/det", "insert", doc_id="t2")
                release.set()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                release.set()

        worker = threading.Thread(target=other_thread)
        worker.start()
        with collector.collect():
            collector.call("tactic/app/f/det", "insert", doc_id="t1")
            started.set()
            assert release.wait(5)
            # Other thread's call already shipped; ours is still queued.
            assert inner.stats().messages_sent == 1
        worker.join()
        assert not errors
        assert inner.stats().messages_sent == 2
        assert len(tactic.calls) == 2
