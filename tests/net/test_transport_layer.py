"""The TransportLayer contract, once for every wrapper in the stack.

A layer overrides the hooks it changes and inherits the rest; these
tests pin what "the rest" means: every delegated hook reaches the inner
transport with its arguments and hands its value back, own counters
merge into the inner labelled report by one rule, and ``close`` closes
the inner exactly once.
"""

from __future__ import annotations

import pytest

from repro.analysis.observer import ObservedTransport
from repro.errors import IntegrityError, RemoteError, StoreError
from repro.integrity.verify import VerifyingTransport
from repro.net.batch import BatchCollector
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.latency import NetworkStats
from repro.net.resilience import ResilientTransport
from repro.net.rpc import Request, Response, ServiceHost
from repro.net.transport import DirectTransport, Transport, TransportLayer


class StubInner(Transport):
    """Records every hook invocation and answers with marked values."""

    def __init__(self, labels=("endpoint",)):
        self.calls: list[tuple] = []
        self.labels = labels

    def call(self, service, method, **kwargs):
        raise AssertionError("layers forward requests, not bare calls")

    def call_request(self, request):
        self.calls.append(("call_request", request))
        return "reply"

    def call_batch(self, requests):
        self.calls.append(("call_batch", list(requests)))
        return [Response(ok=True, result=index)
                for index, _ in enumerate(requests)]

    def stats(self):
        return NetworkStats(messages_sent=7)

    def labeled_stats(self):
        return {label: NetworkStats(messages_sent=7)
                for label in self.labels}

    def close(self):
        self.calls.append(("close",))


LAYERS = {
    "BatchCollector": BatchCollector,
    "VerifyingTransport": lambda inner: VerifyingTransport(inner, "app"),
    "ResilientTransport": ResilientTransport,
    "FaultInjectingTransport": lambda inner: FaultInjectingTransport(
        inner, FaultPlan()),
    "ObservedTransport": ObservedTransport,
}

#: Outside a collection scope the collector forwards a lone call as it
#: came; every other layer sends a lone call down as a frame of one.
LONE_CALL_LAYERS = {"BatchCollector"}


@pytest.fixture(params=sorted(LAYERS))
def layer_name(request):
    return request.param


@pytest.fixture()
def build(layer_name):
    return LAYERS[layer_name]


class TestLayerContract:
    def test_is_a_layer_reachable_through_inner(self, build):
        inner = StubInner()
        layer = build(inner)
        assert isinstance(layer, TransportLayer)
        assert layer.inner is inner

    def test_requests_and_frames_reach_the_inner(self, build, layer_name):
        inner = StubInner()
        layer = build(inner)
        lone = layer.call("docs/app", "count")
        if layer_name in LONE_CALL_LAYERS:
            assert lone == "reply"
            (kind, request), = inner.calls
            assert kind == "call_request"
        else:
            assert lone == 0  # the one slot's answer, unwrapped
            (kind, [request]), = inner.calls
            assert kind == "call_batch"
        assert (request.service, request.method) == ("docs/app", "count")
        frame = [Request("docs/app", "count", {}),
                 Request("docs/app", "all_ids", {})]
        responses = layer.call_batch(frame)
        assert [response.result for response in responses] == [0, 1]
        assert inner.calls[-1] == ("call_batch", frame)

    def test_state_hooks_delegate_with_arguments(self, build, layer_name):
        """A state report round is an ordinary frame at every layer: it
        reaches the inner with its arguments, and its answer comes
        back."""
        inner = StubInner()
        layer = build(inner)
        answer = layer.call("integrity/app", "report", since=4)
        (kind, sent), = inner.calls
        if layer_name in LONE_CALL_LAYERS:
            assert (kind, answer) == ("call_request", "reply")
        else:
            assert (kind, len(sent), answer) == ("call_batch", 1, 0)
            sent = sent[0]
        assert (sent.service, sent.method, sent.kwargs) == (
            "integrity/app", "report", {"since": 4})

    def test_close_closes_the_inner_once(self, build):
        inner = StubInner()
        build(inner).close()
        assert inner.calls == [("close",)]

    def test_own_stats_fold_into_a_single_endpoint_line(self, build):
        layer = build(StubInner())
        own = layer.own_stats() or NetworkStats()
        expected = NetworkStats(messages_sent=7).merge(own)
        assert layer.stats() == expected
        assert layer.labeled_stats() == {"endpoint": expected}

    def test_own_stats_get_their_own_label_over_many_endpoints(self, build):
        layer = build(StubInner(labels=("shard:a", "shard:b")))
        labeled = layer.labeled_stats()
        assert labeled["shard:a"] == labeled["shard:b"] == NetworkStats(
            messages_sent=7)
        own = layer.own_stats()
        if own is None:
            assert set(labeled) == {"shard:a", "shard:b"}
        else:
            assert labeled[layer.label] == own
            assert set(labeled) == {"shard:a", "shard:b",
                                    layer.label}


class TamperingInner(StubInner):
    """Answers every proven read with a body no proof can cover, and
    every report round with an empty report."""

    def call_batch(self, requests):
        self.calls.append(("call_batch", list(requests)))
        return [Response(ok=True, result=self.answer(request))
                for request in requests]

    @staticmethod
    def answer(request):
        if request.method.endswith("_proven"):
            return "forged"
        if request.method == "report":
            return {"seq": 0, "trees": {}}
        return None


class Boom:
    def fail(self):
        raise StoreError("refused by the cloud")


class TestTypedSlotErrors:
    """A slot error raised by a gateway layer keeps its type through
    every layer above it; an error the cloud raised stays remote."""

    def stack(self):
        verifier = VerifyingTransport(TamperingInner(), "app")
        verifier.activate()
        return BatchCollector(verifier)

    def test_verified_read_ending_a_write_frame_raises_typed(self):
        collector = self.stack()
        with collector.collect():
            collector.call("tactic/app.f/det", "insert", doc_id="d1")
            with pytest.raises(IntegrityError):
                collector.call("docs/app", "get_many", doc_ids=["d1"])

    def test_lone_verified_read_in_a_scope_raises_typed(self):
        collector = self.stack()
        with collector.collect():
            with pytest.raises(IntegrityError):
                collector.call("docs/app", "get_many", doc_ids=["d1"])

    def test_cloud_errors_stay_remote(self):
        host = ServiceHost()
        host.register("boom", Boom())
        transport = DirectTransport(host)
        (response,) = transport.call_batch([Request("boom", "fail", {})])
        assert (response.error_type, response.raised) == ("StoreError",
                                                          None)
        collector = BatchCollector(transport)
        with collector.collect():
            with pytest.raises(RemoteError) as raised:
                collector.call("boom", "fail")
        assert raised.value.remote_type == "StoreError"
