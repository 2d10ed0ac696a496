"""RPC dispatch and the in-process / direct transports."""

import pytest

from repro.errors import RemoteError, TransportError
from repro.net.latency import NetworkModel
from repro.net.rpc import Request, Response, ServiceHost
from repro.net.transport import DirectTransport, InProcTransport


class EchoService:
    def ping(self, value):
        return {"value": value}

    def fail(self):
        raise ValueError("deliberate")

    def no_args(self):
        return "ok"

    def _secret(self):
        return "hidden"


@pytest.fixture()
def host():
    host = ServiceHost()
    host.register("echo", EchoService())
    return host


class TestServiceHost:
    def test_dispatch_success(self, host):
        response = host.dispatch(Request("echo", "ping", {"value": 42}))
        assert response.ok and response.result == {"value": 42}

    def test_unknown_service(self, host):
        response = host.dispatch(Request("nope", "ping", {}))
        assert not response.ok
        assert response.error_type == "TransportError"

    def test_unknown_method(self, host):
        response = host.dispatch(Request("echo", "nope", {}))
        assert not response.ok

    def test_private_methods_blocked(self, host):
        response = host.dispatch(Request("echo", "_secret", {}))
        assert not response.ok

    def test_exception_captured(self, host):
        response = host.dispatch(Request("echo", "fail", {}))
        assert not response.ok
        assert response.error_type == "ValueError"
        assert "deliberate" in response.error_message

    def test_duplicate_registration_rejected(self, host):
        with pytest.raises(TransportError):
            host.register("echo", EchoService())

    def test_unregister(self, host):
        host.unregister("echo")
        assert host.service_names() == []

    def test_request_payload_roundtrip(self):
        request = Request("s", "m", {"a": 1})
        assert Request.from_payload(request.to_payload()) == request

    def test_malformed_request_payload(self):
        with pytest.raises(TransportError):
            Request.from_payload({"service": "s"})

    def test_response_unwrap_raises_remote(self):
        response = Response(ok=False, error_type="ValueError",
                            error_message="boom")
        with pytest.raises(RemoteError) as excinfo:
            response.unwrap()
        assert excinfo.value.remote_type == "ValueError"


class TestInProcTransport:
    def test_call_roundtrips_through_codec(self, host):
        transport = InProcTransport(host)
        result = transport.call("echo", "ping", value=(1, b"\x00"))
        assert result == {"value": [1, b"\x00"]}  # tuples arrive as lists

    def test_remote_error_propagates(self, host):
        transport = InProcTransport(host)
        with pytest.raises(RemoteError):
            transport.call("echo", "fail")

    def test_traffic_accounting(self, host):
        transport = InProcTransport(host)
        transport.call("echo", "no_args")
        stats = transport.stats()
        assert stats.messages_sent == 1
        assert stats.messages_received == 1
        assert stats.bytes_sent > 0
        assert stats.bytes_received > 0

    def test_latency_model_accumulates(self, host):
        model = NetworkModel(one_way_latency_ms=5.0, sleep=False)
        transport = InProcTransport(host, model)
        transport.call("echo", "no_args")
        assert transport.stats().simulated_delay_seconds == pytest.approx(
            0.010, abs=1e-6
        )

    def test_bandwidth_adds_serialization_delay(self, host):
        model = NetworkModel(bandwidth_mbps=1.0, sleep=False)
        transport = InProcTransport(host, model)
        transport.call("echo", "ping", value="x" * 1000)
        assert transport.stats().simulated_delay_seconds > 0.008

    def test_reset_stats(self, host):
        transport = InProcTransport(host)
        transport.call("echo", "no_args")
        transport.reset_stats()
        assert transport.stats().messages_sent == 0

    def test_non_wire_encodable_argument_rejected(self, host):
        transport = InProcTransport(host)
        with pytest.raises(TransportError):
            transport.call("echo", "ping", value=object())


class TestDirectTransport:
    def test_call(self, host):
        transport = DirectTransport(host)
        assert transport.call("echo", "no_args") == "ok"

    def test_remote_error(self, host):
        transport = DirectTransport(host)
        with pytest.raises(RemoteError):
            transport.call("echo", "fail")

    def test_counts_messages_without_bytes(self, host):
        transport = DirectTransport(host)
        transport.call("echo", "no_args")
        stats = transport.stats()
        assert stats.messages_sent == 1
        assert stats.bytes_sent == 0


class TestNetworkModel:
    def test_one_way_delay_composition(self):
        model = NetworkModel(one_way_latency_ms=10, bandwidth_mbps=8)
        # 10ms base + 1000 bytes * 8 bits / 8 Mbps = 1ms
        assert model.one_way_delay(1000) == pytest.approx(0.011)

    def test_zero_bandwidth_means_infinite(self):
        model = NetworkModel(one_way_latency_ms=1, bandwidth_mbps=0)
        assert model.one_way_delay(10**9) == pytest.approx(0.001)

    def test_stats_merge(self):
        from repro.net.latency import NetworkStats

        merged = NetworkStats(1, 2, 3, 4, 0.5).merge(
            NetworkStats(10, 20, 30, 40, 1.5)
        )
        assert (merged.messages_sent, merged.messages_received,
                merged.bytes_sent, merged.bytes_received,
                merged.simulated_delay_seconds) == (11, 22, 33, 44, 2.0)
