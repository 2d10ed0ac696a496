"""Fault injection, retry/backoff/breaker resilience and idempotency."""

import random

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    RemoteError,
    RetryExhausted,
    TransportFault,
)
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.resilience import (
    BreakerConfig,
    CircuitBreaker,
    ResilientTransport,
    RetryPolicy,
)
from repro.net.rpc import Request, ServiceHost
from repro.net.transport import (
    DirectTransport,
    InProcTransport,
    Transport,
    slot_response,
)


class CounterService:
    """Counts applications so tests can tell 'delivered' from 'applied'."""

    def __init__(self):
        self.applied = []

    def insert(self, value):
        self.applied.append(value)
        return len(self.applied)

    def read(self, value):
        return value

    def fail(self, reason):
        raise ValueError(reason)


@pytest.fixture()
def service():
    return CounterService()


@pytest.fixture()
def host(service):
    host = ServiceHost()
    host.register("svc", service)
    return host


@pytest.fixture()
def inproc(host):
    return InProcTransport(host)


def always(plan_kind):
    """A plan that fires one fault kind on every delivery."""
    return FaultPlan(**{plan_kind: 1.0})


class TestFaultPlan:
    def test_probabilities_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=0.7, duplicate=0.5)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=-0.1)


class TestFaultInjection:
    def test_same_seed_same_schedule(self, host):
        def run(seed):
            faulty = FaultInjectingTransport(
                InProcTransport(host), FaultPlan(drop=0.3, duplicate=0.3),
                seed=seed,
            )
            for i in range(30):
                try:
                    faulty.call("svc", "read", value=i)
                except TransportFault:
                    pass
            return [(e.seq, e.kind) for e in faulty.events()]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_drop_is_not_applied(self, inproc, service):
        faulty = FaultInjectingTransport(inproc, always("drop"))
        with pytest.raises(TransportFault):
            faulty.call("svc", "insert", value="x")
        assert service.applied == []

    def test_corrupt_is_not_applied(self, inproc, service):
        faulty = FaultInjectingTransport(inproc, always("corrupt"))
        with pytest.raises(TransportFault):
            faulty.call("svc", "insert", value="x")
        assert service.applied == []

    def test_disconnect_is_applied_but_reply_lost(self, inproc, service):
        faulty = FaultInjectingTransport(inproc, always("disconnect"))
        with pytest.raises(TransportFault):
            faulty.call("svc", "insert", value="x")
        assert service.applied == ["x"]

    def test_duplicate_applies_twice_without_idempotency_key(
        self, inproc, service
    ):
        faulty = FaultInjectingTransport(inproc, always("duplicate"))
        faulty.call("svc", "insert", value="x")
        assert service.applied == ["x", "x"]

    def test_duplicate_applies_once_with_idempotency_key(
        self, inproc, service, host
    ):
        faulty = FaultInjectingTransport(inproc, always("duplicate"))
        result = faulty.call_request(
            Request("svc", "insert", {"value": "x"}, idem="k1")
        )
        assert service.applied == ["x"]
        assert result == 1  # duplicate delivery returned the cached reply
        assert host.dedup_stats()["hits"] == 1

    def test_delay_is_accounted(self, inproc, service):
        faulty = FaultInjectingTransport(
            inproc, FaultPlan(delay=1.0, delay_seconds=0.25)
        )
        faulty.call("svc", "read", value=1)
        assert faulty.stats().simulated_delay_seconds >= 0.25
        assert faulty.stats().faults_injected == 1

    def test_batch_frame_faults(self, inproc, service):
        faulty = FaultInjectingTransport(inproc, always("drop"))
        with pytest.raises(TransportFault):
            faulty.call_batch([Request("svc", "insert", {"value": 1})])
        assert service.applied == []

    def test_batch_duplicate_dedups_keyed_requests(self, inproc, service):
        faulty = FaultInjectingTransport(inproc, always("duplicate"))
        responses = faulty.call_batch([
            Request("svc", "insert", {"value": 1}, idem="a"),
            Request("svc", "insert", {"value": 2}, idem="b"),
        ])
        assert [r.ok for r in responses] == [True, True]
        assert service.applied == [1, 2]

    def test_schedule_json_is_reproduction_artifact(self, inproc):
        faulty = FaultInjectingTransport(inproc, always("drop"), seed=42)
        with pytest.raises(TransportFault):
            faulty.call("svc", "read", value=1)
        artifact = faulty.schedule_json()
        assert '"seed": 42' in artifact
        assert '"drop"' in artifact


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        a = [policy.backoff(1, random.Random(3)) for _ in range(5)]
        b = [policy.backoff(1, random.Random(3)) for _ in range(5)]
        assert a == b
        assert all(0.05 <= d <= 0.15 for d in a)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class FlakyTransport(Transport):
    """Fails the first ``failures`` deliveries, then delegates."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.seen_requests = []

    def call_batch(self, requests):
        self.seen_requests.extend(requests)
        if self.failures > 0:
            self.failures -= 1
            raise TransportFault("flaky")
        return self.inner.call_batch(requests)

    def stats(self):
        return self.inner.stats()


def fast_policy(**overrides):
    defaults = dict(max_attempts=4, sleep=False, jitter=0.0,
                    base_delay=0.01)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestResilientTransport:
    def test_retries_until_success(self, inproc, service):
        flaky = FlakyTransport(inproc, failures=2)
        resilient = ResilientTransport(flaky, fast_policy(), seed=0)
        assert resilient.call("svc", "insert", value="x") == 1
        assert service.applied == ["x"]
        assert resilient.stats().retries == 2

    def test_retry_reuses_one_idempotency_key(self, inproc, service):
        flaky = FlakyTransport(inproc, failures=2)
        resilient = ResilientTransport(flaky, fast_policy(), seed=0)
        resilient.call("svc", "insert", value="x")
        keys = {request.idem for request in flaky.seen_requests}
        assert len(keys) == 1 and keys != {""}

    def test_reads_stay_unkeyed(self, inproc, service):
        flaky = FlakyTransport(inproc, failures=0)
        resilient = ResilientTransport(flaky, fast_policy(), seed=0)
        resilient.call("svc", "read", value=1)
        assert flaky.seen_requests[-1].idem == ""

    def test_retry_after_disconnect_applies_once(self, inproc, service):
        # The dangerous case: the request WAS applied, the reply was
        # lost.  The retried delivery must hit the dedup window.
        calls = {"n": 0}

        class OneDisconnect(Transport):
            def call_batch(self, requests):
                calls["n"] += 1
                if calls["n"] == 1:
                    inproc.call_batch(requests)
                    raise TransportFault("reply lost")
                return inproc.call_batch(requests)

            def stats(self):
                return inproc.stats()

        resilient = ResilientTransport(OneDisconnect(), fast_policy(),
                                       seed=0)
        result = resilient.call("svc", "insert", value="x")
        assert service.applied == ["x"]  # applied exactly once
        assert result == 1               # retry returned the cached reply

    def test_remote_errors_are_not_retried(self, inproc, service):
        flaky = FlakyTransport(inproc, failures=0)
        resilient = ResilientTransport(flaky, fast_policy(), seed=0)
        with pytest.raises(RemoteError) as excinfo:
            resilient.call("svc", "fail", reason="boom")
        assert excinfo.value.remote_type == "ValueError"
        assert resilient.stats().retries == 0

    def test_exhausted_retries_raise_typed_error(self, inproc):
        flaky = FlakyTransport(inproc, failures=99)
        resilient = ResilientTransport(flaky, fast_policy(max_attempts=3),
                                       seed=0)
        with pytest.raises(RetryExhausted) as excinfo:
            resilient.call("svc", "read", value=1)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, TransportFault)

    def test_deadline_exceeded(self, inproc):
        clock = {"now": 0.0}

        def fake_clock():
            clock["now"] += 0.3
            return clock["now"]

        flaky = FlakyTransport(inproc, failures=99)
        resilient = ResilientTransport(
            flaky, fast_policy(max_attempts=10, deadline=0.5),
            seed=0, clock=fake_clock,
        )
        with pytest.raises(DeadlineExceeded):
            resilient.call("svc", "read", value=1)

    def test_batch_retry_is_dedup_safe(self, inproc, service):
        class DisconnectOnce(Transport):
            def __init__(self):
                self.first = True

            def call_batch(self, requests):
                if self.first:
                    self.first = False
                    inproc.call_batch(requests)
                    raise TransportFault("reply lost")
                return inproc.call_batch(requests)

            def stats(self):
                return inproc.stats()

        resilient = ResilientTransport(DisconnectOnce(), fast_policy(),
                                       seed=0)
        responses = resilient.call_batch([
            Request("svc", "insert", {"value": 1}),
            Request("svc", "insert", {"value": 2}),
        ])
        assert [r.ok for r in responses] == [True, True]
        assert service.applied == [1, 2]  # once each, not twice


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=threshold,
                          reset_timeout=reset),
            clock=lambda: clock["now"],
        )
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_failure_count(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock["now"] = 6.0
        assert breaker.allow()  # half-open probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_reopens_on_failure(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        clock["now"] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert not breaker.allow()

    def test_resilient_transport_fails_fast_when_open(self, inproc):
        clock = {"now": 0.0}
        flaky = FlakyTransport(inproc, failures=99)
        resilient = ResilientTransport(
            flaky, fast_policy(max_attempts=1),
            breaker=BreakerConfig(failure_threshold=2,
                                  reset_timeout=100.0),
            seed=0, clock=lambda: clock["now"],
        )
        for _ in range(2):
            with pytest.raises(RetryExhausted):
                resilient.call("svc", "read", value=1)
        wire_calls = len(flaky.seen_requests)
        with pytest.raises(CircuitOpenError):
            resilient.call("svc", "read", value=1)
        assert len(flaky.seen_requests) == wire_calls  # wire untouched
        assert resilient.stats().breaker_opens == 1


class TestServiceHostDedup:
    def test_keyed_request_applied_once(self, host, service):
        request = Request("svc", "insert", {"value": "x"}, idem="key")
        first = host.dispatch(request)
        second = host.dispatch(request)
        assert service.applied == ["x"]
        assert first == second
        stats = host.dedup_stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["evictions"] == 0

    def test_unkeyed_request_applied_every_time(self, host, service):
        request = Request("svc", "insert", {"value": "x"})
        host.dispatch(request)
        host.dispatch(request)
        assert service.applied == ["x", "x"]

    def test_error_responses_are_cached_too(self, host, service):
        request = Request("svc", "fail", {"reason": "boom"}, idem="key")
        first = host.dispatch(request)
        second = host.dispatch(request)
        assert not first.ok and first == second

    def test_window_eviction(self, service):
        host = ServiceHost(dedup_window=2)
        host.register("svc", service)
        for key in ("a", "b", "c"):
            host.dispatch(Request("svc", "insert", {"value": key},
                                  idem=key))
        # "a" was evicted: replaying it applies again.
        host.dispatch(Request("svc", "insert", {"value": "a"}, idem="a"))
        assert service.applied == ["a", "b", "c", "a"]

    def test_idem_survives_the_wire(self, host, service, inproc):
        inproc.call_request(
            Request("svc", "insert", {"value": "x"}, idem="wire-key")
        )
        inproc.call_request(
            Request("svc", "insert", {"value": "x"}, idem="wire-key")
        )
        assert service.applied == ["x"]

    def test_request_payload_roundtrip_with_idem(self):
        request = Request("s", "m", {"a": 1}, idem="k")
        assert Request.from_payload(request.to_payload()) == request

    def test_unkeyed_payload_omits_idem(self):
        assert "idem" not in Request("s", "m", {}).to_payload()


def call_only(host):
    """One call per slot through ``slot_response``: the fallback for
    slots that travel without a batch frame of their own."""
    direct = DirectTransport(host)

    def call(request):
        if request.method == "explode":
            raise ValueError("local failure")  # not a RemoteError
        if request.method == "linkdown":
            raise TransportFault("link down")
        return direct.call_request(request)

    return lambda requests: [slot_response(call, r) for r in requests]


class TestBaseCallBatchFallback:
    """Regression: the error-isolation contract of a per-slot fallback
    once held only for RemoteError."""

    def test_non_remote_errors_become_error_slots(self, host, service):
        call_batch = call_only(host)
        responses = call_batch([
            Request("svc", "insert", {"value": 1}),
            Request("svc", "explode", {}),
            Request("svc", "insert", {"value": 2}),
        ])
        assert [r.ok for r in responses] == [True, False, True]
        assert responses[1].error_type == "ValueError"
        assert service.applied == [1, 2]  # isolation: batch completed

    def test_remote_error_type_preserved(self, host):
        call_batch = call_only(host)
        responses = call_batch([Request("svc", "fail", {"reason": "r"})])
        assert responses[0].error_type == "ValueError"
        with pytest.raises(RemoteError) as raised:
            responses[0].unwrap()
        assert raised.value.remote_type == "ValueError"

    def test_link_failures_still_abort_the_batch(self, host, service):
        call_batch = call_only(host)
        with pytest.raises(TransportFault):
            call_batch([Request("svc", "linkdown", {}),
                        Request("svc", "insert", {"value": 1})])
        assert service.applied == []
