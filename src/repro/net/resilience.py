"""Resilience: retries, timeouts, backoff and circuit breaking.

A production gateway cannot assume every RPC succeeds — the deployment
view (Fig. 3) crosses the public internet to several cloud providers.
:class:`ResilientTransport` wraps any inner transport with:

* a configurable :class:`RetryPolicy` — bounded attempts, exponential
  backoff with jitter, and an optional per-call deadline;
* a per-endpoint :class:`CircuitBreaker` — after enough consecutive
  transport faults, calls fail fast with
  :class:`repro.errors.CircuitOpenError` until a reset timeout elapses
  (half-open probe, then close on success), which both sheds load from a
  struggling provider and gives :class:`repro.shard.router
  .ShardedTransport` its replica-failover signal;
* idempotency keys: mutating requests are stamped with a unique ``idem``
  key *once per logical call*, so every retry re-sends the same key and
  the cloud's dedup window (:class:`repro.net.rpc.ServiceHost`) applies
  the write at most once — at-least-once delivery becomes exactly-once
  application for DET/Mitra/BIEX/stateless index updates and document
  writes.

Error classification: :class:`repro.errors.RemoteError` means the cloud
*executed* the request and raised — that is an application failure, not
a delivery failure, so it is never retried (and counts as endpoint
health for the breaker).  Every other :class:`~repro.errors
.TransportError` (and ``OSError``) is a delivery failure and retryable.
Exhausted retries raise :class:`repro.errors.RetryExhausted`; a blown
deadline raises :class:`repro.errors.DeadlineExceeded`.
"""

from __future__ import annotations

import itertools
import random
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    RemoteError,
    RetryExhausted,
    TransportError,
)
from repro.net.latency import NetworkStats
from repro.net.rpc import MUTATING_METHODS, Request, Response
from repro.net.transport import Transport, TransportLayer


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff, jitter and a deadline.

    The delay before retry *n* (1-based) is
    ``min(max_delay, base_delay * multiplier**(n-1))``, scaled by a
    uniform jitter in ``[1-jitter, 1+jitter]`` to de-synchronise
    retrying clients.  ``deadline`` bounds one logical call end to end:
    a retry that cannot start before the deadline raises
    :class:`repro.errors.DeadlineExceeded` instead of sleeping.
    ``sleep=False`` keeps the schedule purely accounted (fast tests).
    """

    max_attempts: int = 4
    base_delay: float = 0.02
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline: float | None = None
    sleep: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    @classmethod
    def no_retry(cls) -> "RetryPolicy":
        """Single attempt — the chaos suite's ablation baseline."""
        return cls(max_attempts=1, sleep=False)

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay (seconds) before retrying after failed ``attempt``."""
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter > 0:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning for one endpoint."""

    #: Consecutive transport faults that open the circuit.
    failure_threshold: int = 5
    #: Seconds the circuit stays open before a half-open probe.
    reset_timeout: float = 30.0


class CircuitBreaker:
    """Classic closed → open → half-open breaker for one endpoint.

    Closed: calls pass; consecutive failures are counted and a success
    resets the count.  Open: calls are rejected without touching the
    wire until ``reset_timeout`` elapses.  Half-open: one probe call is
    let through; success closes the circuit, failure re-opens it.
    """

    def __init__(self, config: BreakerConfig | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._opens = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def opens(self) -> int:
        """How many times the circuit has opened (degradation metric)."""
        with self._lock:
            return self._opens

    def allow(self) -> bool:
        """May a call proceed right now?  (May transition to half-open.)"""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if (self._clock() - self._opened_at
                        >= self.config.reset_timeout):
                    self._state = "half-open"
                    return True
                return False
            # half-open: a probe is already in flight; fail fast until
            # its outcome settles the state.
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == "half-open":
                self._trip()
                return
            self._failures += 1
            if (self._state == "closed"
                    and self._failures >= self.config.failure_threshold):
                self._trip()

    def _trip(self) -> None:
        self._state = "open"
        self._failures = 0
        self._opened_at = self._clock()
        self._opens += 1


@dataclass(frozen=True)
class ResilienceConfig:
    """One knob for the whole resilience layer (middleware wiring)."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Seed for the jitter RNG (deterministic backoff in tests).
    seed: int | None = None
    #: The idempotency dedup window the untrusted zone's
    #: :class:`repro.net.rpc.ServiceHost` must honour for this
    #: deployment's retries to stay exactly-once: it bounds the keyed
    #: responses each host remembers (LRU), and must exceed the number
    #: of keyed writes a gateway can have in flight between a fault and
    #: its retry.  Deployment code hands the same config to
    #: :class:`repro.cloud.server.CloudZone` /
    #: :class:`repro.cloud.cluster.CloudCluster` so both zones agree.
    dedup_window: int = 1024


class ResilientTransport(TransportLayer):
    """Retry/timeout/backoff + circuit-breaker wrapper for one endpoint.

    Wrap each *provider* transport (below any
    :class:`~repro.net.batch.BatchCollector`, above any
    :class:`~repro.net.faults.FaultInjectingTransport`): the breaker is
    per endpoint, and write batches are retried whole — their keyed
    sub-requests make the re-delivery safe.
    """

    label = "resilience"

    def __init__(self, inner: Transport,
                 policy: RetryPolicy | None = None,
                 breaker: BreakerConfig | CircuitBreaker | None = None,
                 seed: int | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep_fn: Callable[[float], None] = time.sleep):
        super().__init__(inner)
        self.policy = policy or RetryPolicy()
        self.breaker = (breaker if isinstance(breaker, CircuitBreaker)
                        else CircuitBreaker(breaker, clock))
        self._rng = random.Random(seed)
        self._clock = clock
        self._sleep = sleep_fn
        self._retries = 0
        self._lock = threading.Lock()
        self._key_prefix = secrets.token_hex(6)
        self._key_counter = itertools.count(1)

    # -- idempotency keys --------------------------------------------------

    def _mint_key(self) -> str:
        return f"{self._key_prefix}-{next(self._key_counter)}"

    def _keyed(self, request: Request) -> Request:
        """Stamp a mutating request with a fresh idempotency key.

        Minted once per *logical* call, before the first attempt, so
        every retry re-sends the same key and the cloud applies the
        write at most once.  Already-keyed requests pass unchanged.
        """
        if request.idem or request.method not in MUTATING_METHODS:
            return request
        return Request(request.service, request.method, request.kwargs,
                       idem=self._mint_key())

    # -- retry loop --------------------------------------------------------

    def _execute(self, operation: Callable[[], Any], label: str) -> Any:
        policy = self.policy
        start = self._clock()
        last: Exception | None = None
        attempts = 0
        for attempt in range(1, policy.max_attempts + 1):
            if not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open for endpoint; rejecting {label}"
                )
            attempts = attempt
            try:
                result = operation()
            except RemoteError:
                # The cloud executed the request: the endpoint is
                # healthy and the failure is the application's.
                self.breaker.record_success()
                raise
            except (TransportError, OSError) as exc:
                self.breaker.record_failure()
                last = exc
                if attempt >= policy.max_attempts:
                    break
                delay = policy.backoff(attempt, self._rng)
                if policy.deadline is not None and (
                    self._clock() - start + delay > policy.deadline
                ):
                    raise DeadlineExceeded(
                        f"{label}: deadline of {policy.deadline}s would "
                        f"elapse before retry {attempt + 1} ({exc})"
                    ) from exc
                if policy.sleep and delay > 0:
                    self._sleep(delay)
                with self._lock:
                    self._retries += 1
            else:
                self.breaker.record_success()
                return result
        raise RetryExhausted(attempts, last) from last

    # -- Transport interface -----------------------------------------------

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        if not requests:
            return []
        keyed = [self._keyed(request) for request in requests]
        label = f"batch[{len(keyed)}]"
        return self._execute(
            lambda: self._inner.call_batch(keyed), label
        )

    def own_stats(self) -> NetworkStats:
        with self._lock:
            return NetworkStats(retries=self._retries,
                                breaker_opens=self.breaker.opens)


def wrap_resilient(transport: Transport,
                   config: ResilienceConfig | None) -> Transport:
    """Middleware wiring helper: wrap unless already resilient or off."""
    if config is None or isinstance(transport, ResilientTransport):
        return transport
    return ResilientTransport(transport, config.retry, config.breaker,
                              seed=config.seed)
