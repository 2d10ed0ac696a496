"""Fault injection: a chaos harness for the gateway <-> cloud link.

The paper's deployment spans a trusted gateway and *multiple* untrusted
providers; a production gateway therefore has to survive dropped frames,
slow links, broken connections, duplicated deliveries and corrupt
replies.  :class:`FaultInjectingTransport` wraps any inner
:class:`repro.net.transport.Transport` and injects exactly those faults,
*deterministically* from a seed — so a failing chaos run is reproducible
from its seed and fault log alone.  Every delivery is one batch frame (a
lone call is a frame of one), so the injector has one send path to
fault.

Fault taxonomy (at most one fault per delivery, chosen by one seeded
draw so schedules are stable under refactoring):

===============  ============================================  =========
kind             wire meaning                                  applied?
===============  ============================================  =========
``drop``         request frame lost in flight                  no
``corrupt``      request frame mangled; peer cannot decode it  no
``disconnect``   connection died after dispatch; reply lost    yes
``duplicate``    frame delivered twice (network duplication)   twice
``delay``        frame delayed by ``delay_seconds``            yes
``tamper``       adversary mutated a fetched document reply    yes
``rollback``     adversary replayed an old (valid) reply       yes
===============  ============================================  =========

"applied?" is what makes the taxonomy matter: ``drop``/``corrupt``
faults are safe to blindly retry, while ``disconnect`` means the cloud
*did* execute the request and only the idempotency-key dedup window
(:class:`repro.net.rpc.ServiceHost`) makes a retry safe, and
``duplicate`` exercises the same window without any client retry.

``tamper`` and ``rollback`` model the *untrusted-provider* adversary of
the integrity subsystem rather than a flaky link: ``tamper`` flips one
bit in a proven document read's reply (a ``get_many_proven`` list or a
co-located find's ``docs``), ``rollback`` re-serves the
earliest previously captured reply for the same request once the stored
document has actually changed.  Both are recorded in :meth:`events`
only when they actually mutate a delivery — a draw that lands on a
non-document call, an empty reply, or an unchanged document is a no-op
— so the chaos invariant "every recorded event surfaces as a typed
:class:`repro.errors.IntegrityError`" is exact, not probabilistic.
"""

from __future__ import annotations

import copy
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import TransportFault
from repro.net.latency import NetworkStats
from repro.net.rpc import Request, Response
from repro.net.transport import Transport, TransportLayer

FAULT_KINDS = ("drop", "corrupt", "disconnect", "duplicate", "delay",
               "tamper", "rollback")

#: Kinds recorded only when they actually mutate a delivery (see the
#: module docstring); the seeded draw alone does not make an event.
APPLY_TIME_KINDS = frozenset({"tamper", "rollback"})

#: Document reads whose replies carry integrity envelopes — the only
#: deliveries ``tamper``/``rollback`` ever touch.
_PROTECTED_READS = frozenset({"get_many_proven", "lookup_fetch_proven"})


def _envelopes(result: Any) -> Any:
    """The proven envelopes of a protected read's reply: the list a
    ``get_many_proven`` returns, or the ``docs`` of a co-located find
    (its ``ids`` carry no proof, so no fault touches them)."""
    if isinstance(result, dict) and "ids" in result:
        return result.get("docs")
    return result


@dataclass(frozen=True)
class FaultPlan:
    """Per-delivery fault probabilities (must sum to at most 1).

    One uniform draw per delivery is compared against the cumulative
    probabilities in :data:`FAULT_KINDS` order, so at most one fault
    fires per frame and the schedule is a pure function of the seed and
    the call sequence.
    """

    drop: float = 0.0
    corrupt: float = 0.0
    disconnect: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    tamper: float = 0.0
    rollback: float = 0.0
    #: Added one-way delay when a ``delay`` fault fires.
    delay_seconds: float = 0.0
    #: Whether the injected delay is actually slept (wall-clock chaos
    #: runs) or only accounted (fast unit tests).
    sleep: bool = False

    def __post_init__(self) -> None:
        total = (self.drop + self.corrupt + self.disconnect
                 + self.duplicate + self.delay
                 + self.tamper + self.rollback)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault probabilities sum to {total}, must be <= 1"
            )
        for kind in FAULT_KINDS:
            if getattr(self, kind) < 0:
                raise ValueError(f"negative probability for {kind!r}")

    def probability(self, kind: str) -> float:
        return float(getattr(self, kind))


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for reproduction artifacts."""

    seq: int          #: delivery index on this transport (0-based)
    kind: str         #: one of :data:`FAULT_KINDS`
    #: ``batch[n]``, plus ``[i]=service.method`` for the slot a
    #: ``tamper``/``rollback`` mutated
    target: str

    def to_payload(self) -> dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind, "target": self.target}


class FaultInjectingTransport(TransportLayer):
    """Deterministic (seeded) chaos wrapper around any transport.

    Faults are injected client-side around the inner transport, which
    models the link rather than the peer: a ``drop`` never reaches the
    inner transport, a ``disconnect`` completes the inner dispatch and
    then loses the reply, a ``duplicate`` performs the inner dispatch
    twice.  Works identically over :class:`~repro.net.transport.InProcTransport`
    and :class:`~repro.net.tcp.TcpTransport`.

    Integrity state reports are frames like any other, so they meet
    the same faults and a dropped one retries above; ``tamper`` and
    ``rollback`` still touch only fetched documents.
    """

    label = "faults"

    def __init__(self, inner: Transport, plan: FaultPlan,
                 seed: int = 0):
        super().__init__(inner)
        self._plan = plan
        self._seed = seed
        self._rng = random.Random(seed)
        self._events: list[FaultEvent] = []
        self._deliveries = 0
        self._injected_delay = 0.0
        #: Earliest reply seen per proven-read signature: the material a
        #: ``rollback`` fault replays once the stored document changed.
        self._captures: dict[str, Any] = {}
        self._lock = threading.Lock()

    @property
    def seed(self) -> int:
        return self._seed

    # -- schedule ----------------------------------------------------------

    def _next_fault(self, target: str) -> tuple[int, str | None]:
        """One seeded draw decides this delivery's fault (or none).

        Returns ``(seq, kind)``.  Link faults are recorded immediately;
        :data:`APPLY_TIME_KINDS` are recorded by the caller via
        :meth:`_record` only once they actually mutate the delivery.
        """
        with self._lock:
            seq = self._deliveries
            self._deliveries += 1
            draw = self._rng.random()
            for kind in FAULT_KINDS:
                probability = self._plan.probability(kind)
                if draw < probability:
                    if kind not in APPLY_TIME_KINDS:
                        self._events.append(
                            FaultEvent(seq, kind, target)
                        )
                    return seq, kind
                draw -= probability
            return seq, None

    def _record(self, seq: int, kind: str, target: str) -> None:
        with self._lock:
            self._events.append(FaultEvent(seq, kind, target))

    def events(self) -> list[FaultEvent]:
        """Every fault injected so far (for assertions and artifacts)."""
        with self._lock:
            return list(self._events)

    def fault_count(self, *kinds: str) -> int:
        with self._lock:
            if not kinds:
                return len(self._events)
            return sum(1 for e in self._events if e.kind in kinds)

    def schedule_json(self) -> str:
        """The reproduction artifact: seed, plan and fired faults."""
        with self._lock:
            return json.dumps({
                "seed": self._seed,
                "plan": {kind: self._plan.probability(kind)
                         for kind in FAULT_KINDS},
                "deliveries": self._deliveries,
                "events": [e.to_payload() for e in self._events],
            }, indent=2, sort_keys=True)

    # -- fault application -------------------------------------------------

    def _delay(self) -> None:
        with self._lock:
            self._injected_delay += self._plan.delay_seconds
        if self._plan.sleep and self._plan.delay_seconds > 0:
            time.sleep(self._plan.delay_seconds)

    # -- adversarial (integrity) faults ------------------------------------

    @staticmethod
    def _eligible(request: Request) -> bool:
        return (request.service.startswith("docs/")
                and request.method in _PROTECTED_READS)

    @staticmethod
    def _signature(request: Request) -> str:
        return (f"{request.service}.{request.method}:"
                f"{sorted(request.kwargs.items())!r}")

    def _capture(self, request: Request, result: Any) -> None:
        """Remember the earliest reply per proven-read signature."""
        if not self._eligible(request) or result is None:
            return
        signature = self._signature(request)
        with self._lock:
            if signature not in self._captures:
                self._captures[signature] = copy.deepcopy(result)

    def _dispatch_batch(self,
                        requests: Sequence[Request]) -> list[Response]:
        responses = self._inner.call_batch(requests)
        for request, response in zip(requests, responses):
            if response.ok:
                self._capture(request, response.result)
        return responses

    @classmethod
    def _flip_leaf(cls, container: Any) -> bool:
        """Flip one bit in the first mutable leaf; True when mutated."""
        items: Any
        if isinstance(container, dict):
            items = list(container.items())
        elif isinstance(container, list):
            items = list(enumerate(container))
        else:
            return False
        for key, value in items:
            if isinstance(value, bytes) and value:
                container[key] = bytes([value[0] ^ 1]) + value[1:]
                return True
            if isinstance(value, str) and value:
                container[key] = chr(ord(value[0]) ^ 1) + value[1:]
                return True
            if isinstance(value, bool):
                container[key] = not value
                return True
            if isinstance(value, (int, float)):
                container[key] = value + 1
                return True
            if isinstance(value, (dict, list)) and cls._flip_leaf(value):
                return True
        return False

    def _apply_tamper(self, request: Request,
                      result: Any) -> tuple[Any, bool]:
        """A copy of a proven read's reply with one envelope mutated,
        and whether one was.

        Prefers flipping a bit inside the document payload (defeated by
        the inclusion proof); falls back to the reported root (defeated
        by the freshness ledger).  Tuple/set-only documents fall through
        to the root flip, so an applied tamper is always detectable.
        """
        if not self._eligible(request):
            return result, False
        tampered = copy.deepcopy(result)
        envelopes = _envelopes(tampered)
        for envelope in envelopes if isinstance(envelopes, list) else []:
            if not isinstance(envelope, dict):
                continue
            document = envelope.get("document")
            if isinstance(document, dict) and self._flip_leaf(document):
                return tampered, True
            root = envelope.get("root")
            if isinstance(root, str) and root:
                envelope["root"] = chr(ord(root[0]) ^ 1) + root[1:]
                return tampered, True
        return result, False

    def _apply_rollback(self, request: Request,
                        result: Any) -> tuple[Any, bool]:
        """Replay the earliest capture for this request whose envelopes
        differ from the live reply's (and, for a co-located find, carry
        at least one: a replayed bare id list proves nothing)."""
        if not self._eligible(request):
            return result, False
        with self._lock:
            captured = self._captures.get(self._signature(request))
        if captured is None:
            return result, False
        envelopes = _envelopes(captured)
        if envelopes == _envelopes(result) or (
            isinstance(captured, dict) and not envelopes
        ):
            return result, False
        return copy.deepcopy(captured), True

    # -- Transport interface -----------------------------------------------

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        if not requests:
            return []
        target = f"batch[{len(requests)}]"
        seq, kind = self._next_fault(target)
        if kind == "drop":
            raise TransportFault(f"injected fault: {target} frame "
                                 f"dropped in flight")
        if kind == "corrupt":
            raise TransportFault(f"injected fault: {target} frame "
                                 f"corrupt, rejected by peer")
        if kind == "delay":
            self._delay()
        if kind in ("duplicate", "disconnect"):
            self._dispatch_batch(requests)  # the first delivery
        if kind == "disconnect":
            raise TransportFault(f"injected fault: connection lost after "
                                 f"{target} was delivered; reply lost")
        responses = self._dispatch_batch(requests)
        if kind in APPLY_TIME_KINDS:
            # The adversary rewrites the first slot it can.
            mutate = (self._apply_tamper if kind == "tamper"
                      else self._apply_rollback)
            for index, (request, response) in enumerate(
                zip(requests, responses)
            ):
                if not response.ok:
                    continue
                result, applied = mutate(request, response.result)
                if applied:
                    self._record(seq, kind,
                                 f"{target}[{index}]="
                                 f"{request.service}.{request.method}")
                    responses = list(responses)
                    responses[index] = Response(ok=True, result=result)
                    break
        return responses

    def own_stats(self) -> NetworkStats:
        with self._lock:
            return NetworkStats(
                simulated_delay_seconds=self._injected_delay,
                faults_injected=len(self._events),
            )
