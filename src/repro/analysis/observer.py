"""Persistent-adversary observation: watching the wire, not the disk.

§2's second model: "the persistent model assumes that the adversary can
observe all operations of the cloud server but without any interference".
:class:`ObservedTransport` wraps any transport and records the transcript
an honest-but-curious provider accumulates — per-service requests with
the opaque artifacts they carry (addresses, tokens, tags).

:class:`TranscriptAnalysis` then computes the statistics such an
adversary actually exploits:

* **query linkability** — do two searches reuse identical artifacts?
  (Mitra re-sends the same PRF addresses for a keyword its gateway has
  no memo of: equal queries are linkable, a known property of most SSE.)
* **forward privacy, observed** — do the artifacts of an *update* ever
  collide with artifacts seen in earlier *searches*?  For Mitra/Sophos
  they must not (fresh counters / token-chain steps); for the stateless
  extension the keyword tag repeats, which is exactly its documented
  trade.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.net.rpc import Request, Response
from repro.net.transport import Transport, TransportLayer


def _artifacts(value: Any) -> set[bytes]:
    """Collect every bytes-valued artifact in a payload, recursively."""
    found: set[bytes] = set()
    if isinstance(value, (bytes, bytearray)):
        found.add(bytes(value))
    elif isinstance(value, dict):
        for item in value.values():
            found |= _artifacts(item)
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            found |= _artifacts(item)
    return found


#: Payload keys whose values name documents.
_ID_KEYS = ("_id", "doc_id", "doc_ids", "ids")


def _identifiers(value: Any) -> set[str]:
    """Document ids in a payload: the values under :data:`_ID_KEYS`,
    recursively, and a bare list of strings (a lookup's answer)."""
    if isinstance(value, dict):
        found: set[str] = set()
        for key, item in value.items():
            if key in _ID_KEYS:
                found.update([item] if isinstance(item, str) else item)
            else:
                found |= _identifiers(item)
        return found
    if isinstance(value, list):
        if value and all(isinstance(item, str) for item in value):
            return set(value)
        return set().union(*map(_identifiers, value))
    return set()


@dataclass(frozen=True)
class ObservedCall:
    sequence: int
    service: str
    method: str
    artifacts: frozenset[bytes]
    #: Document ids the request named or its reply returned.
    identifiers: frozenset[str] = frozenset()


@dataclass
class TranscriptAnalysis:
    calls: list[ObservedCall] = field(default_factory=list)

    def for_service(self, suffix: str) -> list[ObservedCall]:
        return [c for c in self.calls if c.service.endswith(suffix)]

    def queries(self, suffix: str,
                methods: tuple[str, ...] = ("eq_query", "bool_query",
                                            "range_query")
                ) -> list[ObservedCall]:
        return [c for c in self.for_service(suffix)
                if c.method in methods]

    def updates(self, suffix: str,
                methods: tuple[str, ...] = ("insert", "insert_many",
                                            "update", "delete")
                ) -> list[ObservedCall]:
        """Update calls; an ``insert_many`` slot carries the artifacts
        of every entry it holds."""
        return [c for c in self.for_service(suffix)
                if c.method in methods]

    # -- the statistics a persistent adversary computes --------------------

    def linkable_query_pairs(self, suffix: str) -> int:
        """Pairs of queries sharing at least one artifact — repeated
        searches for the same keyword are linkable in most SSE."""
        queries = self.queries(suffix)
        count = 0
        for i, a in enumerate(queries):
            for b in queries[i + 1:]:
                if a.artifacts & b.artifacts:
                    count += 1
        return count

    def update_artifacts_predictable_from(self, suffix: str,
                                          before_sequence: int) -> int:
        """Artifacts of updates issued *after* ``before_sequence`` that
        already appeared in earlier traffic — zero means the adversary's
        accumulated state says nothing about future updates (forward
        privacy, observed on the wire)."""
        seen_before: set[bytes] = set()
        for call in self.for_service(suffix):
            if call.sequence <= before_sequence:
                seen_before |= call.artifacts
        collisions = 0
        for call in self.updates(suffix):
            if call.sequence > before_sequence:
                collisions += len(call.artifacts & seen_before)
        return collisions


class ObservedTransport(TransportLayer):
    """A wiretap: records the transcript, forwards requests and batch
    frames unchanged (one :class:`ObservedCall` per sub-call, once its
    reply is back).

    A co-located find (``lookup_fetch``) is recorded as the index lookup
    it carries — the tactic service, its query method and token — with
    the ids and documents of the reply, so query statistics see it
    exactly as they see a lookup sent alone.
    """

    def __init__(self, inner: Transport):
        super().__init__(inner)
        self.transcript = TranscriptAnalysis()
        self._lock = threading.Lock()
        self._sequence = 0

    def _observe(self, request: Request, result: Any = None) -> None:
        service, method, kwargs = (request.service, request.method,
                                   request.kwargs)
        if method.startswith("lookup_fetch"):
            service, method = kwargs["index"], kwargs["query"]
            kwargs = kwargs["args"]
        with self._lock:
            self._sequence += 1
            self.transcript.calls.append(ObservedCall(
                sequence=self._sequence,
                service=service,
                method=method,
                artifacts=frozenset(_artifacts(kwargs)),
                identifiers=frozenset(_identifiers(kwargs)
                                      | _identifiers(result)),
            ))

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        responses: list[Response] = []
        try:
            responses = self._inner.call_batch(requests)
            return responses
        finally:
            results = [r.result for r in responses] or [None] * len(requests)
            for request, result in zip(requests, results):
                self._observe(request, result)

    @property
    def last_sequence(self) -> int:
        with self._lock:
            return self._sequence
