"""RPC dispatch: service hosting and typed request/response.

A :class:`ServiceHost` lives in the untrusted zone (the cloud) and exposes
named services — one per cloud-side tactic implementation plus the
document store service.  Transports deliver ``Request`` frames to a host
and carry ``Response`` frames back; remote exceptions are re-raised at the
caller as :class:`repro.errors.RemoteError` with the remote type name
preserved.

Every wire frame is a *batch* frame: N requests shipped as one payload
(``{"batch": [...]}``) and answered with N responses in order; a lone
call travels as a batch of one.  Each sub-request is dispatched
independently, so a failing one yields an error response in its slot
without poisoning the rest of the batch.  The frame parsers read input
from the untrusted zone: a payload that is not a batch of objects, or a
reply whose slot count differs from the request count, raises
:class:`repro.errors.TransportError` and nothing else.

Requests may carry an *idempotency key* (``idem``, a short unique string
minted by :class:`repro.net.resilience.ResilientTransport` for mutating
methods).  The host remembers the response of every keyed request in a
bounded dedup window, so an at-least-once delivery — a retry after a
lost reply, or a network-duplicated frame — re-returns the recorded
response instead of applying the write a second time.  That is what
makes retrying index/document writes safe for append-style secure
indexes (stateless SSE, BIEX buckets) and for the duplicate-rejecting
document store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import DataBlinderError, RemoteError, TransportError
from repro.net.message import encode_items

#: The one key of a wire frame: its list of request or response slots.
BATCH_KEY = "batch"

#: RPC method names that mutate cloud state — every write the executor,
#: the docstore and the tactic cloud halves (built-in or third-party)
#: expose, and the one answer to "does this method write?".  Passing one
#: gets an idempotency key (:mod:`repro.net.resilience`), advances the
#: HSM write counter (:mod:`repro.integrity.verify`), is collected
#: into the operation's write batch (:mod:`repro.net.batch`) and routes
#: down its owner chain as a write (:mod:`repro.shard.router`).
MUTATING_METHODS = frozenset({
    "insert",
    "insert_many",
    "insert_terms",
    "update",
    "update_terms",
    "delete",
    "delete_terms",
    "replace",
    "upsert",
    "add",
    "remove",
})

#: RPC method names that stand a deployment up: the admin service's
#: provisioning calls and each tactic cloud half's ``setup``.  Their
#: results are ignored, so a collection scope queues them
#: (:mod:`repro.net.batch`); every node runs them in the order sent, and
#: a joining node replays them (:mod:`repro.shard.router`).
PROVISIONING_METHODS = frozenset({
    "provision_application",
    "enable_integrity",
    "provision_tactic",
    "setup",
})


@dataclass(frozen=True)
class Request:
    service: str
    method: str
    kwargs: dict[str, Any]
    #: Idempotency key; empty means "apply on every delivery".  Keyed
    #: requests are applied at most once per key within the host's dedup
    #: window (duplicate deliveries re-return the recorded response).
    idem: str = ""

    def to_payload(self) -> dict[str, Any]:
        payload = {"service": self.service, "method": self.method,
                   "kwargs": self.kwargs}
        if self.idem:
            payload["idem"] = self.idem
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Request":
        try:
            return cls(payload["service"], payload["method"],
                       dict(payload["kwargs"]),
                       idem=str(payload.get("idem", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed request frame: {exc}") from exc


@dataclass(frozen=True)
class Response:
    ok: bool
    result: Any = None
    error_type: str = ""
    error_message: str = ""
    #: The exception a gateway-side layer raised for this slot: never
    #: encoded, and :meth:`unwrap` re-raises it with its type.
    raised: Exception | None = field(default=None, compare=False,
                                     repr=False)

    @classmethod
    def failed(cls, exc: Exception) -> "Response":
        """The error slot of a gateway-side failure."""
        if isinstance(exc, RemoteError):
            return cls(ok=False, error_type=exc.remote_type,
                       error_message=exc.remote_message, raised=exc)
        return cls(ok=False, error_type=type(exc).__name__,
                   error_message=str(exc), raised=exc)

    def to_payload(self) -> dict[str, Any]:
        if self.ok:
            return {"ok": True, "result": self.result}
        return {"ok": False, "error_type": self.error_type,
                "error_message": self.error_message}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Response":
        if payload.get("ok"):
            return cls(ok=True, result=payload.get("result"))
        return cls(ok=False, error_type=payload.get("error_type", "Error"),
                   error_message=payload.get("error_message", ""))

    def unwrap(self) -> Any:
        if self.ok:
            return self.result
        if self.raised is not None:
            raise self.raised
        raise RemoteError(self.error_type, self.error_message)


def batch_request_payload(requests: list[Request]) -> dict[str, Any]:
    """One wire payload carrying a whole batch of requests."""
    return {BATCH_KEY: [request.to_payload() for request in requests]}


def _slots(payload: Any, kind: str) -> list[dict[str, Any]]:
    """The slot objects of a batch frame read off the wire."""
    items = payload.get(BATCH_KEY) if isinstance(payload, dict) else None
    if not isinstance(items, list) or not all(
        isinstance(item, dict) for item in items
    ):
        raise TransportError(f"malformed batch {kind} frame")
    return items


def requests_from_batch(payload: Any) -> list[Request]:
    return [Request.from_payload(item)
            for item in _slots(payload, "request")]


def batch_response_payload(responses: list[Response]) -> dict[str, Any]:
    return {BATCH_KEY: [response.to_payload() for response in responses]}


def responses_from_batch(payload: Any, count: int) -> list[Response]:
    """The replies to a frame of ``count`` requests, one per slot."""
    items = _slots(payload, "response")
    if len(items) != count:
        raise TransportError(f"batch reply carries {len(items)} slots "
                             f"for {count} requests")
    return [Response.from_payload(item) for item in items]


def encode_batch(items: "Sequence[Request] | Sequence[Response]"
                 ) -> tuple[bytes, list[int]]:
    """The batch frame of ``items`` — byte for byte
    ``encode(batch_*_payload(items))`` — and the size of each slot."""
    return encode_items(BATCH_KEY, [item.to_payload() for item in items])


class ServiceHost:
    """A registry of callable services with uniform dispatch.

    Services are plain objects; any public method (no leading underscore)
    is callable remotely with keyword arguments.

    ``dedup_window`` bounds the number of idempotency-keyed responses the
    host remembers (LRU).  The window must exceed the number of keyed
    writes a client can have in flight between a fault and its retry;
    the default comfortably covers one executor operation's fan-out plus
    a batch frame.
    """

    def __init__(self, dedup_window: int = 1024) -> None:
        self._services: dict[str, Any] = {}
        self._lock = threading.RLock()
        self._dedup: OrderedDict[str, Response] = OrderedDict()
        self._dedup_window = dedup_window
        self._dedup_hits = 0
        #: Keyed responses the LRU pushed out before any retry claimed
        #: them.  A nonzero count under fault load means the window may
        #: be too small for the deployment's in-flight write fan-out —
        #: surfaced through ``dedup_stats`` and the transport's
        #: :class:`~repro.net.latency.NetworkStats`.
        self._dedup_evictions = 0

    def register(self, name: str, service: Any) -> None:
        with self._lock:
            if name in self._services:
                raise TransportError(f"service {name!r} already registered")
            self._services[name] = service

    def unregister(self, name: str) -> None:
        with self._lock:
            self._services.pop(name, None)

    def get(self, name: str) -> Any:
        with self._lock:
            service = self._services.get(name)
        if service is None:
            raise TransportError(f"unknown service {name!r}")
        return service

    def service_names(self) -> list[str]:
        with self._lock:
            return sorted(self._services)

    def dedup_stats(self) -> dict[str, int]:
        """Observability for the idempotency window (tests, metrics)."""
        with self._lock:
            return {
                "entries": len(self._dedup),
                "hits": self._dedup_hits,
                "evictions": self._dedup_evictions,
                "window": self._dedup_window,
            }

    def _dedup_lookup(self, idem: str) -> Response | None:
        with self._lock:
            cached = self._dedup.get(idem)
            if cached is not None:
                self._dedup.move_to_end(idem)
                self._dedup_hits += 1
            return cached

    def _dedup_record(self, idem: str, response: Response) -> None:
        with self._lock:
            self._dedup[idem] = response
            self._dedup.move_to_end(idem)
            while len(self._dedup) > self._dedup_window:
                self._dedup.popitem(last=False)
                self._dedup_evictions += 1

    def dispatch(self, request: Request) -> Response:
        if request.idem:
            cached = self._dedup_lookup(request.idem)
            if cached is not None:
                return cached
        response = self._dispatch_once(request)
        if request.idem:
            self._dedup_record(request.idem, response)
        return response

    def _dispatch_once(self, request: Request) -> Response:
        try:
            service = self.get(request.service)
            if request.method.startswith("_"):
                raise TransportError(
                    f"method {request.method!r} is not remotely callable"
                )
            method = getattr(service, request.method, None)
            if method is None or not callable(method):
                raise TransportError(
                    f"service {request.service!r} has no method "
                    f"{request.method!r}"
                )
            result = method(**request.kwargs)
            return Response(ok=True, result=result)
        except DataBlinderError as exc:
            return Response(ok=False, error_type=type(exc).__name__,
                            error_message=str(exc))
        except Exception as exc:  # noqa: BLE001 - must cross the wire
            return Response(ok=False, error_type=type(exc).__name__,
                            error_message=str(exc))

    def dispatch_batch(self, requests: list[Request]) -> list[Response]:
        """Dispatch a batch in order with per-request error isolation.

        ``dispatch`` already converts every failure into an error
        response, so one bad sub-call never aborts the requests queued
        behind it.
        """
        return [self.dispatch(request) for request in requests]
