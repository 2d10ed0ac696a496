"""Transports: how the gateway reaches cloud services.

:class:`InProcTransport` keeps both zones in one process but routes every
call through the full serialize -> latency-model -> dispatch -> serialize
path, so message counts, byte counts and (optionally slept) delays match a
two-host deployment.  :class:`repro.net.tcp.TcpTransport` swaps the middle
for a real socket.  Application code never sees the difference: both
implement :class:`Transport`.

Every endpoint and every wrapper layer has one send path,
:meth:`~Transport.call_batch`, and a lone call travels as a batch of
one, so each delivery is one frame whatever its size.
A layer carries frames and reports only: the runtime holds the router
itself, and timings go to the operation's sink (:mod:`repro.obs.timing`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from repro.errors import RemoteError, TransportError
from repro.net.latency import NetworkModel, NetworkStats, TrafficMeter
from repro.net.message import decode
from repro.net.rpc import (
    Request,
    Response,
    ServiceHost,
    encode_batch,
    requests_from_batch,
    responses_from_batch,
)
from repro.obs.wire import Key, WireCell


def slot_response(call: Callable[[Request], Any],
                  request: Request) -> Response:
    """``call(request)`` as one batch slot: its result, or an error
    :class:`Response` that re-raises what ``call`` raised.  Only a
    link-level :class:`TransportError` (the frame never made it —
    retryable above) propagates."""
    try:
        return Response(ok=True, result=call(request))
    except RemoteError as exc:
        return Response.failed(exc)
    except TransportError:
        raise  # link failure: the whole batch is undeliverable
    except Exception as exc:  # noqa: BLE001 - isolation contract
        return Response.failed(exc)


class Transport(ABC):
    """A channel from the trusted zone to one untrusted endpoint.

    Its one send path is :meth:`call_batch`: a lone call travels as a
    batch of one, and its one response is unwrapped.
    """

    def call(self, service: str, method: str, **kwargs: Any) -> Any:
        """Invoke ``service.method(**kwargs)`` remotely, return its result."""
        return self.call_request(Request(service, method, kwargs))

    def call_request(self, request: Request) -> Any:
        """Dispatch one prepared :class:`Request` as a frame of one.

        The resilience layer builds requests up front so an idempotency
        key survives every retry of the same logical call.
        """
        return self.call_batch([request])[0].unwrap()

    @abstractmethod
    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        """Ship ``requests`` as one frame; one response per request.

        A failing sub-call becomes an error :class:`Response` in its
        slot, never an exception; only a link-level
        :class:`TransportError` (the frame never made it — retryable
        above) raises.
        """

    @abstractmethod
    def stats(self) -> NetworkStats:
        """Traffic counters accumulated by this transport."""

    def labeled_stats(self) -> dict[str, NetworkStats]:
        """Stats keyed by endpoint label for the merged roll-up report.

        Wrapper transports override this to surface their inner labels
        (per shard, per provider) plus their own counters, so a nested
        stack reports as one labelled table instead of siloed snapshots;
        :func:`repro.net.latency.roll_up` sums any labelled report back
        into a single :class:`NetworkStats`.
        """
        return {"endpoint": self.stats()}

    def wire_cells(self) -> dict[str, dict[Key, WireCell]]:
        """Per-``(service, method)`` wire cells, keyed by the endpoint
        labels of :meth:`labeled_stats`.  The transports that encode
        frames count them at the source; wrappers delegate inward."""
        return {}

    def close(self) -> None:
        """Release any underlying resources (default: none)."""

    def after_ack(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the calling context's calls are acknowledged:
        now, as each returned its reply; a deferring layer defers it."""
        fn()


class TransportLayer(Transport):
    """A transport that wraps exactly one ``inner`` transport.

    The base of every wrapper in the gateway stack (batch collector,
    verifier, resilience, fault injection, wiretap).  Everything is
    delegated inward by default, so a subclass overrides only the hooks
    it changes and a new cross-cutting hook is one method here instead
    of an edit to every wrapper.  A layer that keeps counters reports
    them from :meth:`own_stats` under its :attr:`label`; the merge into
    the inner report is implemented once, below.  :meth:`stats` and
    :meth:`labeled_stats` walk the whole stack: they are reports for an
    operator or a test, never a probe on an operation's path.
    """

    #: Line this layer's own counters get in :meth:`labeled_stats` when
    #: several endpoints sit below it.
    label = "layer"

    def __init__(self, inner: Transport):
        self._inner = inner

    @property
    def inner(self) -> Transport:
        return self._inner

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        return self._inner.call_batch(requests)

    def after_ack(self, fn: Callable[[], None]) -> None:
        self._inner.after_ack(fn)

    def own_stats(self) -> NetworkStats | None:
        """Counters this layer itself accumulated (None: it keeps none)."""
        return None

    def stats(self) -> NetworkStats:
        own = self.own_stats()
        stats = self._inner.stats()
        return stats if own is None else stats.merge(own)

    def labeled_stats(self) -> dict[str, NetworkStats]:
        labeled = dict(self._inner.labeled_stats())
        own = self.own_stats()
        if own is None:
            return labeled
        if len(labeled) == 1:
            # One endpoint below: fold our counters into its line.
            (label, stats), = labeled.items()
            return {label: stats.merge(own)}
        labeled[self.label] = labeled.get(
            self.label, NetworkStats()
        ).merge(own)
        return labeled

    def wire_cells(self) -> dict[str, dict[Key, WireCell]]:
        return self._inner.wire_cells()

    def close(self) -> None:
        self._inner.close()


class InProcTransport(Transport):
    """Gateway->cloud channel within one process.

    Every request and response is round-tripped through the wire codec so
    that only wire-encodable data crosses the zone boundary, and the
    network model charges both directions.
    """

    def __init__(self, host: ServiceHost,
                 network: NetworkModel | None = None):
        self._host = host
        self._network = network or NetworkModel(sleep=False)
        self._meter = TrafficMeter()
        self._dedup_base = 0

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        """N requests in one wire frame: one latency charge per direction."""
        if not requests:
            return []
        frame, sizes = encode_batch(requests)
        delay_up = self._network.apply(len(frame))
        self._meter.record_send(len(frame), delay_up, requests, sizes)

        responses = self._host.dispatch_batch(
            requests_from_batch(decode(frame))
        )

        reply, sizes = encode_batch(responses)
        delay_down = self._network.apply(len(reply))
        self._meter.record_receive(len(reply), delay_down, requests, sizes)
        return responses_from_batch(decode(reply), len(requests))

    def stats(self) -> NetworkStats:
        stats = self._meter.snapshot()
        # The host is reachable in-process: fold its idempotency-window
        # evictions into the endpoint's counters so the labelled report
        # surfaces an undersized dedup window next to the retries that
        # depend on it.
        stats.dedup_evictions += (self._host.dedup_stats()["evictions"]
                                  - self._dedup_base)
        return stats

    def wire_cells(self) -> dict[str, dict[Key, WireCell]]:
        return {"endpoint": self._meter.cells()}

    def reset_stats(self) -> None:
        self._meter.reset()
        self._dedup_base = self._host.dedup_stats()["evictions"]


class DirectTransport(Transport):
    """Zero-copy dispatch without serialization or latency accounting.

    Used by the S_A baseline scenario (no protection, no middleware cost
    attribution) and by unit tests that do not exercise the wire.
    """

    def __init__(self, host: ServiceHost):
        self._host = host
        self._meter = TrafficMeter()

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        if not requests:
            return []
        responses = self._host.dispatch_batch(list(requests))
        self._meter.record_send(0, 0.0, requests, [0] * len(requests))
        self._meter.record_receive(0)
        return responses

    def stats(self) -> NetworkStats:
        return self._meter.snapshot()

    def wire_cells(self) -> dict[str, dict[Key, WireCell]]:
        return {"endpoint": self._meter.cells()}
