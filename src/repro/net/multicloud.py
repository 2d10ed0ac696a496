"""Multi-cloud routing: spreading the untrusted zone across providers.

The deployment view (Fig. 3) draws the untrusted zone as *several* cloud
providers.  Routing different services to different providers is a
leakage-partitioning tactic in itself: placing the encrypted documents
with one provider and the secure indexes with another means neither
snapshot alone correlates index structure with ciphertext objects — an
adversary needs both providers to mount the §2 snapshot attacks against
the combined view.

:class:`MultiCloudTransport` implements the standard
:class:`repro.net.transport.Transport` interface, so the middleware is
oblivious to the split: it routes each RPC by service-name rule to one
of the underlying transports (each typically an
:class:`InProcTransport` or :class:`TcpTransport` to a distinct
:class:`repro.cloud.server.CloudZone`).

A route may name an optional *secondary* provider.  When the primary's
circuit breaker is open (the provider transport raises
:class:`repro.errors.CircuitOpenError` — see
:mod:`repro.net.resilience`), traffic for that route fails over to the
secondary; each engagement is counted in
:class:`repro.net.latency.NetworkStats.failovers` so graceful
degradation stays operator-visible.  Failover assumes the secondary
holds (replicates) the route's data — that is a deployment choice, the
router only supplies the mechanism.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.errors import CircuitOpenError, TransportError
from repro.net.latency import NetworkStats
from repro.net.rpc import Request, Response
from repro.net.transport import Transport

Rule = Callable[[str], bool]

#: A routing entry: ``(rule, primary)`` or ``(rule, primary, secondary)``.
Route = "tuple[Rule, Transport] | tuple[Rule, Transport, Transport]"


def prefix_rule(prefix: str) -> Rule:
    return lambda service: service.startswith(prefix)


def documents_rule(service: str) -> bool:
    """Route document storage (the ``docs/<app>`` services)."""
    return service.startswith("docs/")


def indexes_rule(service: str) -> bool:
    """Route secure indexes (the ``tactic/...`` services)."""
    return service.startswith("tactic/")


class MultiCloudTransport(Transport):
    """Service-name router over several provider transports.

    ``routes`` is an ordered list of ``(rule, primary[, secondary])``
    entries; the first matching rule wins.  ``admin`` provisioning calls
    are fanned out to *every* provider, secondaries included (each zone
    must know the application and its tactic services; zones that never
    receive traffic for a service simply hold empty structures).
    """

    def __init__(self, routes: list):
        if not routes:
            raise TransportError("multi-cloud transport needs providers")
        self._routes: list[tuple[Rule, Transport, Transport | None]] = []
        for entry in routes:
            if len(entry) == 2:
                rule, primary = entry
                secondary = None
            elif len(entry) == 3:
                rule, primary, secondary = entry
            else:
                raise TransportError(
                    "route entries are (rule, primary[, secondary])"
                )
            self._routes.append((rule, primary, secondary))
        self._failovers = 0
        self._lock = threading.Lock()

    def _route(self, service: str) -> tuple[Transport, Transport | None]:
        for rule, primary, secondary in self._routes:
            if rule(service):
                return primary, secondary
        raise TransportError(
            f"no provider route matches service {service!r}"
        )

    def _providers(self) -> list[Transport]:
        """Every distinct provider transport, secondaries included."""
        seen: list[Transport] = []
        for _, primary, secondary in self._routes:
            for transport in (primary, secondary):
                if transport is not None and all(
                    transport is not t for t in seen
                ):
                    seen.append(transport)
        return seen

    def _record_failover(self) -> None:
        with self._lock:
            self._failovers += 1

    def call(self, service: str, method: str, **kwargs: Any) -> Any:
        return self.call_request(Request(service, method, kwargs))

    def call_request(self, request: Request) -> Any:
        if request.service == "admin":
            # Fan out provisioning so every provider can serve its share.
            result: Any = None
            for transport in self._providers():
                result = transport.call_request(request)
            return result
        primary, secondary = self._route(request.service)
        if (request.method.startswith("lookup_fetch")
                and self._route(request.kwargs["index"])[0] is not primary):
            # A co-located find whose index lives with another provider:
            # that provider answers the lookup alone, and every id goes
            # to the caller's ``get_many`` — the document provider never
            # sees the token.
            kwargs = request.kwargs
            ids = self.call_request(Request(kwargs["index"], kwargs["query"],
                                            kwargs["args"]))
            return {"ids": sorted(ids), "docs": []}
        try:
            return primary.call_request(request)
        except CircuitOpenError:
            if secondary is None:
                raise
            self._record_failover()
            return secondary.call_request(request)

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        """Split a batch by provider, one batch frame per provider.

        Requests keep their relative order within each provider; results
        come back in the original request order.  Cross-provider ordering
        is not preserved, which is safe because the providers hold
        disjoint stores.  A group whose primary breaker is open fails
        over whole to the route's secondary when one is configured.
        """
        groups: list[tuple[Transport, Transport | None,
                           list[int], list[Request]]] = []
        for index, request in enumerate(requests):
            primary, secondary = self._route(request.service)
            for grouped, _, indices, grouped_requests in groups:
                if grouped is primary:
                    indices.append(index)
                    grouped_requests.append(request)
                    break
            else:
                groups.append((primary, secondary, [index], [request]))
        results: list[Response | None] = [None] * len(requests)
        for primary, secondary, indices, grouped_requests in groups:
            try:
                responses = primary.call_batch(grouped_requests)
            except CircuitOpenError:
                if secondary is None:
                    raise
                self._record_failover()
                responses = secondary.call_batch(grouped_requests)
            for index, response in zip(indices, responses):
                results[index] = response
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            # A provider answered with fewer responses than requests (or
            # a routing bug left slots unassigned).  Silently dropping
            # the slots would shift every later response onto the wrong
            # request — fail loudly instead.
            raise TransportError(
                f"multi-cloud batch incomplete: no response for request "
                f"slot(s) {missing}"
            )
        return results  # type: ignore[return-value]

    def stats(self) -> NetworkStats:
        total = NetworkStats()
        for transport in self._providers():
            total = total.merge(transport.stats())
        with self._lock:
            return total.merge(NetworkStats(failovers=self._failovers))

    def labeled_stats(self) -> dict[str, NetworkStats]:
        labeled: dict[str, NetworkStats] = {}
        for index, transport in enumerate(self._providers()):
            for label, stats in transport.labeled_stats().items():
                labeled[f"provider{index}:{label}"] = stats
        with self._lock:
            labeled["multicloud"] = NetworkStats(
                failovers=self._failovers
            )
        return labeled

    def wire_cells(self) -> dict[str, dict]:
        return {f"provider{index}:{label}": cells
                for index, transport in enumerate(self._providers())
                for label, cells in transport.wire_cells().items()}

    def call_labeled(self, service: str, method: str,
                     **kwargs: Any) -> dict[str, Any]:
        """Labeled broadcast, routed to the service's primary provider.

        Integrity state reports follow the data: the provider holding a
        route's stores is the one whose roots matter, so the broadcast
        is not fanned out to every provider the way ``admin`` calls are.
        """
        primary, secondary = self._route(service)
        try:
            return primary.call_labeled(service, method, **kwargs)
        except CircuitOpenError:
            if secondary is None:
                raise
            self._record_failover()
            return secondary.call_labeled(service, method, **kwargs)

    def topology_epoch(self) -> int:
        return max(
            (t.topology_epoch() for t in self._providers()), default=0
        )

    def drain_shard_timings(self) -> list[tuple[str, float]]:
        timings: list[tuple[str, float]] = []
        for transport in self._providers():
            timings.extend(transport.drain_shard_timings())
        return timings

    def close(self) -> None:
        for transport in self._providers():
            transport.close()


def split_documents_and_indexes(document_provider: Transport,
                                index_provider: Transport
                                ) -> MultiCloudTransport:
    """The canonical two-provider split: documents with one provider,
    every secure index with another."""
    return MultiCloudTransport([
        (documents_rule, document_provider),
        (indexes_rule, index_provider),
        (lambda service: True, index_provider),  # admin et al.
    ])
