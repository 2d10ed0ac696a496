"""Dependency contexts injected into tactic implementations.

§4.2 lists the commonalities every tactic receives from the framework:
(1) gateway and cloud implementations per operation, (2) cryptographic
primitives, (3) key management integration, (4) communication channels,
and (5) data repository services on both sides.  These two dataclasses are
exactly that injection: a gateway tactic gets keys + a channel to its
cloud peer + local storage; a cloud tactic gets the shared untrusted-zone
stores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.keys.keystore import KeyStore
from repro.net.transport import Transport
from repro.spi.metrics import TacticMetrics
from repro.stores.docstore import DocumentStore
from repro.stores.kv import KeyValueStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crypto.kernels.executor import CryptoExecutor


def service_name(application: str, field: str, tactic: str) -> str:
    """Canonical RPC service name of one cloud tactic instance."""
    return f"tactic/{application}/{field}/{tactic}"


@dataclass
class GatewayTacticContext:
    """Trusted-zone dependencies of one tactic instance bound to a field."""

    application: str
    field: str
    tactic: str
    keystore: KeyStore
    transport: Transport
    #: Gateway-side state repository (e.g. Sophos search tokens, Mitra
    #: counters) — the paper's 'local storage' challenge for Mitra.
    local_kv: KeyValueStore
    #: Per-deployment performance-metric sink (Fig. 1); optional so bare
    #: tactic harnesses stay lightweight.
    metrics: TacticMetrics | None = None
    #: Shared crypto kernel dispatcher (batch SPI backend).  ``None``
    #: means no runtime wired one in; tactics then fall back to the
    #: inline executor and the seed's sequential loops.
    kernels: "CryptoExecutor | None" = None

    @property
    def service(self) -> str:
        return service_name(self.application, self.field, self.tactic)

    def call(self, method: str, **kwargs: Any) -> Any:
        """Invoke the cloud-side counterpart of this tactic.

        With a metrics sink attached the call is counted and the time
        the gateway blocked in it is timed — one ``perf_counter`` pair,
        no transport snapshot.  What the call put on the wire is counted
        where its frame is encoded (the transport's wire cells, keyed by
        this context's service) and joined in by the sink on read, so it
        is right for a deferred call that rides a later batch frame.
        """
        service = self.service
        if self.metrics is None:
            return self.transport.call(service, method, **kwargs)
        start = time.perf_counter()
        result = self.transport.call(service, method, **kwargs)
        self.metrics.record_call(service, method,
                                 time.perf_counter() - start)
        return result

    def after_ack(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the calls made so far are acknowledged, never
        after a failed frame (:meth:`Transport.after_ack`)."""
        self.transport.after_ack(fn)

    def derive_key(self, purpose: str, length: int = 32) -> bytes:
        return self.keystore.derive(self.field, self.tactic, purpose, length)

    def state_key(self, *parts: bytes) -> bytes:
        """Namespaced gateway-state key for this tactic instance."""
        prefix = self.service.encode()
        return b"/".join((prefix,) + parts)


@dataclass
class CloudTacticContext:
    """Untrusted-zone dependencies of one cloud tactic instance."""

    application: str
    field: str
    tactic: str
    #: Secure-index repository (the Redis role in the paper's deployment).
    kv: KeyValueStore
    #: Encrypted document repository (the MongoDB role).
    documents: DocumentStore

    @property
    def service(self) -> str:
        return service_name(self.application, self.field, self.tactic)

    def state_key(self, *parts: bytes) -> bytes:
        prefix = self.service.encode()
        return b"/".join((prefix,) + parts)
