"""The trusted zone: gateway runtime.

Owns the per-application trusted-zone resources — keystore, local state
store, the transport into the untrusted zone — and instantiates gateway
tactic halves on demand (the trusted side of the strategy pattern's
runtime loading).  Instances are cached per ``(field-scope, tactic)``;
provisioning is idempotent and drives the cloud admin service first so
the RPC peer exists before ``setup`` runs.  With batching configured, a
:meth:`GatewayRuntime.provisioning` scope ships a whole registration's
provisioning as one frame.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.kernels.executor import CryptoExecutor
from repro.integrity.verify import VerifyingTransport
from repro.keys.keystore import KeyStore
from repro.net.batch import BatchCollector, PipelineConfig
from repro.net.resilience import ResilienceConfig, wrap_resilient
from repro.net.transport import Transport
from repro.obs import Registry
from repro.obs.collect import attach
from repro.shard.router import ShardedTransport
from repro.spi.context import GatewayTacticContext
from repro.spi.metrics import TacticMetrics
from repro.stores.kv import KeyValueStore


class GatewayRuntime:
    """Trusted-zone tactic loader and resource holder."""

    def __init__(self, application: str, transport: Transport,
                 registry=None, keystore: KeyStore | None = None,
                 local_kv: KeyValueStore | None = None,
                 pipeline: PipelineConfig | None = None,
                 resilience: ResilienceConfig | None = None):
        if registry is None:
            from repro.core.registry import default_registry

            registry = default_registry()
        self.application = application
        self.pipeline = pipeline or PipelineConfig()
        #: The crypto kernel config and the one executor every tactic
        #: context of this runtime shares (one dedup/LRU namespace).
        self.crypto = self.pipeline.crypto or CryptoConfig()
        self.kernels = CryptoExecutor(self.crypto)
        #: Built before the stack: the verifier keeps its write counter
        #: in this keystore's HSM.
        self.keystore = keystore or KeyStore(application)
        self.transport = transport
        #: The sharded router at the bottom of the stack (None when
        #: unsharded): the one way in to its topology and counters.
        self.router = self._find(ShardedTransport)
        for enabled, build in self._layers(resilience):
            if enabled:
                self.transport = build(self.transport)
        #: The integrity verifier layer, when configured.
        self.verifier = self._find(VerifyingTransport)
        self.registry = registry
        self.local_kv = local_kv or KeyValueStore()
        #: The gateway read-cache tier (``PipelineConfig.cache``); None
        #: keeps the seed read path untouched.  Sits *above* the whole
        #: transport stack — cached plaintext never crosses it — and
        #: leans on the verifier's freshness ledger for coherence.
        self.cache_tier = None
        if self.pipeline.cache is not None:
            from repro.cache.tier import GatewayCacheTier

            self.cache_tier = GatewayCacheTier(self)
        #: The telemetry registry: tactic metrics count on it at the
        #: source, every other layer's counters are collected on read.
        self.obs = Registry()
        self.metrics = TacticMetrics(self.obs, self.transport.wire_cells)
        self._instances: dict[tuple[str, str], Any] = {}
        self._lock = threading.RLock()
        attach(self)
        with self.provisioning():
            self.transport.call(
                "admin", "provision_application", application=application
            )
            if self.verifier is not None:
                self.transport.call(
                    "admin", "enable_integrity", application=application
                )

    def _layers(self, resilience: ResilienceConfig | None):
        """The gateway's transport layers as ``(enabled, build)`` rows,
        innermost first.  The order is security-relevant:

        * retries sit *below* the verifier, so proven reads ride the
          fault-tolerant path and collected write batches are retried
          whole (their idempotency-keyed sub-requests make the
          re-delivery safe);
        * the verifier sits *below* the batch collector, so it sees
          write frames as shipped and advances the HSM write counter
          around each;
        * the batch collector is on top: every tactic context and the
          executor share it, so one collection scope coalesces a whole
          operation's cloud writes (outside a scope it is a transparent
          pass-through).

        The cache tier is not a transport layer: it sits above the whole
        stack, so cached plaintext never crosses one.
        """
        pipeline = self.pipeline
        return (
            (resilience is not None,
             lambda inner: wrap_resilient(inner, resilience)),
            (pipeline.integrity is not None,
             lambda inner: VerifyingTransport(
                 inner, self.application, self.keystore.hsm,
                 sharded=self.router is not None)),
            (pipeline.batch_writes, BatchCollector),
        )

    def _find(self, kind: type) -> Any:
        """The first layer of the stack that is a ``kind``, or None."""
        return next((layer for layer in self._walk()
                     if isinstance(layer, kind)), None)

    def _walk(self):
        """Every transport of the stack, top-down, following ``inner``."""
        transport = self.transport
        while transport is not None:
            yield transport
            transport = getattr(transport, "inner", None)

    def stack(self) -> list[str]:
        """Layer names of the transport stack, top-down."""
        return [type(layer).__name__ for layer in self._walk()]

    def schema_registered(self, schema) -> None:
        """Activate integrity verification on the first schema with a
        sensitive field.

        Called on every schema registration: the verifier then switches
        on for the whole application; a deployment of plain schemas
        only leaves the read path at seed speed.  The cache tier
        records the schema's leakage-admission verdict here too.
        """
        if self.cache_tier is not None:
            self.cache_tier.register_schema(schema)
        if (self.verifier is not None and not self.verifier.active
                and schema.sensitive_fields()):
            self.verifier.activate()

    @property
    def documents_service(self) -> str:
        return f"docs/{self.application}"

    def docs(self, method: str, **kwargs: Any) -> Any:
        """Call the application's cloud document service."""
        return self.transport.call(self.documents_service, method, **kwargs)

    def topology_epoch(self) -> int:
        """The untrusted zone's membership epoch (0 when unsharded)."""
        return 0 if self.router is None else self.router.topology_epoch()

    @property
    def batch_collector(self) -> BatchCollector | None:
        """The write-batching wrapper, when batching is configured."""
        transport = self.transport
        return transport if isinstance(transport, BatchCollector) else None

    @contextmanager
    def provisioning(self) -> Iterator[None]:
        """Scope in which every provisioning call — the admin service's
        and each new tactic's ``setup`` — is queued and shipped as one
        frame when the outermost scope closes (with batching configured;
        otherwise each call stands alone).

        A failed frame leaves none of the scope's gateway halves cached,
        so provisioning them again starts clean.
        """
        collector = self.batch_collector
        with self._lock:
            before = set(self._instances)
            try:
                with (nullcontext() if collector is None
                      else collector.collect()):
                    yield
            except BaseException:
                for key in self._instances.keys() - before:
                    del self._instances[key]
                raise

    def tactic(self, field_scope: str, tactic_name: str) -> Any:
        """Get-or-create the gateway half of one tactic instance.

        ``field_scope`` is the instance key: usually ``<schema>.<field>``,
        or ``<schema>._bool`` for the schema-wide boolean tactic shared
        across its BL-annotated fields.  Its ``provision_tactic`` and
        ``setup`` calls join the caller's :meth:`provisioning` scope.
        """
        key = (field_scope, tactic_name)
        with self._lock:
            instance = self._instances.get(key)
            if instance is not None:
                return instance
            with self.provisioning():
                registration = self.registry.get(tactic_name)
                self.transport.call(
                    "admin",
                    "provision_tactic",
                    application=self.application,
                    field=field_scope,
                    tactic=tactic_name,
                )
                context = GatewayTacticContext(
                    application=self.application,
                    field=field_scope,
                    tactic=tactic_name,
                    keystore=self.keystore,
                    transport=self.transport,
                    local_kv=self.local_kv,
                    metrics=self.metrics,
                    kernels=self.kernels,
                )
                instance = registration.gateway_cls(context)
                instance.setup()
                self._instances[key] = instance
            return instance

    def loaded_tactics(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._instances)
