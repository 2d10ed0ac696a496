"""The DataBlinder facade: wiring the four subsystems together.

One :class:`DataBlinder` per application, deployed in the trusted zone
(the data protection gateway of Fig. 3).  It exposes the three gateway
interfaces of the deployment view:

* **Schema** — :meth:`register_schema` annotates a schema, runs adaptive
  tactic selection, audits the resulting plans against the weakest-link
  policy, provisions both zones, and persists the metadata.
* **Entities** — :meth:`entities` returns the data-access API bound to a
  registered schema.
* **Keys** — the :class:`repro.keys.keystore.KeyStore` (HSM-backed) is
  owned here and injected into every tactic.

Typical use::

    cloud = CloudZone()
    transport = InProcTransport(cloud.host)
    blinder = DataBlinder("ehealth", transport)
    blinder.register_schema(observation_schema)
    observations = blinder.entities("observation")
    observations.insert({...})
"""

from __future__ import annotations

import threading

from repro.core.entities import Entities
from repro.core.executor import SchemaExecutor
from repro.core.metadata import MetadataRepository
from repro.core.policy import (
    FieldPolicyReport,
    audit_plans,
    render_policy_table,
)
from repro.core.registry import TacticRegistry, default_registry
from repro.core.schema import Schema
from repro.core.selection import FieldPlan, TacticSelector
from repro.errors import SchemaError
from repro.gateway.service import GatewayRuntime
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.resilience import ResilienceConfig
from repro.net.transport import Transport
from repro.stores.kv import KeyValueStore


class DataBlinder:
    """Distributed data protection middleware, gateway side."""

    def __init__(self, application: str, transport: Transport,
                 registry: TacticRegistry | None = None,
                 keystore: KeyStore | None = None,
                 local_kv: KeyValueStore | None = None,
                 verify_results: bool = True,
                 pad_bucket: int = 0,
                 pipeline: PipelineConfig | None = None,
                 resilience: ResilienceConfig | None = None):
        self.registry = registry or default_registry()
        #: Batching/pipelining of the gateway<->cloud data path; the
        #: default config keeps the unbatched per-RPC baseline.
        self.pipeline = pipeline or PipelineConfig()
        #: Retry/breaker wrapping of the transport; None (the default)
        #: keeps the raw fail-fast behaviour.
        self.resilience = resilience
        if not isinstance(transport, Transport):
            # A sequence of (name, transport) pairs deploys the sharded
            # untrusted zone; PipelineConfig.sharding tunes the ring.
            from repro.shard.router import ShardedTransport

            transport = ShardedTransport(list(transport),
                                         self.pipeline.sharding)
        self.runtime = GatewayRuntime(
            application, transport, self.registry, keystore, local_kv,
            pipeline=self.pipeline, resilience=resilience,
        )
        self.metadata = MetadataRepository(self.runtime.local_kv)
        self.selector = TacticSelector(self.registry)
        self.verify_results = verify_results
        #: Optional body padding bucket (bytes); 0 disables padding.
        self.pad_bucket = pad_bucket
        self._executors: dict[str, SchemaExecutor] = {}
        self._async_runtime = None
        self._lock = threading.RLock()
        self.runtime.obs.collect("planner", lambda: {
            name: executor.stats.snapshot()
            for name, executor in list(self._executors.items())
        }, ("schema",))

    @property
    def application(self) -> str:
        return self.runtime.application

    # -- Schema interface ---------------------------------------------------------

    def register_schema(self, schema: Schema) -> list[FieldPolicyReport]:
        """Plan, audit, provision and persist one schema.

        Returns the per-field policy reports (the §5.1 table); raises
        :class:`repro.errors.PolicyError` if any selected tactic set
        would leak above its field's annotated class.
        """
        with self._lock:
            if schema.name in self._executors:
                raise SchemaError(
                    f"schema {schema.name!r} is already registered"
                )
            plans = self.selector.plan_schema(schema)
            reports = audit_plans(plans, self.registry)
            executor = self._build_executor(schema, plans)
            self.metadata.save_schema(schema, plans)
            self._executors[schema.name] = executor
            self.runtime.schema_registered(schema)
            return reports

    def restore_schema(self, name: str) -> list[FieldPolicyReport]:
        """Reload a previously registered schema from stored metadata."""
        with self._lock:
            if name in self._executors:
                raise SchemaError(f"schema {name!r} is already registered")
            schema = self.metadata.load_schema(name)
            plans = self.metadata.load_plans(name)
            reports = audit_plans(plans, self.registry)
            self._executors[name] = self._build_executor(schema, plans)
            self.runtime.schema_registered(schema)
            return reports

    def schema_names(self) -> list[str]:
        with self._lock:
            return sorted(self._executors)

    def migrate_schema(self, schema_name: str,
                       new_schema: Schema | None = None
                       ) -> list[FieldPolicyReport]:
        """Re-plan a schema and re-encrypt/re-index its corpus.

        The operational half of crypto agility: after a registry change
        (a scheme retired or a better one registered) or an annotation
        change (``new_schema``), this re-runs adaptive selection, audits
        the new plans, and migrates every stored document — each is read
        and decrypted under the old configuration, its old index entries
        are removed, and it is re-inserted under the new plans with the
        same document id.  Cloud services of retired tactics remain
        provisioned but hold no live entries afterwards.

        The migration is a stop-the-world drill (documents are briefly
        absent between delete and re-insert); run it in a maintenance
        window, as an operator would.
        """
        with self._lock:
            old_executor = self._executor(schema_name)
            schema = new_schema if new_schema is not None else (
                old_executor.schema
            )
            if schema.name != schema_name:
                raise SchemaError(
                    "migration cannot rename a schema "
                    f"({schema.name!r} != {schema_name!r})"
                )
            plans = self.selector.plan_schema(schema)
            reports = audit_plans(plans, self.registry)
            new_executor = self._build_executor(schema, plans)
            doc_ids = self.runtime.docs("all_ids", schema=schema_name)
            for doc_id in doc_ids:
                document = old_executor.get(doc_id)
                old_executor.delete(doc_id)
                document["_id"] = doc_id
                new_executor.insert(document)
            # Migration invalidates compiled plans: the old executor's
            # cache is dropped and its invalidation count carries over,
            # so planner stats stay continuous across the swap.
            new_executor.absorb(old_executor)
            self.metadata.save_schema(schema, plans)
            self._executors[schema_name] = new_executor
            self.runtime.schema_registered(schema)
            return reports

    def policy_report(self, schema_name: str) -> str:
        """Human-readable policy table for a registered schema."""
        executor = self._executor(schema_name)
        reports = audit_plans(executor.plans, self.registry)
        return render_policy_table(reports)

    # -- Entities interface ------------------------------------------------------------

    def entities(self, schema_name: str) -> Entities:
        return Entities(self._executor(schema_name))

    def async_entities(self, schema_name: str):
        """The awaitable data API (see :class:`AsyncEntities`)."""
        from repro.core.entities import AsyncEntities

        return AsyncEntities(self._executor(schema_name))

    def async_runtime(self, **kwargs):
        """Get-or-create this application's async gateway runtime.

        Keyword arguments (``max_in_flight``, ``default_deadline_s``,
        ``front``, ...) configure the runtime on first call; later
        calls return the cached instance and reject reconfiguration.
        """
        from repro.gateway.runtime import AsyncGatewayRuntime

        with self._lock:
            if self._async_runtime is None:
                self._async_runtime = AsyncGatewayRuntime(self, **kwargs)
            elif kwargs:
                raise ValueError(
                    "async runtime already configured; close() it "
                    "before reconfiguring"
                )
            return self._async_runtime

    def sync_gateway(self, principal: str = "anonymous",
                     deadline_s: float | None = None, **kwargs):
        """The blocking façade over the async runtime (service tier)."""
        from repro.gateway.runtime import SyncGateway

        return SyncGateway(self.async_runtime(**kwargs),
                           principal=principal, deadline_s=deadline_s)

    def _build_executor(self, schema: Schema,
                        plans: dict[str, FieldPlan]) -> SchemaExecutor:
        """Wire ``schema``'s tactic instances; the ones it provisions
        cross the wire as one frame."""
        with self.runtime.provisioning():
            return SchemaExecutor(self.runtime, schema, plans,
                                  verify_results=self.verify_results,
                                  pad_bucket=self.pad_bucket)

    def _executor(self, schema_name: str) -> SchemaExecutor:
        with self._lock:
            executor = self._executors.get(schema_name)
        if executor is None:
            raise SchemaError(
                f"schema {schema_name!r} is not registered; call "
                f"register_schema or restore_schema first"
            )
        return executor

    # -- Keys interface -------------------------------------------------------------------

    @property
    def keystore(self) -> KeyStore:
        return self.runtime.keystore

    # -- Telemetry --------------------------------------------------------------------------

    def metrics_report(self) -> str:
        """Per-tactic runtime cost report (Fig. 1 performance metrics)."""
        return self.runtime.metrics.render()

    def metrics_snapshot(self) -> dict:
        """Every layer's counters as one JSON-able dict: ``net`` (per
        endpoint, per service/method), ``tactics``, ``planner`` (with the
        measured per-node timings), ``cache``, ``tokens``, ``integrity``,
        ``shard``, ``admission``."""
        return self.runtime.obs.snapshot()

    def metrics_text(self) -> str:
        """The same numbers as Prometheus text exposition."""
        return self.runtime.obs.text()

    def integrity_audit(self) -> dict:
        """Run one integrity audit pass against the untrusted zone.

        Re-syncs the freshness ledger from every shard's incremental
        state report, then compares roots recomputed from the raw
        stores against what the ledger accepted at write time.  Raises
        :class:`repro.errors.IntegrityError` /
        :class:`repro.errors.StaleStateError` on divergence; raises
        :class:`repro.errors.PolicyError` when integrity is not
        configured (``PipelineConfig.integrity``).
        """
        verifier = self.runtime.verifier
        if verifier is None:
            from repro.errors import PolicyError

            raise PolicyError(
                "integrity is not configured: set PipelineConfig.integrity"
            )
        return verifier.audit()

    # -- query planning -------------------------------------------------------

    def explain(self, schema_name: str, predicate=None, *,
                operation: str = "find", **kwargs) -> str:
        """Rendered query plan — node tree with each tactic's static
        leakage level and rounds per query.

        ``operation`` is any of the planner's operations (``find``,
        ``find_ids``, ``count``, ``aggregate``, ``find_sorted``,
        ``insert``/``update``/``delete``); extra keyword arguments are
        forwarded (``limit=``, ``field=``, ``function=``, ...).  Nothing
        is executed and the plan cache is untouched.
        """
        return self._executor(schema_name).explain(
            operation=operation, predicate=predicate, **kwargs
        )

    def planner_stats(self, schema_name: str) -> dict:
        """Plan-cache and node-timing counters for one schema."""
        return self._executor(schema_name).stats.snapshot()

    def planner_report(self, schema_name: str) -> str:
        """Human-readable planner statistics for one schema."""
        return self._executor(schema_name).stats.render()
