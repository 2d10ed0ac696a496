"""The production profile: every layer on at once.

Fixed here, not a CLI knob — every number the benchmark prints comes
from this one composition, so two result files are comparable by
construction.  The only thing a workload may vary is the one-way WAN
latency ``L`` (40 ms or 0) of the gateway→cloud link.

Deliberately off (both stated in the README): the crypto process pool
(``CryptoConfig.workers=0`` — the sandbox has 2 cores and BENCH_crypto
shows the pool losing there) and the cross-operation frame coalescer
(``coalesce_window_ms=0``).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from repro.cache import CacheConfig
from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.crypto.kernels.config import CryptoConfig
from repro.fhir.model import benchmark_observation_schema
from repro.integrity import IntegrityConfig
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.resilience import ResilienceConfig
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APPLICATION = "e2e"
NODES = 4
#: The paper's gateway→public-cloud link, one way.
WAN_ONE_WAY_MS = 40.0
#: Async gateway runtime settings of the open-loop workload.
MAX_IN_FLIGHT = 64
DEADLINE_S = 30.0


def pipeline() -> PipelineConfig:
    return PipelineConfig(
        batch_writes=True, fanout_workers=4, prefetch=True,
        crypto=CryptoConfig(precompute=True),
        sharding=ShardConfig(),
        integrity=IntegrityConfig(),  # fetch mode
        cache=CacheConfig(),
    )


def observation_schema() -> Schema:
    """§5.2: DET x5, Mitra on subject, RND on performer, Paillier on value."""
    return benchmark_observation_schema()


def hot_schema() -> Schema:
    """Cache-admissible schema (every field >= C2) with EQ, BL, RG and
    sum/avg — the shape of ``bench_cache.cache_schema``."""
    return Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        patient=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                                "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )


@dataclass
class Deployment:
    """One gateway over a 4-node untrusted zone, production profile."""

    blinder: DataBlinder
    cluster: CloudCluster
    router: ShardedTransport
    network: NetworkModel
    schema: Schema
    _gateway: object = None

    @property
    def runtime(self):
        return self.blinder.runtime

    def gateway(self):
        """The async gateway runtime (created on first use)."""
        if self._gateway is None:
            self._gateway = self.blinder.async_runtime(
                max_in_flight=MAX_IN_FLIGHT,
                default_deadline_s=DEADLINE_S,
            )
        return self._gateway

    def entities(self):
        return self.blinder.entities(self.schema.name)

    def skip_wan(self) -> None:
        """Stop sleeping the modelled latency (post-run verification
        reads are outside the timed contract)."""
        self.network.sleep = False

    def close(self) -> None:
        if self._gateway is not None:
            self._gateway.close()
        self.blinder.runtime.transport.close()
        self.cluster.close()
        gc.collect()


def deploy(latency_ms: float, schema: Schema) -> Deployment:
    """Deploy + register ``schema``; seeding the corpus is the caller's."""
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    resilience = ResilienceConfig()
    network = NetworkModel(one_way_latency_ms=latency_ms,
                           sleep=latency_ms > 0)
    cluster = CloudCluster(NODES, registry=registry, network=network,
                           resilience=resilience)
    config = pipeline()
    router = ShardedTransport(cluster.nodes(), config.sharding)
    blinder = DataBlinder(
        APPLICATION, router, registry=registry, verify_results=False,
        pipeline=config, resilience=resilience,
    )
    blinder.register_schema(schema)
    return Deployment(blinder, cluster, router, network, schema)
