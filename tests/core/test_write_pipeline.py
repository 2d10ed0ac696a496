"""Kernelised bulk writes: one crypto pass, then one wire pass, booked
as ``Crypto:insert`` / ``Wire:insert`` rows inside
``WritePipeline:insert`` — unsharded and over a sharded zone."""

from __future__ import annotations

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.crypto.kernels.config import CryptoConfig
from repro.fhir.model import observation_schema
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.transport import InProcTransport
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "pipeapp"
DOCS = 14


def fresh_registry() -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


def make_doc(i: int) -> dict:
    return {
        "id": f"f{i}",
        "identifier": i,
        "status": "final" if i % 2 == 0 else "amended",
        "code": "glucose" if i < 6 else "insulin",
        "subject": f"Patient {i}",
        "effective": 1000 + i,
        "issued": 2000 + i,
        "performer": "Dr",
        "value": float(i),
        "interpretation": "",
    }


def pipeline() -> PipelineConfig:
    return PipelineConfig(
        batch_writes=True,
        crypto=CryptoConfig(precompute=True),
    )


def deploy(config: PipelineConfig, shards: int = 0,
           latency_ms: float = 0.0):
    registry = fresh_registry()
    network = NetworkModel(one_way_latency_ms=latency_ms,
                           sleep=latency_ms > 0)
    if shards:
        closer = CloudCluster(shards, registry=registry, network=network)
        transport = ShardedTransport(closer.nodes(), ShardConfig())
    else:
        closer = CloudZone(registry)
        transport = InProcTransport(closer.host, network)
    blinder = DataBlinder(APP, transport, registry=registry,
                          pipeline=config)
    blinder.register_schema(observation_schema())
    return blinder, blinder.entities("observation"), closer


def insert_timings(blinder) -> dict[str, list]:
    return blinder._executor("observation").stats.node_timings


class TestOverlapSignature:
    def test_single_pass_phases_fit_inside_wall_clock(self):
        blinder, observations, closer = deploy(
            pipeline(), latency_ms=5.0
        )
        try:
            observations.insert_many([make_doc(i) for i in range(DOCS)])
            timings = insert_timings(blinder)
            crypto = timings["Crypto:insert"][1]
            wire = timings["Wire:insert"][1]
            assert crypto + wire <= timings["WritePipeline:insert"][1]
        finally:
            closer.close()


class TestShardedPipeline:
    def test_insert_over_shards(self):
        blinder, observations, closer = deploy(pipeline(), shards=4)
        try:
            documents = [make_doc(i) for i in range(DOCS)]
            ids = observations.insert_many(
                [dict(d) for d in documents]
            )
            assert len(ids) == DOCS
            assert observations.count() == DOCS
            assert sorted(
                observations.get(d)["identifier"] for d in ids
            ) == list(range(DOCS))
            # The frame's scatter attributes per-shard time.
            timings = insert_timings(blinder)
            assert any(kind.startswith("Shard:") for kind in timings)
        finally:
            closer.close()
