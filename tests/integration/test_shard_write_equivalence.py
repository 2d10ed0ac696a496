"""Parallel-vs-sequential sharded write equivalence, by record/replay.

Gateway crypto is randomised (document ids, AEAD nonces, SSE salts), so
two *runs* of the same workload never store the same bytes.  The stream
of requests the gateway emits, however, is independent of how the
router below it is configured — the recorder sits above the router.  So
the sweep records one workload's post-batching, post-resilience request
stream against a plain single zone, then replays those exact frames
through differently configured routers into fresh identical clusters:
the per-zone :func:`~repro.analysis.snapshot.zone_fingerprint` digests
must match the sequential baseline byte for byte at every shard count
and replication factor.

The chaos leg replays the same stream while every shard link drops 10%
and duplicates 5% of its frames (per-link seeded retries below the
router, replicated writes above): the cluster still converges
byte-identical to the fault-free replay.
"""

from __future__ import annotations

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.fhir.model import observation_schema
from repro.net.batch import PipelineConfig
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.resilience import (
    BreakerConfig,
    ResilienceConfig,
    RetryPolicy,
    wrap_resilient,
)
from repro.net.rpc import Request, Response
from repro.net.transport import InProcTransport, Transport, TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "writequivapp"

PLAN = FaultPlan(drop=0.10, duplicate=0.05)
CHAOS_SEED = 1337

#: Per-shard-link resilience for the chaos leg: link faults retry below
#: the router, so every replica leg eventually delivers and the final
#: state is a pure function of the recorded stream.
RESILIENCE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=10, sleep=False),
    breaker=BreakerConfig(failure_threshold=50),
    seed=CHAOS_SEED,
)


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


class RecordingTransport(TransportLayer):
    """Logs every frame crossing the gateway/cloud boundary, in order."""

    def __init__(self, inner: Transport):
        super().__init__(inner)
        self.log: list[tuple[str, object]] = []

    def call_request(self, request: Request):
        self.log.append(("call", request))
        return self._inner.call_request(request)

    def call_batch(self, requests) -> list[Response]:
        requests = list(requests)
        self.log.append(("batch", requests))
        return self._inner.call_batch(requests)


def run_write_workload(blinder: DataBlinder) -> None:
    blinder.register_schema(observation_schema())
    observations = blinder.entities("observation")
    ids = [observations.insert(make_doc(i)) for i in range(6)]
    ids += observations.insert_many([make_doc(i) for i in range(6, 14)])
    observations.update(ids[3], {"value": 30.0})
    observations.update(ids[9], {"status": "amended"})
    assert observations.delete(ids[13])


@pytest.fixture(scope="module")
def recorded_stream() -> list[tuple[str, object]]:
    """The workload's request stream, recorded once against one zone."""
    registry = fresh_registry()
    zone = CloudZone(registry)
    recorder = RecordingTransport(InProcTransport(zone.host))
    blinder = DataBlinder(
        APP, recorder, registry=registry,
        pipeline=PipelineConfig(batch_writes=True),
    )
    run_write_workload(blinder)
    zone.close()
    assert any(kind == "batch" for kind, _ in recorder.log)
    return recorder.log


def replay_fingerprints(log, shards: int, config: ShardConfig,
                        chaos: bool = False):
    """Fire the recorded stream into a fresh cluster; digest each zone."""
    registry = fresh_registry()
    cluster = CloudCluster(shards, registry=registry)
    nodes = cluster.nodes()
    injectors: list[FaultInjectingTransport] = []
    if chaos:
        chaotic = []
        for index, (name, transport) in enumerate(nodes):
            injector = FaultInjectingTransport(
                transport, PLAN, seed=CHAOS_SEED + index
            )
            injectors.append(injector)
            chaotic.append((name, wrap_resilient(injector, RESILIENCE)))
        nodes = chaotic
    router = ShardedTransport(nodes, config)
    try:
        for kind, payload in log:
            if kind == "batch":
                router.call_batch(list(payload))
            else:
                router.call_request(payload)
        fingerprints = {
            name: zone_fingerprint(cluster.zone(name), APP)
            for name in cluster.names()
        }
        scatters = router.scatter_count()
        faults = sum(i.fault_count() for i in injectors)
    finally:
        router.close()
        cluster.close()
    return fingerprints, scatters, faults


@pytest.fixture(scope="module")
def sequential_baseline(recorded_stream):
    """Sequential-replay fingerprints, cached per (shards, replication)."""
    cache: dict[tuple[int, int], dict[str, str]] = {}

    def get(shards: int, replication: int) -> dict[str, str]:
        key = (shards, replication)
        if key not in cache:
            fingerprints, _, _ = replay_fingerprints(
                recorded_stream, shards,
                ShardConfig(replication=replication,
                            parallel_fanout=False),
            )
            cache[key] = fingerprints
        return cache[key]

    return get


#: (shards, replication)
CASES = [(1, 1), (4, 1), (8, 1), (4, 2), (8, 2)]


class TestParallelWriteEquivalence:
    def test_sequential_baseline_spreads_data(self, recorded_stream,
                                              sequential_baseline):
        fingerprints = sequential_baseline(4, 1)
        assert len(fingerprints) == 4
        # 13 surviving documents over 4 shards: no two zones hold
        # identical state, and none is the single-zone recording.
        assert len(set(fingerprints.values())) > 1

    @pytest.mark.parametrize("shards,replication", CASES)
    def test_parallel_replay_matches_sequential(
        self, recorded_stream, sequential_baseline, shards, replication
    ):
        baseline = sequential_baseline(shards, replication)
        fingerprints, scatters, _ = replay_fingerprints(
            recorded_stream, shards,
            ShardConfig(replication=replication, parallel_fanout=True),
        )
        assert fingerprints == baseline
        if shards > 1:
            assert scatters > 0

    def test_replication_stores_every_frame_twice(self, recorded_stream,
                                                  sequential_baseline):
        # Replicated zones hold strictly more than their replication=1
        # counterparts (same stream, every chain delivered twice).
        single = sequential_baseline(4, 1)
        doubled = sequential_baseline(4, 2)
        assert single != doubled

    @pytest.mark.parametrize("replication", [2, 3])
    def test_chaos_quorum_writes_converge_byte_identical(
        self, recorded_stream, replication
    ):
        # (The id predates the single write path: what converges now is
        # a write that waited for every reachable replica.)
        config = ShardConfig(replication=replication,
                             parallel_fanout=True)
        clean, _, _ = replay_fingerprints(recorded_stream, 4, config)
        chaotic, _, faults = replay_fingerprints(
            recorded_stream, 4, config, chaos=True
        )
        assert faults > 0  # the schedule actually fired
        assert chaotic == clean
