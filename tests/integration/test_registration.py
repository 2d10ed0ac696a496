"""Registration frames: standing a sharded deployment up.

With batching on, a gateway's start-up provisioning and a schema's
registration each cross the wire as one frame, and the router sends a
frame's provisioning slots to every node as one sub-frame, in slot
order, logging them in that order for joining nodes to replay.

The fault schedule of :class:`TestRegistrationChaos` comes from
``DATABLINDER_CHAOS_SEED`` (CI runs several).
"""

from __future__ import annotations

import os

import pytest

from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.errors import RemoteError
from repro.integrity import IntegrityConfig
from repro.net.batch import PipelineConfig
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.resilience import BreakerConfig, ResilienceConfig, RetryPolicy
from repro.net.rpc import Response
from repro.net.transport import TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.rebalance import Resharder
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "regapp"
NODES = 4
CHAOS_SEED = int(os.environ.get("DATABLINDER_CHAOS_SEED", "1337"))


def fresh_registry() -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


def hot_schema() -> Schema:
    """EQ, BL, RG and sum/avg: DET, BIEX, OPE and Paillier halves."""
    return Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        patient=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                                "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )


def documents(count: int) -> list[dict]:
    return [{"status": "final" if i % 2 else "draft",
             "patient": f"p{i % 3}", "effective": 100 + i,
             "value": float(i), "note": f"n{i}"} for i in range(count)]


def deploy(nodes, pipeline: PipelineConfig, registry, **kwargs):
    return DataBlinder(APP, ShardedTransport(nodes, pipeline.sharding),
                       registry=registry, pipeline=pipeline, **kwargs)


def provision_calls(blinder: DataBlinder) -> list[tuple]:
    """The router's provision log, minus key material (fresh per run)."""
    return [(r.service, r.method, sorted(r.kwargs))
            for r in blinder.runtime.router.provision_log]


def services(cluster: CloudCluster, name: str) -> list[str]:
    return cluster.zone(name).host.service_names()


class FailSetupOnce(TransportLayer):
    """A node that records the ``setup`` slots of one tactic it receives
    and, when ``fail`` is set, answers the first with a cloud error, as
    a cloud half refusing its parameters would."""

    def __init__(self, inner, tactic: str, fail: bool):
        super().__init__(inner)
        self.tactic = tactic
        self.fired = not fail
        self.setups: list[str] = []

    def call_batch(self, requests):
        responses = list(self._inner.call_batch(requests))
        for index, request in enumerate(requests):
            if (request.method == "setup"
                    and request.service.endswith("/" + self.tactic)):
                self.setups.append(request.service)
                if not self.fired:
                    self.fired = True
                    responses[index] = Response(
                        ok=False, error_type="TacticError",
                        error_message="setup refused")
        return responses


class TestRegistrationFrames:
    def test_deploy_and_register_reach_each_node_in_two_frames(self):
        registry = fresh_registry()
        cluster = CloudCluster(NODES, registry=registry)
        blinder = deploy(cluster.nodes(), PipelineConfig.production(),
                         registry)
        blinder.register_schema(hot_schema())
        for name in cluster.names():
            assert cluster.transport(name).stats().messages_sent <= 2
        blinder.runtime.transport.close()
        cluster.close()

    def test_join_replays_the_per_call_provision_log(self):
        registry = fresh_registry()
        per_call = CloudCluster(NODES, registry=registry)
        unbatched = deploy(per_call.nodes(), PipelineConfig(
            sharding=ShardConfig(), integrity=IntegrityConfig()), registry)
        unbatched.register_schema(hot_schema())

        cluster = CloudCluster(NODES, registry=registry)
        blinder = deploy(cluster.nodes(), PipelineConfig.production(),
                         registry)
        blinder.register_schema(hot_schema())
        assert provision_calls(blinder) == provision_calls(unbatched)

        entities = blinder.entities("obs")
        ids = entities.insert_many(documents(12))
        Resharder(blinder.runtime.router).add_node(
            *cluster.add_zone("zone-4"))
        assert services(cluster, "zone-4") == services(cluster, "zone-0")
        assert sorted(entities.find_ids(Eq("status", "final"))) == sorted(
            ids[1::2])
        for transport in (blinder.runtime.transport,
                          unbatched.runtime.transport):
            transport.close()
        cluster.close()
        per_call.close()

    def test_join_replays_provisioning_as_one_frame(self):
        registry = fresh_registry()
        cluster = CloudCluster(NODES, registry=registry)
        blinder = deploy(cluster.nodes(), PipelineConfig.production(),
                         registry)
        blinder.register_schema(hot_schema())
        router = blinder.runtime.router
        assert len(router.provision_log) > 1
        name, transport = cluster.add_zone("zone-4")
        router.begin_join(name, transport)
        router.finish_migration()
        assert transport.stats().messages_sent == 1
        assert services(cluster, name) == services(cluster, "zone-0")
        blinder.runtime.transport.close()
        cluster.close()

    def test_failed_replay_slot_raises_and_keeps_the_node_out(self):
        registry = fresh_registry()
        cluster = CloudCluster(NODES, registry=registry)
        blinder = deploy(cluster.nodes(), PipelineConfig.production(),
                         registry)
        blinder.register_schema(hot_schema())
        router = blinder.runtime.router
        epoch, members = router.topology_epoch(), router.node_names()
        name, transport = cluster.add_zone("zone-4")
        with pytest.raises(RemoteError) as failure:
            router.begin_join(name, FailSetupOnce(transport, "ope", True))
        assert failure.value.remote_type == "TacticError"
        assert router.node_names() == members
        assert router.topology_epoch() == epoch
        assert not router.forwarding_active()
        blinder.runtime.transport.close()
        cluster.close()

    @pytest.mark.parametrize("failing", ["first", "last", "every"])
    @pytest.mark.parametrize("tactic", ["det", "ope", "paillier"])
    def test_failed_slot_is_typed_caches_nothing_and_retry_works(
            self, tactic, failing):
        registry = fresh_registry()
        cluster = CloudCluster(NODES, registry=registry)
        nodes = cluster.nodes()
        chosen = {"first": {0}, "last": {NODES - 1},
                  "every": set(range(NODES))}[failing]
        nodes = [(name, FailSetupOnce(transport, tactic, index in chosen))
                 for index, (name, transport) in enumerate(nodes)]
        blinder = deploy(nodes, PipelineConfig.production(), registry)
        with pytest.raises(RemoteError) as failure:
            blinder.register_schema(hot_schema())
        assert failure.value.remote_type == "TacticError"
        # One delivery per node: a refused slot is not sent again.
        delivered = [node.setups for _, node in nodes]
        assert len(set(delivered[0])) == len(delivered[0])
        assert delivered == [delivered[0]] * NODES
        assert blinder.runtime.loaded_tactics() == []
        assert blinder.schema_names() == []

        blinder.register_schema(hot_schema())
        entities = blinder.entities("obs")
        ids = entities.insert_many(documents(6))
        assert sorted(entities.find_ids(Eq("status", "final"))) == sorted(
            ids[1::2])
        assert entities.sum("value") == pytest.approx(15.0)
        blinder.runtime.transport.close()
        cluster.close()


class TestRegistrationChaos:
    #: Registration is two frames per node: a heavy schedule makes a
    #: dropped or duplicated registration frame near-certain per seed.
    PLAN = FaultPlan(drop=0.25, duplicate=0.25)
    RESILIENCE = ResilienceConfig(
        retry=RetryPolicy(max_attempts=12, sleep=False),
        breaker=BreakerConfig(failure_threshold=50),
        seed=CHAOS_SEED,
    )

    def test_registration_survives_dropped_and_duplicated_frames(self):
        registry = fresh_registry()
        clean = CloudCluster(NODES, registry=registry)
        deploy(clean.nodes(), PipelineConfig.production(),
               registry).register_schema(hot_schema())
        expected = services(clean, "zone-0")
        clean.close()

        injected = 0
        for attempt in range(3):
            cluster = CloudCluster(NODES, registry=registry)
            faulty = [(name, FaultInjectingTransport(
                transport, self.PLAN,
                seed=CHAOS_SEED + 10 * attempt + index))
                for index, (name, transport)
                in enumerate(cluster.nodes())]
            blinder = deploy(faulty, PipelineConfig.production(), registry,
                             resilience=self.RESILIENCE)
            blinder.register_schema(hot_schema())
            injected += sum(node.fault_count() for _, node in faulty)
            assert "obs" in blinder.schema_names()
            for name in cluster.names():
                assert services(cluster, name) == expected
            blinder.runtime.transport.close()
            cluster.close()
        assert injected > 0
