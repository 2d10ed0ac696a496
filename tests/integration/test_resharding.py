"""Online resharding: node join/leave under a live workload, and
replicated failover when a shard dies outright."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.query import Eq, Range
from repro.core.registry import TacticRegistry
from repro.errors import TransportError
from repro.fhir.model import observation_schema
from repro.net.batch import PipelineConfig
from repro.net.resilience import (
    BreakerConfig,
    ResilienceConfig,
    ResilientTransport,
    RetryPolicy,
)
from repro.net.transport import Transport, TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.rebalance import Resharder
from repro.shard.ring import HashRing
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "reshardapp"


def fresh_registry() -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


def make_doc(i: int) -> dict:
    return {
        "id": f"f{i}",
        "identifier": i,
        "status": "final" if i % 2 == 0 else "amended",
        "code": "glucose" if i % 3 == 0 else "insulin",
        "subject": f"Patient {i}",
        "effective": 1000 + i,
        "issued": 2000 + i,
        "performer": "Dr",
        "value": float(i),
        "interpretation": "",
    }


def deploy(n_nodes: int, config: ShardConfig | None = None,
           pipeline: PipelineConfig | None = None):
    registry = fresh_registry()
    cluster = CloudCluster(n_nodes, registry=registry)
    router = ShardedTransport(
        cluster.nodes(), config or ShardConfig(parallel_fanout=False)
    )
    blinder = DataBlinder(APP, router, registry=registry,
                          pipeline=pipeline)
    blinder.register_schema(observation_schema())
    return cluster, router, blinder


def verify_workload(observations, ids_by_identifier: dict[int, str]):
    """Full sweep: every doc readable, every query shape correct."""
    for i, doc_id in ids_by_identifier.items():
        assert observations.get(doc_id)["identifier"] == i
    identifiers = sorted(ids_by_identifier)
    assert observations.count() == len(identifiers)
    assert sorted(
        observations.get(d)["identifier"]
        for d in observations.find_ids(Eq("status", "final"))
    ) == [i for i in identifiers if i % 2 == 0]
    lo, hi = 1000 + identifiers[2], 1000 + identifiers[-3]
    assert sorted(
        observations.get(d)["identifier"]
        for d in observations.find_ids(Range("effective", lo, hi))
    ) == [i for i in identifiers if lo <= 1000 + i <= hi]


class MoveOnProbe(TransportLayer):
    """The joiner's link.  Once armed, right after the joiner answers
    its next ``method`` call it does what the resharder does to one
    document: import at the new owner, then evict at the old — so the
    move lands *between* a router's probe of the new owner and its
    probe of the forwarding-table owner."""

    def __init__(self, inner, method):
        super().__init__(inner)
        self.method = method
        self.pending = None

    def arm(self, service, doc_id, source):
        self.pending = (service, doc_id, source)

    def call_batch(self, requests):
        armed = self.pending is not None and any(
            request.method == self.method for request in requests)
        try:
            return self._inner.call_batch(requests)
        finally:
            if armed:
                service, doc_id, source = self.pending
                self.pending = None
                stored = source.call(service, "get_many", doc_ids=[doc_id])
                self._inner.call(service, "insert_many", documents=stored)
                source.call(service, "delete", doc_id=doc_id)


class TestReadsRacingTheMove:
    @pytest.mark.parametrize("method",
                             ["get_many", "replace", "delete"])
    def test_move_between_the_two_probes_is_not_a_miss(self, method):
        cluster, router, blinder = deploy(3)
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(40)]
        service = f"docs/{APP}"
        old_nodes = router.node_names()
        name, transport = cluster.add_zone("zone-3")
        joiner = MoveOnProbe(transport, method)
        router.begin_join(name, joiner)
        try:
            ring = HashRing.from_spec(router.ring_spec())
            doc_id = next(d for d in ids if ring.owner(d) == name)
            source = next(
                router.node_transport(node) for node in old_nodes
                if doc_id in router.node_transport(node).call(
                    service, "all_ids")
            )
            [stored] = source.call(service, "get_many", doc_ids=[doc_id])
            joiner.arm(service, doc_id, source)
            if method == "get_many":
                assert stored in router.call(
                    service, "get_many", doc_ids=ids[:8] + [doc_id])
            elif method == "replace":
                changed = {**stored, "plain": {"touched": True}}
                router.call(service, "replace", document=changed)
                assert transport.call(service, "get_many",
                                      doc_ids=[doc_id]) == [changed]
            else:
                assert router.call(service, "delete", doc_id=doc_id)
                assert doc_id not in transport.call(service, "all_ids")
            assert joiner.pending is None  # the move was interposed
            assert doc_id not in source.call(service, "all_ids")
        finally:
            router.finish_migration()
            cluster.close()


class TestNodeJoin:
    def test_join_during_live_workload_loses_nothing(self):
        cluster, router, blinder = deploy(3)
        observations = blinder.entities("observation")
        ids = {i: observations.insert(make_doc(i)) for i in range(40)}

        stop = threading.Event()
        errors: list[Exception] = []
        live_ids: dict[int, str] = {}

        def writer():
            i = 100
            while not stop.is_set() and i < 160:
                try:
                    live_ids[i] = observations.insert(make_doc(i))
                except Exception as exc:  # noqa: BLE001 - fail the test
                    errors.append(exc)
                    return
                i += 1

        def reader():
            probes = [ids[0], ids[17], ids[39]]
            while not stop.is_set():
                try:
                    for doc_id in probes:
                        assert observations.get(doc_id)["_id"] == doc_id
                except Exception as exc:  # noqa: BLE001 - fail the test
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        time.sleep(0.01)  # let the live workload overlap the migration
        try:
            report = Resharder(router, chunk_size=8).add_node(
                *cluster.add_zone("zone-3")
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        assert not router.forwarding_active()
        assert report.documents_moved > 0
        assert report.index_entries_total > 0
        assert report.services_replayed > 0

        all_ids = {**ids, **live_ids}
        verify_workload(observations, all_ids)
        # The joiner genuinely took ownership of part of the keyspace.
        joined = cluster.zone("zone-3").application_stores(APP)[1]
        assert len(joined.all_ids()) > 0
        cluster.close()

    def test_join_is_invisible_to_results(self):
        cluster, router, blinder = deploy(2)
        observations = blinder.entities("observation")
        ids = {i: observations.insert(make_doc(i)) for i in range(20)}
        before = sorted(
            observations.get(d)["identifier"]
            for d in observations.find_ids(Eq("status", "final"))
        )
        Resharder(router).add_node(*cluster.add_zone("zone-2"))
        after = sorted(
            observations.get(d)["identifier"]
            for d in observations.find_ids(Eq("status", "final"))
        )
        assert after == before
        verify_workload(observations, ids)
        cluster.close()


class TestJoinFromOneNode:
    """A one-node ring routes like any other: it records its pins and
    logs its provisioning, so a join from it replays the services and
    keeps every pinned service where its entries are."""

    @pytest.mark.parametrize("pipeline", [None, PipelineConfig.production()],
                             ids=["default", "production"])
    def test_join_keeps_pins_and_answers(self, pipeline):
        cluster, router, blinder = deploy(1, pipeline=pipeline)
        observations = blinder.entities("observation")
        ids = {i: observations.insert(make_doc(i)) for i in range(20)}
        pins = router.pins()

        report = Resharder(router).add_node(*cluster.add_zone("zone-1"))
        ids[20] = observations.insert(make_doc(20))
        verify_workload(observations, ids)
        assert report.services_replayed > 0
        assert report.documents_moved > 0
        assert router.pins() == pins
        assert any(service.endswith("/biex-2lev") for service in pins)
        assert all(nodes == ["zone-0"] for nodes in pins.values())
        cluster.close()


class TestNodeLeave:
    def test_remove_node_drains_completely(self):
        cluster, router, blinder = deploy(4)
        observations = blinder.entities("observation")
        ids = {i: observations.insert(make_doc(i)) for i in range(30)}

        report = Resharder(router, chunk_size=8).remove_node("zone-2")
        assert "zone-2" not in router.node_names()
        verify_workload(observations, ids)
        # The departed zone kept nothing behind.
        drained = cluster.zone("zone-2").application_stores(APP)[1]
        assert drained.all_ids() == []
        assert report.documents_moved > 0
        cluster.close()

    def test_last_node_cannot_leave(self):
        cluster, router, _ = deploy(1)
        with pytest.raises(TransportError):
            Resharder(router).remove_node("zone-0")
        cluster.close()


class TestReplicationGuard:
    def test_resharding_requires_single_replica(self):
        cluster, router, _ = deploy(
            3, ShardConfig(replication=2, parallel_fanout=False)
        )
        with pytest.raises(TransportError):
            Resharder(router).add_node(*cluster.add_zone("zone-3"))
        cluster.close()


class KillSwitch(TransportLayer):
    """A shard link that can be cut dead mid-test."""

    def __init__(self, inner: Transport):
        super().__init__(inner)
        self.dead = False

    def call_batch(self, requests):
        if self.dead:
            raise TransportError("shard is down")
        return self._inner.call_batch(requests)


class TestShardKillFailover:
    def test_replicated_reads_survive_a_dead_shard(self):
        registry = fresh_registry()
        cluster = CloudCluster(4, registry=registry)
        switches: dict[str, KillSwitch] = {}
        nodes = []
        for name in cluster.names():
            switch = KillSwitch(cluster.transport(name))
            switches[name] = switch
            # Per-shard breaker: the first failed call opens it, so the
            # router's replica chain can skip the dead shard afterwards.
            nodes.append((name, ResilientTransport(
                switch, RetryPolicy.no_retry(),
                breaker=BreakerConfig(failure_threshold=1,
                                      reset_timeout=10 ** 9),
                seed=0,
            )))
        router = ShardedTransport(
            nodes, ShardConfig(replication=2, parallel_fanout=False)
        )
        blinder = DataBlinder(
            APP, router, registry=registry,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=4, sleep=False),
                breaker=BreakerConfig(failure_threshold=10 ** 9),
            ),
        )
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        ids = {i: observations.insert(make_doc(i)) for i in range(16)}

        switches["zone-1"].dead = True

        # Reads fail over to the surviving replica of every key.
        for i, doc_id in ids.items():
            assert observations.get(doc_id)["identifier"] == i
        assert observations.count() == 16
        assert sorted(
            observations.get(d)["identifier"]
            for d in observations.find_ids(Eq("status", "final"))
        ) == [i for i in ids if i % 2 == 0]
        # Writes land on the surviving owner too.
        ids[99] = observations.insert(make_doc(99))
        assert observations.get(ids[99])["identifier"] == 99
        assert observations.count() == 17
        assert router.stats().failovers > 0
        cluster.close()
