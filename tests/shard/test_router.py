"""ShardedTransport unit behaviour: placement, merges, epochs, stats."""

import pytest

from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.query import And, Eq, Range
from repro.core.registry import TacticRegistry
from repro.errors import TransportError
from repro.fhir.model import observation_schema
from repro.net.latency import NetworkStats
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "shardapp"


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


def deploy(registry: TacticRegistry):
    cluster = CloudCluster(4, registry=registry)
    router = ShardedTransport(cluster.nodes(),
                              ShardConfig(parallel_fanout=False))
    blinder = DataBlinder(APP, router, registry=registry)
    blinder.register_schema(observation_schema())
    return cluster, router, blinder


@pytest.fixture()
def deployment():
    cluster, router, blinder = deploy(fresh_registry())
    yield cluster, router, blinder
    cluster.close()


#: Each tactic declaring ``colocated_lookup`` -> the tactics unregistered
#: so that the selector picks it for the ``effective`` field.
COLOCATED = {"det": (), "blind-index": ("det",), "ope": (), "ore": ("ope",)}


def assert_index_entries_colocate(tactic: str) -> None:
    """On a 4-node cluster, ``tactic``'s entries for the ``effective``
    field on every shard are exactly the documents that shard holds."""
    registry = fresh_registry()
    for name in COLOCATED[tactic]:
        registry.unregister(name)
    cluster, router, blinder = deploy(registry)
    try:
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(12)]
        ring = HashRing.from_spec(router.ring_spec())
        for name in cluster.names():
            instance = cluster.zone(name).tactic_instance(
                APP, "observation.effective", tactic
            )
            stored = {
                key.decode()
                for key, _ in instance.ctx.kv.map_items(instance._map_name)
            }
            _, documents = cluster.zone(name).application_stores(APP)
            held = set(documents.all_ids())
            assert held == {d for d in ids if ring.owner(d) == name}
            assert stored == held
    finally:
        cluster.close()


class TestConstruction:
    def test_duplicate_node_rejected(self, registry):
        cluster = CloudCluster(["a"], registry=registry)
        transport = cluster.transport("a")
        with pytest.raises(TransportError):
            ShardedTransport([("a", transport), ("a", transport)])

    def test_empty_node_set_rejected(self):
        with pytest.raises(TransportError):
            ShardedTransport([])

    def test_sequence_of_pairs_builds_through_middleware(self, registry):
        cluster = CloudCluster(2, registry=registry)
        blinder = DataBlinder(APP, cluster.nodes(), registry=registry)
        assert isinstance(blinder.runtime.transport.topology_epoch(), int)


class TestPlacement:
    def test_documents_land_on_their_ring_owner(self, deployment):
        cluster, router, blinder = deployment
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(12)]

        ring = HashRing.from_spec(router.ring_spec())
        for doc_id in ids:
            owner = ring.owner(doc_id)
            for name in cluster.names():
                _, documents = cluster.zone(name).application_stores(APP)
                present = doc_id in documents.all_ids()
                assert present == (name == owner)

    @pytest.mark.parametrize("tactic", list(COLOCATED))
    def test_doc_keyed_index_entries_colocate(self, tactic):
        assert_index_entries_colocate(tactic)

    def test_every_shard_holds_some_rows(self, deployment):
        cluster, router, blinder = deployment
        observations = blinder.entities("observation")
        for i in range(32):
            observations.insert(make_doc(i))
        counts = [
            len(cluster.zone(n).application_stores(APP)[1].all_ids())
            for n in cluster.names()
        ]
        assert sum(counts) == 32
        assert all(count > 0 for count in counts)


class TestScatterGather:
    def test_queries_merge_across_shards(self, deployment):
        _, router, blinder = deployment
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(10)]
        observations.update(ids[2], {"value": 20.0})
        assert observations.delete(ids[9])

        def identifiers(doc_ids):
            return sorted(
                observations.get(d)["identifier"] for d in doc_ids
            )

        assert observations.count() == 9
        assert identifiers(observations.find_ids(Eq("status", "final"))) \
            == [0, 2, 4, 6, 8]
        assert identifiers(observations.find_ids(
            And([Eq("status", "final"), Eq("code", "glucose")])
        )) == [0, 2, 4]
        assert identifiers(observations.find_ids(
            Range("effective", 1003, 1007)
        )) == [3, 4, 5, 6, 7]
        assert observations.average("value") == pytest.approx(54.0 / 9.0)
        assert router.scatter_count() > 0

    def test_sorted_scan_merges_in_value_order(self, deployment):
        _, _, blinder = deployment
        observations = blinder.entities("observation")
        for i in range(10):
            observations.insert(make_doc(i))
        values = [
            doc["effective"]
            for doc in observations.find_sorted("effective",
                                                descending=True, limit=4)
        ]
        assert values == [1009, 1008, 1007, 1006]


class TestTopologyEpoch:
    def test_membership_bumps_epoch(self, registry):
        cluster = CloudCluster(2, registry=registry)
        router = ShardedTransport(cluster.nodes())
        assert router.topology_epoch() == 1
        name, transport = cluster.add_zone("zone-9")
        router.begin_join(name, transport)
        epoch_mid = router.topology_epoch()
        assert epoch_mid > 1
        assert router.forwarding_active()
        router.finish_migration()
        assert router.topology_epoch() > epoch_mid
        assert not router.forwarding_active()

    def test_single_node_matches_plain_transport_semantics(self, registry):
        cluster = CloudCluster(1, registry=registry)
        router = ShardedTransport(cluster.nodes())
        blinder = DataBlinder(APP, router, registry=registry)
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(4)]
        assert observations.count() == 4
        assert sorted(
            observations.get(d)["identifier"]
            for d in observations.find_ids(Eq("status", "final"))
        ) == [0, 2]
        assert ids


class TestLabeledStats:
    def test_per_shard_labels_and_roll_up(self, deployment):
        _, router, blinder = deployment
        observations = blinder.entities("observation")
        for i in range(8):
            observations.insert(make_doc(i))

        labeled = router.labeled_stats()
        shard_labels = {k for k in labeled if k.startswith("shard:")}
        assert len(shard_labels) == 4
        assert "router" in labeled
        total = router.stats()
        assert isinstance(total, NetworkStats)
        assert total.messages_sent == sum(
            stats.messages_sent for stats in labeled.values()
        )
        assert all(
            labeled[label].messages_sent > 0 for label in shard_labels
        )

    def test_shard_timings_reach_planner_report(self, deployment):
        _, _, blinder = deployment
        observations = blinder.entities("observation")
        for i in range(6):
            observations.insert(make_doc(i))
        observations.find_ids(Eq("status", "final"))
        timings = blinder.planner_stats("observation")["node_timings"]
        shard_kinds = [k for k in timings if k.startswith("Shard:")]
        assert shard_kinds, timings
