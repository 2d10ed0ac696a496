"""Sharding equivalence: off, 1-node ring and 4-shard ring all answer
every query shape identically to the plain unsharded deployment."""

from __future__ import annotations

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, And, Eq, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.errors import UnsupportedOperation
from repro.fhir.model import observation_schema
from repro.net.resilience import ResilientTransport
from repro.net.transport import InProcTransport
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics

APP = "equivapp"


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


def run_workload(blinder: DataBlinder) -> dict:
    """Insert/update/delete plus every query shape, as comparable data.

    Documents get random ids per deployment, so results are projected
    onto the deterministic ``identifier`` field (and full content
    multisets) before comparison.
    """
    blinder.register_schema(observation_schema())
    observations = blinder.entities("observation")
    ids = [observations.insert(make_doc(i)) for i in range(12)]
    observations.update(ids[3], {"value": 30.0})
    assert observations.delete(ids[11])

    def identifiers(doc_ids) -> list[int]:
        return sorted(observations.get(d)["identifier"] for d in doc_ids)

    def content(doc_ids) -> list[tuple]:
        docs = []
        for doc_id in doc_ids:
            doc = dict(observations.get(doc_id))
            doc.pop("_id", None)
            docs.append(tuple(sorted(doc.items())))
        return sorted(docs)

    everything = observations.find_ids(Range("effective", 1000, 1020))
    return {
        "count": observations.count(),
        "eq": identifiers(observations.find_ids(Eq("status", "final"))),
        "bool": identifiers(observations.find_ids(
            And([Eq("status", "final"), Eq("code", "glucose")])
        )),
        "range": identifiers(observations.find_ids(
            Range("effective", 1002, 1008)
        )),
        "avg": observations.average("value"),
        "sorted": [
            doc["identifier"]
            for doc in observations.find_sorted("effective",
                                                descending=True, limit=5)
        ],
        "content": content(everything),
    }


@pytest.fixture(scope="module")
def unsharded_results() -> dict:
    registry = fresh_registry()
    cloud = CloudZone(registry)
    blinder = DataBlinder(APP, InProcTransport(cloud.host),
                          registry=registry)
    assert not isinstance(blinder.runtime.transport, ShardedTransport)
    return run_workload(blinder)


class TestEquivalence:
    def test_unsharded_baseline_is_sane(self, unsharded_results):
        assert unsharded_results["count"] == 11
        assert unsharded_results["eq"] == [0, 2, 4, 6, 8, 10]
        assert unsharded_results["bool"] == [0, 2, 4]
        assert unsharded_results["range"] == [2, 3, 4, 5, 6, 7, 8]
        assert unsharded_results["sorted"] == [10, 9, 8, 7, 6]
        assert len(unsharded_results["content"]) == 11

    def test_single_node_ring_matches_unsharded(self, unsharded_results):
        registry = fresh_registry()
        cluster = CloudCluster(1, registry=registry)
        router = ShardedTransport(cluster.nodes())
        blinder = DataBlinder(APP, router, registry=registry)
        try:
            assert run_workload(blinder) == unsharded_results
        finally:
            cluster.close()

    @pytest.mark.parametrize("parallel", [False, True])
    def test_four_shards_match_unsharded(self, unsharded_results,
                                         parallel):
        registry = fresh_registry()
        cluster = CloudCluster(4, registry=registry)
        router = ShardedTransport(
            cluster.nodes(), ShardConfig(parallel_fanout=parallel)
        )
        blinder = DataBlinder(APP, router, registry=registry)
        try:
            assert run_workload(blinder) == unsharded_results
            assert router.scatter_count() > 0
        finally:
            cluster.close()

    def test_four_shards_spread_the_data(self, unsharded_results):
        registry = fresh_registry()
        cluster = CloudCluster(4, registry=registry)
        blinder = DataBlinder(APP, ShardedTransport(cluster.nodes()),
                              registry=registry)
        try:
            results = run_workload(blinder)
            assert results == unsharded_results
            counts = [
                len(cluster.zone(n).application_stores(APP)[1].all_ids())
                for n in cluster.names()
            ]
            assert sum(counts) == 11
            # 12 random ids over 4 shards: no shard holds everything.
            assert max(counts) < 11
        finally:
            cluster.close()


# -- homomorphic aggregates: per-shard partials fold at the gateway ---------------

READINGS = [
    # (ward, value, factor)
    ("north", 61.5, 2), ("north", 72.25, 3), ("south", 80.0, 5),
    ("north", 55.125, 7), ("south", 91.5, 2), ("north", 68.0, 1),
    ("south", 77.75, 3), ("north", 64.5, 4), ("east", 70.0, 9),
    ("north", 59.0, 2), ("south", 83.25, 1), ("north", 66.625, 5),
]


def reading_schema() -> Schema:
    return Schema.define(
        "reading",
        ward=("string", FieldAnnotation.parse("C4", "I,EQ")),
        value=("float", FieldAnnotation.parse("C4", "I", "sum,avg,count")),
        factor=("int", FieldAnnotation.parse("C4", "I", "product")),
    )


def oracle(ward: str | None) -> dict:
    """The plaintext answers, straight from ``READINGS``."""
    rows = [r for r in READINGS if ward is None or r[0] == ward]
    values = [value for _, value, _ in rows]
    product = 1
    for _, _, factor in rows:
        product *= factor
    return {
        "sum": sum(values) if rows else None,
        "avg": sum(values) / len(values) if rows else None,
        "count": len(rows),
        "product": product if rows else None,
    }


def run_aggregates(blinder: DataBlinder) -> dict:
    blinder.register_schema(reading_schema())
    readings = blinder.entities("reading")
    for ward, value, factor in READINGS:
        readings.insert({"ward": ward, "value": value, "factor": factor})
    results = {}
    for ward in ("north", "south", "east", "nowhere"):
        where = Eq("ward", ward)
        results[ward] = {
            "sum": readings.sum("value", where),
            "avg": readings.average("value", where),
            "count": readings.aggregate(
                AggregateQuery(Aggregate.COUNT, "value", where)),
            "product": readings.aggregate(
                AggregateQuery(Aggregate.PRODUCT, "factor", where)),
        }
    return results


def unfiltered(blinder: DataBlinder) -> dict:
    """``doc_ids=None``: every shard aggregates all it stores."""
    paillier = blinder.runtime.tactic("reading.value", "paillier")
    elgamal = blinder.runtime.tactic("reading.factor", "elgamal")
    return {
        "sum": paillier.aggregate("sum"),
        "avg": paillier.aggregate("avg"),
        "count": paillier.aggregate("count"),
        "product": elgamal.aggregate("product"),
    }


def assert_matches(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for function, expected in want.items():
        if isinstance(expected, float):
            assert got[function] == pytest.approx(expected), function
        else:
            assert got[function] == expected, function


@pytest.fixture(scope="module")
def unsharded_aggregates() -> tuple[dict, dict]:
    registry = fresh_registry()
    cloud = CloudZone(registry)
    blinder = DataBlinder(APP, InProcTransport(cloud.host),
                          registry=registry)
    return run_aggregates(blinder), unfiltered(blinder)


class TestAggregateEquivalence:
    def test_unsharded_baseline_matches_the_oracle(
        self, unsharded_aggregates
    ):
        filtered, everything = unsharded_aggregates
        for ward, got in filtered.items():
            assert_matches(got, oracle(ward))
        assert_matches(everything, oracle(None))

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("replication", [1, 2])
    def test_filtered_aggregates_match_unsharded(
        self, unsharded_aggregates, shards, replication
    ):
        registry = fresh_registry()
        cluster = CloudCluster(shards, registry=registry)
        router = ShardedTransport(cluster.nodes(),
                                  ShardConfig(replication=replication))
        blinder = DataBlinder(APP, router, registry=registry)
        try:
            results = run_aggregates(blinder)
            for ward, got in results.items():
                assert_matches(got, unsharded_aggregates[0][ward])
                assert_matches(got, oracle(ward))
        finally:
            cluster.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_unfiltered_aggregates_match_unsharded(
        self, unsharded_aggregates, shards
    ):
        registry = fresh_registry()
        cluster = CloudCluster(shards, registry=registry)
        blinder = DataBlinder(APP, ShardedTransport(cluster.nodes()),
                              registry=registry)
        try:
            run_aggregates(blinder)
            assert_matches(unfiltered(blinder), unsharded_aggregates[1])
        finally:
            cluster.close()

    def test_unfiltered_aggregate_over_replicas_is_refused(self):
        # Every shard would fold in its replica copies too; the planner
        # always names the documents, a bare tactic call must as well.
        registry = fresh_registry()
        cluster = CloudCluster(4, registry=registry)
        router = ShardedTransport(cluster.nodes(),
                                  ShardConfig(replication=2))
        blinder = DataBlinder(APP, router, registry=registry)
        try:
            run_aggregates(blinder)
            with pytest.raises(UnsupportedOperation, match="doc_ids"):
                unfiltered(blinder)
        finally:
            cluster.close()

    def test_open_breaker_on_one_owner_answers_via_the_replica(
        self, unsharded_aggregates
    ):
        registry = fresh_registry()
        cluster = CloudCluster(4, registry=registry)
        guarded = [(name, ResilientTransport(transport))
                   for name, transport in cluster.nodes()]
        router = ShardedTransport(guarded, ShardConfig(replication=2))
        blinder = DataBlinder(APP, router, registry=registry)
        try:
            healthy = run_aggregates(blinder)
            breaker = guarded[1][1].breaker
            while breaker.state != "open":
                breaker.record_failure()
            readings = blinder.entities("reading")
            for ward, want in healthy.items():
                where = Eq("ward", ward)
                assert readings.sum("value", where) == want["sum"]
                assert readings.average("value", where) == want["avg"]
                assert readings.aggregate(AggregateQuery(
                    Aggregate.PRODUCT, "factor", where
                )) == want["product"]
                assert_matches(want, unsharded_aggregates[0][ward])
            assert router.stats().failovers > 0
        finally:
            cluster.close()
