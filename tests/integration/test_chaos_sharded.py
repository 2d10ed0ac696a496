"""Sharded chaos: the chaos scenario matrix over a 4-shard ring with
per-shard fault injection (10% dropped frames, 5% duplicated), and
integrity report frames lost on one shard link.

Each shard link gets its own seeded
:class:`repro.net.faults.FaultInjectingTransport`; the resilience layer
sits *above* the router, so a dropped scatter leg retries the logical
operation and the per-host dedup windows absorb the re-deliveries.  A
failing run dumps one fault schedule per shard to
``DATABLINDER_CHAOS_ARTIFACTS``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis.snapshot import SnapshotAdversary
from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.query import And, Eq, Range
from repro.core.registry import TacticRegistry
from repro.errors import TransportFault
from repro.fhir.model import observation_schema
from repro.net.batch import PipelineConfig
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.resilience import (
    BreakerConfig,
    ResilienceConfig,
    RetryPolicy,
)
from repro.net.transport import TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "chaosshardapp"
SHARDS = 4

#: Same acceptance schedule as the single-zone chaos suite.
PLAN = FaultPlan(drop=0.10, duplicate=0.05)

CHAOS_SEED = int(os.environ.get("DATABLINDER_CHAOS_SEED", "1337"))

#: A scatter leg fails when any shard's frame drops, so logical retries
#: fire more often than in the single-zone suite; the budget and the
#: breaker threshold are sized for a 4-way fan-out of independent 10%
#: drops.
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
        "code": "glucose" if i < 4 else "insulin",
        "subject": f"Patient {i}",
        "effective": 1000 + i,
        "issued": 2000 + i,
        "performer": "Dr",
        "value": float(i),
        "interpretation": "",
    }


def run_scenario(blinder: DataBlinder) -> dict:
    blinder.register_schema(observation_schema())
    observations = blinder.entities("observation")
    ids = [observations.insert(make_doc(i)) for i in range(8)]
    observations.update(ids[2], {"value": 20.0})
    assert observations.delete(ids[7])

    def identifiers(doc_ids) -> list[int]:
        return sorted(observations.get(d)["identifier"] for d in doc_ids)

    return {
        "count": observations.count(),
        "eq": identifiers(observations.find_ids(Eq("status", "final"))),
        "bool": identifiers(observations.find_ids(
            And([Eq("status", "final"), Eq("code", "glucose")])
        )),
        "range": identifiers(observations.find_ids(
            Range("effective", 1002, 1005)
        )),
        "avg": observations.average("value"),
    }


EXPECTED = {
    "count": 7,
    "eq": [0, 2, 4, 6],
    "bool": [0, 2],
    "range": [2, 3, 4, 5],
    "avg": pytest.approx(39.0 / 7.0),
}


@contextmanager
def sharded_chaos_deployment(seed: int):
    """A 4-shard cluster with an independent fault plan per shard link."""
    registry = fresh_registry()
    cluster = CloudCluster(SHARDS, registry=registry)
    faulty: dict[str, FaultInjectingTransport] = {}
    nodes = []
    for index, name in enumerate(cluster.names()):
        wrapper = FaultInjectingTransport(
            cluster.transport(name), PLAN, seed=seed + index
        )
        faulty[name] = wrapper
        nodes.append((name, wrapper))
    router = ShardedTransport(nodes, ShardConfig(parallel_fanout=False))
    try:
        yield cluster, router, faulty, registry
    finally:
        cluster.close()


@contextmanager
def schedule_artifacts(faulty: dict[str, FaultInjectingTransport]):
    """On failure, dump every shard's fault schedule for reproduction."""
    try:
        yield
    except BaseException:
        directory = os.environ.get("DATABLINDER_CHAOS_ARTIFACTS")
        if directory:
            path = Path(directory)
            path.mkdir(parents=True, exist_ok=True)
            for name, transport in faulty.items():
                (path / f"chaos-sharded-{name}-seed{transport.seed}.json"
                 ).write_text(transport.schedule_json())
        raise


def sharded_baseline() -> tuple[dict, int, int]:
    """Fault-free 4-shard run: results plus zone-total state counts."""
    registry = fresh_registry()
    cluster = CloudCluster(SHARDS, registry=registry)
    router = ShardedTransport(cluster.nodes(),
                              ShardConfig(parallel_fanout=False))
    blinder = DataBlinder(APP, router, registry=registry)
    results = run_scenario(blinder)
    documents = 0
    kv_entries = 0
    for name in cluster.names():
        report = SnapshotAdversary(cluster.zone(name), APP).report()
        documents += report.documents
        kv_entries += report.kv_entries
    cluster.close()
    return results, documents, kv_entries


class TestShardedChaos:
    def test_scenarios_survive_faults_on_every_shard_link(self):
        clean_results, clean_docs, clean_entries = sharded_baseline()
        assert clean_results == EXPECTED

        with sharded_chaos_deployment(CHAOS_SEED) as (
            cluster, router, faulty, registry
        ):
            with schedule_artifacts(faulty):
                blinder = DataBlinder(APP, router, registry=registry,
                                      resilience=RESILIENCE)
                results = run_scenario(blinder)
                assert results == clean_results

                # The run was genuinely chaotic: faults fired on the
                # shard links and the layer above the router absorbed
                # every lethal one.
                injected = sum(
                    t.fault_count() for t in faulty.values()
                )
                assert injected > 0
                stats = blinder.runtime.transport.stats()
                assert stats.faults_injected == injected
                assert stats.retries > 0

                # Zero duplicate applications across the whole ring:
                # zone-by-zone placement differs from the baseline (ids
                # are random), but the ring-wide totals must match the
                # fault-free run exactly.
                chaotic_docs = 0
                chaotic_entries = 0
                for name in cluster.names():
                    report = SnapshotAdversary(cluster.zone(name),
                                               APP).report()
                    chaotic_docs += report.documents
                    chaotic_entries += report.kv_entries
                assert chaotic_docs == clean_docs
                assert chaotic_entries == clean_entries

    def test_documents_stay_spread_under_chaos(self):
        with sharded_chaos_deployment(CHAOS_SEED + 17) as (
            cluster, router, faulty, registry
        ):
            with schedule_artifacts(faulty):
                blinder = DataBlinder(APP, router, registry=registry,
                                      resilience=RESILIENCE)
                blinder.register_schema(observation_schema())
                observations = blinder.entities("observation")
                for i in range(24):
                    observations.insert(make_doc(i))
                assert observations.count() == 24
                counts = [
                    len(cluster.zone(n).application_stores(APP)[1]
                        .all_ids())
                    for n in cluster.names()
                ]
                assert sum(counts) == 24
                assert max(counts) < 24


class DropFirstReports(TransportLayer):
    """A shard link that loses the first lone frame of each
    ``integrity/*`` method: the read's report round, then the audit's."""

    def __init__(self, inner):
        super().__init__(inner)
        self.dropped: list[str] = []

    def call_batch(self, requests):
        if len(requests) == 1:
            (request,) = requests
            if (request.service.startswith("integrity/")
                    and request.method not in self.dropped):
                self.dropped.append(request.method)
                raise TransportFault(
                    f"injected fault: {request.method} frame dropped")
        return self._inner.call_batch(requests)


class TestReportDrops:
    def test_a_dropped_report_frame_is_retried_above_the_router(self):
        """Report rounds are ordinary frames: one lost on a shard link
        is retried by the layer above the router like any other frame,
        so the verified read and the audit both answer."""
        registry = fresh_registry()
        cluster = CloudCluster(SHARDS, registry=registry)
        lossy = cluster.names()[CHAOS_SEED % SHARDS]
        link = DropFirstReports(cluster.transport(lossy))
        nodes = [(name, link if name == lossy else cluster.transport(name))
                 for name in cluster.names()]
        try:
            blinder = DataBlinder(APP, nodes, registry=registry,
                                  pipeline=PipelineConfig.production(),
                                  resilience=RESILIENCE)
            blinder.register_schema(observation_schema())
            observations = blinder.entities("observation")
            observations.insert_many([make_doc(i) for i in range(8)])
            found = observations.find_ids(Eq("status", "final"))
            assert sorted(observations.get(doc_id)["identifier"]
                          for doc_id in found) == EXPECTED["eq"]
            summary = blinder.integrity_audit()
            assert summary["shards"] == SHARDS
            assert summary["roots_checked"] > 0
            assert link.dropped == ["report", "audit_report"]
            assert blinder.runtime.transport.stats().retries == 2
        finally:
            cluster.close()
