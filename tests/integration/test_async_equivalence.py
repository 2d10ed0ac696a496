"""Sync/async equivalence: operations admitted through the gateway's
event loop must be byte-identical to the thread-blocking ones.

Two sweeps:

* **Read equivalence** — every planner operation, over every predicate
  shape of the plan-equivalence suite, answered once by the classic
  sync ``Entities`` and once by ``AsyncEntities`` (and once more via
  the :class:`~repro.gateway.runtime.SyncGateway` façade) against the
  *same* stored corpus: results, ordering included, must match
  exactly, under both the baseline pipeline and the all-optimisations
  pipeline.

* **Write equivalence** — a write workload runs through the gateway
  runtime over a sharded cluster while every state-changing frame that
  reaches the router is recorded; the recording is then replayed by
  plain blocking router calls into a fresh identical cluster: per-zone
  :func:`~repro.analysis.snapshot.zone_fingerprint` digests must be
  byte-identical, including under replication.  The last case turns every
  layer on and keeps 32 operations of two principals in flight at
  once, which is where a scope that failed to follow an operation onto
  its worker would show.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, And, Eq, Not, Or, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.gateway.frontdoor import AuditLog, FrontDoor
from repro.gateway.runtime import SyncGateway
from repro.net.batch import PipelineConfig
from repro.net.resilience import ResilienceConfig
from repro.net.rpc import MUTATING_METHODS
from repro.net.transport import InProcTransport, TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics

APP = "asyncequiv"


def fresh_registry():
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


def obs_schema():
    return Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        kind=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        patient=("string", FieldAnnotation.parse("C2", "I,EQ")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                                "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )


def corpus():
    return [
        {
            "status": ["final", "draft", "amended"][i % 3],
            "kind": ["hr", "bp"][i % 2],
            "patient": f"p{i % 5}",
            "effective": i * 3 % 50,
            "value": float(i % 7),
            "note": f"note {i}",
        }
        for i in range(36)
    ]


def build(pipeline=None):
    registry = fresh_registry()
    cloud = CloudZone(registry)
    blinder = DataBlinder(APP, InProcTransport(cloud.host),
                          registry=registry, pipeline=pipeline)
    blinder.register_schema(obs_schema())
    entities = blinder.entities("obs")
    entities.insert_many(corpus())
    return blinder, entities


PREDICATES = [
    None,
    Eq("status", "final"),
    Eq("patient", "p2"),
    Eq("note", "note 4"),
    Eq("status", "missing-value"),
    Range("effective", 10, 30),
    Range("effective", low=40),
    And([Eq("status", "final"), Eq("kind", "hr")]),
    And([Eq("status", "final"), Range("effective", 5, 35)]),
    Or([Eq("status", "draft"), Eq("status", "amended")]),
    Or([Eq("kind", "bp"), Range("effective", 0, 9)]),
    Not(Eq("status", "final")),
    And([Or([Eq("status", "final"), Eq("status", "draft")]),
         Not(Eq("kind", "bp"))]),
]

PIPELINES = [
    pytest.param(None, id="baseline"),
    pytest.param(
        PipelineConfig(batch_writes=True, fanout_workers=4,
                       prefetch=True),
        id="optimised",
    ),
]


def gather_sync(entities):
    state = {}
    for index, predicate in enumerate(PREDICATES):
        state[("find", index)] = entities.find(predicate)
        state[("ids", index)] = sorted(entities.find_ids(predicate))
        state[("count", index)] = entities.count(predicate)
    state["sum"] = entities.sum("value")
    state["avg"] = entities.average("value",
                                    where=Eq("status", "final"))
    state["min"] = entities.min("effective")
    state["max"] = entities.max("effective")
    state["sorted"] = entities.find_sorted("effective", limit=10)
    state["limited"] = entities.find(Eq("kind", "hr"), limit=5)
    return state


def gather_async(aentities):
    async def main():
        state = {}
        for index, predicate in enumerate(PREDICATES):
            state[("find", index)] = await aentities.find(predicate)
            state[("ids", index)] = sorted(
                await aentities.find_ids(predicate)
            )
            state[("count", index)] = await aentities.count(predicate)
        state["sum"] = await aentities.sum("value")
        state["avg"] = await aentities.average(
            "value", where=Eq("status", "final")
        )
        state["min"] = await aentities.min("effective")
        state["max"] = await aentities.max("effective")
        state["sorted"] = await aentities.find_sorted("effective",
                                                      limit=10)
        state["limited"] = await aentities.find(Eq("kind", "hr"),
                                                limit=5)
        return state

    return asyncio.run(main())


class TestReadEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_async_entities_match_sync(self, pipeline):
        blinder, entities = build(pipeline)
        expected = gather_sync(entities)
        actual = gather_async(blinder.async_entities("obs"))
        assert actual == expected

    def test_concurrent_async_reads_match_sync(self):
        """The same sweep with every operation in flight at once."""
        blinder, entities = build(
            PipelineConfig(batch_writes=True, fanout_workers=4,
                           prefetch=True)
        )
        expected = [entities.find(p) for p in PREDICATES]
        aentities = blinder.async_entities("obs")

        async def main():
            return await asyncio.gather(
                *[aentities.find(p) for p in PREDICATES]
            )

        assert asyncio.run(main()) == expected

    def test_sync_facade_matches_plain_entities(self):
        blinder, entities = build(None)
        expected = gather_sync(entities)
        gateway = blinder.sync_gateway(principal="sweep")
        try:
            actual = gather_sync(gateway.entities("obs"))
        finally:
            gateway.close()
        assert actual == expected

    def test_async_write_path_round_trips(self):
        """Documents inserted/updated via the async write path read
        back identically through the sync path."""
        blinder, entities = build(PipelineConfig(batch_writes=True))
        aentities = blinder.async_entities("obs")

        async def main():
            doc_id = await aentities.insert({
                "status": "async", "kind": "hr", "patient": "px",
                "effective": 99, "value": 1.5, "note": "via loop",
            })
            more = await aentities.insert_many([
                {"status": "async", "kind": "bp", "patient": "py",
                 "effective": 98, "value": 2.5, "note": "bulk"},
            ])
            await aentities.update(doc_id, {"value": 7.5})
            return doc_id, more[0]

        doc_id, bulk_id = asyncio.run(main())
        assert entities.get(doc_id)["value"] == 7.5
        assert {d["_id"] for d in entities.find(Eq("status", "async"))} \
            == {doc_id, bulk_id}
        assert asyncio.run(
            blinder.async_entities("obs").delete(bulk_id)
        )
        assert entities.count(Eq("status", "async")) == 1


def may_mutate(request) -> bool:
    """Conservatively, whether a request may change zone state."""
    service, method = request.service, request.method
    if service.startswith("docs/"):
        return method not in (
            "get_many", "get_many_proven",
            "count", "all_ids", "find_plain", "find_text",
        )
    if service.startswith("tactic/"):
        return method in MUTATING_METHODS or method == "setup"
    return True


class RecordingTransport(TransportLayer):
    """Logs every state-changing frame that reaches the router.

    A mutating frame holds the lock across the inner call, so log order
    *is* application order however many gateway operations are in
    flight; reads pass through unlogged and unserialised (they change
    nothing the fingerprint covers).
    """

    def __init__(self, inner):
        super().__init__(inner)
        self._lock = threading.Lock()
        self.log = []

    def call_request(self, request):
        if not may_mutate(request):
            return self._inner.call_request(request)
        with self._lock:
            self.log.append(("call", request))
            return self._inner.call_request(request)

    def call_batch(self, requests):
        requests = list(requests)
        if not any(map(may_mutate, requests)):
            return self._inner.call_batch(requests)
        with self._lock:
            self.log.append(("batch", requests))
            return self._inner.call_batch(requests)

def fingerprints(cluster):
    return {
        name: zone_fingerprint(cluster.zone(name), APP)
        for name in cluster.names()
    }


def through_gateway(shards, config, pipeline, workload):
    """Run ``workload`` through the gateway runtime over a fresh
    sharded cluster; digest every zone and hand back the recording."""
    registry = fresh_registry()
    cluster = CloudCluster(shards, registry=registry)
    recorder = RecordingTransport(
        ShardedTransport(cluster.nodes(), config)
    )
    try:
        blinder = DataBlinder(APP, recorder, registry=registry,
                              verify_results=False, pipeline=pipeline,
                              resilience=ResilienceConfig())
        blinder.register_schema(obs_schema())
        runtime = blinder.async_runtime(front=FrontDoor(audit=AuditLog()))
        try:
            workload(blinder, runtime)
        finally:
            # Ordered shutdown joins the workers before the zones are
            # digested.
            runtime.close()
        return fingerprints(cluster), recorder.log
    finally:
        recorder.close()
        cluster.close()


def replay(log, shards, config):
    """Replay a recording by blocking router calls; digest every zone."""
    cluster = CloudCluster(shards, registry=fresh_registry())
    router = ShardedTransport(cluster.nodes(), config)
    try:
        for kind, payload in log:
            if kind == "batch":
                router.call_batch(list(payload))
            else:
                router.call_request(payload)
        return fingerprints(cluster)
    finally:
        router.close()
        cluster.close()


def sequential_writes(blinder, runtime):
    """Bulk insert, update and delete, one gateway operation at a time."""
    entities = SyncGateway(runtime, principal="writer").entities("obs")
    ids = entities.insert_many(corpus()[:10])
    entities.update(ids[2], {"status": "amended"})
    assert entities.delete(ids[7])


ALL_LAYERS = PipelineConfig.production()

PATIENTS = [f"p{i}" for i in range(5)]


def concurrent_mix(blinder, runtime):
    """32 operations of two principals, 16 in flight at once: 5 inserts
    and 3 aggregates each, then 5 two-clause CNF finds and 3 aggregates
    each.

    Both principals ask the *same* questions and no principal repeats
    one, so any result-cache hit would be a cross-principal one; the
    finds of one principal touch disjoint documents, so each has to
    fetch (and verify) its own.  Inserted documents match none of the
    read predicates, which keeps every read independent of how the
    operations interleave.  Finds wait for the inserts because a proven
    fetch that overlaps a write is a known integrity false alarm
    (benchmarks/e2e/README.md, finding 3) — not this suite's subject.
    """
    blinder.entities("obs").insert_many(corpus())
    finds = [
        ("find", And([Eq("patient", patient),
                      Or([Eq("status", "final"),
                          Eq("status", "draft")])]))
        for patient in PATIENTS
    ]
    aggregates = [
        ("aggregate", AggregateQuery(function, "value", where))
        for function in (Aggregate.SUM, Aggregate.AVG)
        for where in (Eq("status", "final"), Eq("status", "draft"),
                      Eq("kind", "hr"))
    ]
    inserts = [
        ("insert", {"status": "async", "kind": "new", "patient": "px",
                    "effective": 60 + i, "value": 9.5,
                    "note": f"fresh {i}"})
        for i in range(5)
    ]
    aentities = runtime.entities("obs")
    submitted, results = [], []
    for wave in (inserts + aggregates[:3], finds + aggregates[3:]):
        futures = [
            (principal, op, argument, runtime.submit(
                lambda op=op, argument=argument:
                    getattr(aentities, op)(argument),
                principal=principal, op=op,
            ))
            for principal in ("alice", "bob") for op, argument in wave
        ]
        results += [future.result(60) for *_, future in futures]
        submitted += futures
    assert len(submitted) == 32
    assert runtime.stats.snapshot()["peak_in_flight"] > 1

    # No cross-principal cache hit: every gateway read missed, and the
    # entries it left are keyed by the principal that submitted it.
    assert blinder.planner_stats("obs")["result_hits"] == 0
    by_principal = {}
    for _, principal, digest in blinder.runtime.cache_tier.results.keys():
        by_principal.setdefault(principal, set()).add(digest)
    assert set(by_principal) == {"alice", "bob"}
    assert by_principal["alice"] == by_principal["bob"]
    assert len(by_principal["alice"]) == len(finds + aggregates)

    # Results equal the blocking replay of the same reads.
    entities = blinder.entities("obs")
    for (_, op, argument, _), result in zip(submitted, results):
        if op == "insert":
            assert entities.get(result) == {**argument, "_id": result}
        else:
            assert result == getattr(entities, op)(argument)
            assert result not in (None, [])

    # Every audit record carries its own verification outcome: only a
    # find fetches (proven) documents.
    records = runtime.front.audit.records()
    assert len(records) == 32
    for record in records:
        assert record.outcome == "ok"
        assert record.verification == (
            "verified" if record.op == "find" else "unverified"
        ), record


#: (shards, replication, pipeline, workload)
BATCHED = PipelineConfig(batch_writes=True)
WRITE_CASES = [
    (1, 1, BATCHED, sequential_writes),
    (4, 1, BATCHED, sequential_writes),
    (4, 2, BATCHED, sequential_writes),
    (3, 3, BATCHED, sequential_writes),
    (4, 1, ALL_LAYERS, concurrent_mix),
]


class TestWriteFingerprintEquivalence:
    @pytest.mark.parametrize(
        "shards,replication,pipeline,workload", WRITE_CASES,
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_async_scatter_lands_identical_bytes(
        self, shards, replication, pipeline, workload
    ):
        config = ShardConfig(replication=replication)
        via_gateway, log = through_gateway(shards, config, pipeline,
                                           workload)
        assert any(kind == "batch" for kind, _ in log)
        assert replay(log, shards, config) == via_gateway
        if replication < shards:
            # Full replication makes every zone identical; otherwise
            # the corpus must actually have spread across the ring.
            assert len(set(via_gateway.values())) > 1
