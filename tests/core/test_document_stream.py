"""The document stream: one place where ids become documents.

Every document-bearing read — unordered ``find``, ``find_sorted``,
``min``/``max`` and the verifying ``find_ids`` — consumes
``PlanEngine._stream``.  These tests pin what follows from that: every
consumer equals the plaintext oracle (in order where order is defined)
on cache-admitted and non-admitted schemas under the seed and the
production pipelines; ordered and extreme reads are served from the
validated document cache exactly like ``find`` (and fail closed with
it); and a consumer that stops early stops the wire with it.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, Eq
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.integrity import IntegrityConfig
from repro.keys.hsm import SimulatedHsm
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport
from repro.obs.wire import merged
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics

from tests.core.test_planner import SlowGetMany

DOCS = [
    {
        "_id": f"d{i:03d}",
        "kind": ["hr", "bp"][i % 2],
        "effective": i * 7 % 40,      # distinct for i < 40
        "note": f"note {i}",
    }
    for i in range(40)
]


def schema_for(admitted: bool) -> Schema:
    fields = dict(
        kind=("string", FieldAnnotation.parse("C4", "I,EQ")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG", "min,max")),
        note="string",
    )
    if not admitted:
        # One C1 field keeps the whole schema out of the plaintext caches.
        fields["secret"] = ("string", FieldAnnotation.parse("C1", "I"))
    return Schema.define("rec", **fields)


def deploy(pipeline: PipelineConfig, admitted: bool = True,
           documents: list[dict] = DOCS, wrap=lambda transport: transport):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    if pipeline.sharding is not None:
        transport = CloudCluster(4, registry=registry).nodes()
    else:
        transport = wrap(InProcTransport(CloudZone(registry).host))
    blinder = DataBlinder("stream", transport, registry=registry,
                          pipeline=pipeline)
    blinder.register_schema(schema_for(admitted))
    entities = blinder.entities("rec")
    entities.insert_many([dict(document) for document in documents])
    return blinder, entities


def get_many_slots(blinder) -> int:
    """``get_many*`` slots shipped so far, over every endpoint."""
    cells = merged(blinder.runtime.transport.wire_cells().values())
    return sum(cell.slots for (_, method), cell in cells.items()
               if method.startswith("get_many"))


def by_effective(documents, descending=False):
    return sorted(documents, key=lambda d: d["effective"],
                  reverse=descending)


@pytest.fixture(scope="module", params=[
    pytest.param((pipeline, admitted), id=f"{name}-{label}")
    for name, pipeline in (("seed", PipelineConfig()),
                           ("production", PipelineConfig.production()))
    for label, admitted in (("admitted", True), ("not-admitted", False))
])
def deployment(request):
    pipeline, admitted = request.param
    return deploy(pipeline, admitted)


class TestConsumersEqualTheOracle:
    def test_find(self, deployment):
        _, entities = deployment
        assert entities.find() == sorted(DOCS, key=lambda d: d["_id"])
        hr = [d for d in DOCS if d["kind"] == "hr"]
        assert entities.find(Eq("kind", "hr")) == hr

    @pytest.mark.parametrize("limit", [1, 5, 100])
    def test_find_with_limit(self, deployment, limit):
        _, entities = deployment
        hr = [d for d in DOCS if d["kind"] == "hr"]
        assert entities.find(Eq("kind", "hr"), limit=limit) == hr[:limit]

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("limit", [None, 1, 3, 33])
    def test_find_sorted(self, deployment, limit, descending):
        _, entities = deployment
        expected = by_effective(DOCS, descending)[:limit]
        assert entities.find_sorted(
            "effective", limit=limit, descending=descending
        ) == expected

    @pytest.mark.parametrize("where", [None, Eq("kind", "bp"),
                                       Eq("kind", "nothing")])
    def test_min_max(self, deployment, where):
        _, entities = deployment
        values = [d["effective"] for d in DOCS
                  if where is None or d["kind"] == where.value]
        for function, oracle in ((Aggregate.MIN, min), (Aggregate.MAX, max)):
            got = entities.aggregate(
                AggregateQuery(function, "effective", where)
            )
            assert got == (oracle(values) if values else None)

    def test_verified_find_ids(self, deployment):
        blinder, _ = deployment
        executor = blinder._executor("rec")
        assert executor.find_ids(Eq("kind", "bp"), verify=True) == {
            d["_id"] for d in DOCS if d["kind"] == "bp"
        }

    def test_limit_zero_is_empty_on_both_paths(self, deployment):
        blinder, entities = deployment
        before = get_many_slots(blinder)
        assert entities.find(Eq("kind", "hr"), limit=0) == []
        assert entities.find(limit=0) == []
        assert entities.find_sorted("effective", limit=0) == []
        assert get_many_slots(blinder) == before


class TestOrderedReadsUseTheDocumentCache:
    """Fails at the parent of ISSUE 24, where ordered and extreme reads
    never consulted the document cache."""

    def test_sorted_prefix_is_served_from_cache(self):
        blinder, entities = deploy(PipelineConfig.production())
        first = entities.find_sorted("effective", limit=3)
        before = get_many_slots(blinder)
        second = entities.find_sorted("effective", limit=2)
        assert second == first[:2] == by_effective(DOCS)[:2]
        assert get_many_slots(blinder) == before

    def test_max_after_find_is_served_from_cache(self):
        blinder, entities = deploy(PipelineConfig.production())
        entities.find()
        before = get_many_slots(blinder)
        assert entities.aggregate(
            AggregateQuery(Aggregate.MAX, "effective")
        ) == 39
        assert get_many_slots(blinder) == before

    def test_all_hit_find_sends_no_get_many(self):
        blinder, entities = deploy(PipelineConfig.production())
        entities.find()
        before = get_many_slots(blinder)
        # A different shape, so the result cache cannot answer it.
        assert len(entities.find(Eq("kind", "hr"))) == 20
        assert get_many_slots(blinder) == before

    def test_moved_ledger_stamp_turns_hits_into_misses(self):
        """Fail closed: a write through another gateway moves the ledger
        stamp, and the cached documents are fetched (and verified) again
        — for ordered and extreme reads exactly as for ``find``."""
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        cloud = CloudZone(registry)
        hsm = SimulatedHsm()
        reader, writer = (
            DataBlinder(
                "stream", InProcTransport(cloud.host), registry=registry,
                keystore=KeyStore("stream", hsm=hsm),
                pipeline=PipelineConfig(integrity=IntegrityConfig(),
                                        cache=CacheConfig()),
            )
            for _ in range(2)
        )
        for blinder in (reader, writer):
            blinder.register_schema(schema_for(True))
        writer.entities("rec").insert_many(
            [dict(document) for document in DOCS]
        )
        entities = reader.entities("rec")
        entities.find()
        tier = reader.runtime.cache_tier

        def after_remote_write(value, read):
            writer.entities("rec").update("d039", {"effective": value})
            slots, mismatches = get_many_slots(reader), tier.stamp_mismatches
            result = read()
            assert get_many_slots(reader) > slots
            assert tier.stamp_mismatches > mismatches
            return result

        assert [d["effective"] for d in after_remote_write(
            99, lambda: entities.find_sorted("effective", limit=2,
                                             descending=True)
        )] == [99, 39]
        assert after_remote_write(100, lambda: entities.aggregate(
            AggregateQuery(Aggregate.MAX, "effective")
        )) == 100


class TestEarlyStop:
    def test_stopped_consumer_stops_the_wire(self):
        """200 candidates under ``limit=5`` are 13 chunks of 16 and the
        consumer stops inside the first: a bounded read does not
        prefetch, so exactly one ``get_many`` was sent and on return
        none runs.  An unbounded one overlaps all four chunks of 64."""
        documents = [
            {"_id": f"e{i:03d}", "kind": "hr", "effective": i, "note": ""}
            for i in range(200)
        ]
        wire = {}

        def slow(inner):
            wire["get_many"] = SlowGetMany(inner, delay=0.01)
            return wire["get_many"]

        _, entities = deploy(
            PipelineConfig(prefetch=True, fanout_workers=2),
            documents=documents, wrap=slow,
        )
        assert entities.find(limit=5) == documents[:5]
        assert wire["get_many"].in_flight == 0
        assert wire["get_many"].total == 1
        assert entities.find() == documents
        assert wire["get_many"].in_flight == 0
        assert wire["get_many"].total == 1 + 4
