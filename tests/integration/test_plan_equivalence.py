"""Plan-vs-seed equivalence: every read operation answered through the
query planner must match the pre-planner executor read path byte for
byte.  ``LegacyReadPath`` is a verbatim port of the seed's monolithic
``SchemaExecutor`` read methods, kept as the oracle."""

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.legacy import LegacyReadPath
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, And, Eq, Not, Or, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics


def build(pipeline=None):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    if pipeline is not None and pipeline.sharding is not None:
        transport = CloudCluster(4, registry=registry).nodes()
    else:
        transport = InProcTransport(CloudZone(registry).host)
    blinder = DataBlinder("equiv", transport, registry=registry,
                          pipeline=pipeline)
    schema = Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        kind=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        patient=("string", FieldAnnotation.parse("C2", "I,EQ")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG", "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )
    blinder.register_schema(schema)
    entities = blinder.entities("obs")
    entities.insert_many([
        {
            "status": ["final", "draft", "amended"][i % 3],
            "kind": ["hr", "bp"][i % 2],
            "patient": f"p{i % 5}",
            "effective": i * 3 % 50,
            "value": float(i % 7),
            "note": f"note {i}",
        }
        for i in range(36)
    ])
    executor = blinder._executor("obs")
    return executor, entities, blinder


PREDICATES = [
    None,
    Eq("status", "final"),
    Eq("patient", "p2"),
    Eq("note", "note 4"),          # plaintext field
    Eq("status", "missing-value"),
    Range("effective", 10, 30),
    Range("effective", low=40),
    Range("effective", high=5),
    And([Eq("status", "final"), Eq("kind", "hr")]),
    And([Eq("status", "final"), Range("effective", 0, 25)]),
    Or([Eq("status", "draft"), Eq("patient", "p1")]),
    Or([Range("effective", 0, 10), Range("effective", 40, 50)]),
    Not(Eq("status", "final")),
    And([Or([Eq("kind", "hr"), Eq("kind", "bp")]),
         Not(Range("effective", 20, 50))]),
]


def doc_key(doc):
    return doc["_id"] if "_id" in doc else tuple(sorted(doc.items()))


@pytest.fixture(scope="module", params=[
    pytest.param(None, id="defaults"),
    pytest.param(
        PipelineConfig(batch_writes=True, fanout_workers=4,
                       prefetch=True),
        id="pipelined",
    ),
    pytest.param(PipelineConfig.production(), id="production"),
])
def deployment(request):
    return build(request.param)


class TestReadEquivalence:
    @pytest.mark.parametrize("idx", range(len(PREDICATES)))
    def test_find_matches_seed_path(self, deployment, idx):
        executor, entities, _ = deployment
        predicate = PREDICATES[idx]
        legacy = LegacyReadPath(executor)
        new = entities.find(predicate)
        old = legacy.find(predicate)
        assert sorted(map(doc_key, new)) == sorted(map(doc_key, old))

    @pytest.mark.parametrize("idx", range(len(PREDICATES)))
    def test_find_ids_and_count_match_seed_path(self, deployment, idx):
        executor, entities, _ = deployment
        predicate = PREDICATES[idx]
        legacy = LegacyReadPath(executor)
        assert entities.find_ids(predicate) == legacy.find_ids(predicate)
        assert entities.count(predicate) == legacy.count(predicate)

    def test_limit_matches_seed_path(self, deployment):
        executor, entities, _ = deployment
        legacy = LegacyReadPath(executor)
        for limit in (1, 5, 100):
            new = entities.find(Eq("kind", "hr"), limit=limit)
            old = legacy.find(Eq("kind", "hr"), limit=limit)
            assert len(new) == len(old)
            assert {doc_key(d) for d in new} <= {
                doc_key(d) for d in legacy.find(Eq("kind", "hr"))
            }

    def test_unverified_find_matches_seed_path(self, deployment):
        executor, entities, _ = deployment
        legacy = LegacyReadPath(executor)
        predicate = Range("effective", 12, 33)
        new = entities.find(predicate, verify=False)
        old = legacy.find(predicate, verify=False)
        assert sorted(map(doc_key, new)) == sorted(map(doc_key, old))

    @pytest.mark.parametrize("function,field,where", [
        (Aggregate.SUM, "value", None),
        (Aggregate.AVG, "value", Eq("status", "final")),
        (Aggregate.COUNT, "value", Range("effective", 5, 35)),
        (Aggregate.MIN, "effective", None),
        (Aggregate.MAX, "effective", Eq("kind", "bp")),
        (Aggregate.MIN, "effective", Eq("status", "missing-value")),
    ])
    def test_aggregates_match_seed_path(self, deployment, function,
                                        field, where):
        executor, entities, _ = deployment
        legacy = LegacyReadPath(executor)
        query = AggregateQuery(function, field, where)
        assert entities.aggregate(query) == pytest.approx(
            legacy.aggregate(query)
        )

    @pytest.mark.parametrize("limit,descending", [
        (None, False), (None, True), (10, False), (3, True),
    ])
    def test_find_sorted_matches_seed_path(self, deployment, limit,
                                           descending):
        executor, entities, _ = deployment
        legacy = LegacyReadPath(executor)
        new = entities.find_sorted("effective", limit=limit,
                                   descending=descending)
        old = legacy.find_sorted("effective", limit=limit,
                                 descending=descending)
        assert [d["effective"] for d in new] == [
            d["effective"] for d in old
        ]
        assert len(new) == len(old)

    def test_equivalence_survives_mutation(self, deployment):
        executor, entities, _ = deployment
        legacy = LegacyReadPath(executor)
        doc_id = entities.insert({
            "status": "final", "kind": "hr", "patient": "p9",
            "effective": 49, "value": 2.5, "note": "mutant",
        })
        entities.update(doc_id, {"status": "amended", "effective": 48})
        for predicate in (Eq("status", "amended"), Eq("patient", "p9"),
                          Range("effective", 45, 49)):
            assert entities.find_ids(predicate) == legacy.find_ids(
                predicate
            )
        entities.delete(doc_id)
        assert entities.find_ids(Eq("patient", "p9")) == legacy.find_ids(
            Eq("patient", "p9")
        )
