"""Plan-vs-oracle equivalence: every read operation answered through
the query planner must equal what plain evaluation over the documents
the test inserted answers — ``evaluate_plain`` for predicates, plain
sum/avg/min/max for aggregates, a plain sort for ``find_sorted`` — on
the defaults, the pipelined path and the production stack.  The seed's
read path answered exactly these plain semantics, hence the
``*_seed_path`` test names."""

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import (
    AggregateQuery,
    And,
    Eq,
    Not,
    Or,
    Range,
    evaluate_plain,
)
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
    documents = [
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
    for doc_id, document in zip(entities.insert_many(documents),
                                documents):
        document["_id"] = doc_id
    return entities, documents


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


def matching(documents, predicate):
    """The plaintext oracle: the inserted documents ``predicate`` selects."""
    return [d for d in documents
            if predicate is None or evaluate_plain(predicate, d)]


def by_id(documents):
    return sorted(documents, key=lambda d: d["_id"])


def plain_aggregate(documents, query):
    values = [d[query.field] for d in matching(documents, query.where)]
    if query.function is Aggregate.COUNT:
        return len(values)
    if not values:
        return None
    return {
        Aggregate.SUM: sum, Aggregate.MIN: min, Aggregate.MAX: max,
        Aggregate.AVG: lambda vs: sum(vs) / len(vs),
    }[query.function](values)


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
        entities, documents = deployment
        predicate = PREDICATES[idx]
        assert by_id(entities.find(predicate)) == by_id(
            matching(documents, predicate)
        )

    @pytest.mark.parametrize("idx", range(len(PREDICATES)))
    def test_find_ids_and_count_match_seed_path(self, deployment, idx):
        entities, documents = deployment
        predicate = PREDICATES[idx]
        expected = {d["_id"] for d in matching(documents, predicate)}
        assert entities.find_ids(predicate) == expected
        assert entities.count(predicate) == len(expected)

    def test_limit_matches_seed_path(self, deployment):
        entities, documents = deployment
        expected = {d["_id"] for d in matching(documents, Eq("kind", "hr"))}
        for limit in (1, 5, 100):
            new = entities.find(Eq("kind", "hr"), limit=limit)
            assert len(new) == min(limit, len(expected))
            assert {d["_id"] for d in new} <= expected

    def test_unverified_find_matches_seed_path(self, deployment):
        entities, documents = deployment
        predicate = Range("effective", 12, 33)
        assert by_id(entities.find(predicate, verify=False)) == by_id(
            matching(documents, predicate)
        )

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
        entities, documents = deployment
        query = AggregateQuery(function, field, where)
        assert entities.aggregate(query) == pytest.approx(
            plain_aggregate(documents, query)
        )

    @pytest.mark.parametrize("limit,descending", [
        (None, False), (None, True), (10, False), (3, True),
    ])
    def test_find_sorted_matches_seed_path(self, deployment, limit,
                                            descending):
        entities, documents = deployment
        new = entities.find_sorted("effective", limit=limit,
                                   descending=descending)
        expected = sorted((d["effective"] for d in documents),
                          reverse=descending)[:limit]
        assert [d["effective"] for d in new] == expected
        assert len(new) == len(expected)

    def test_equivalence_survives_mutation(self, deployment):
        entities, documents = deployment
        mutant = {
            "status": "final", "kind": "hr", "patient": "p9",
            "effective": 49, "value": 2.5, "note": "mutant",
        }
        doc_id = entities.insert(mutant)
        entities.update(doc_id, {"status": "amended", "effective": 48})
        current = documents + [
            {**mutant, "_id": doc_id, "status": "amended", "effective": 48}
        ]
        for predicate in (Eq("status", "amended"), Eq("patient", "p9"),
                          Range("effective", 45, 49)):
            assert entities.find_ids(predicate) == {
                d["_id"] for d in matching(current, predicate)
            }
        entities.delete(doc_id)
        assert entities.find_ids(Eq("patient", "p9")) == set()
