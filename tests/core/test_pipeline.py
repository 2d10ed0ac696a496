"""Batched writes, parallel fan-out and prefetch through the executor.

Every test compares a pipelined deployment against the unbatched
baseline: identical results, fewer (or equally many) wire frames.
"""

import copy

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import And, Eq, Not, Or, Range
from repro.core.registry import TacticRegistry
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema, observation_schema
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport, TransportLayer
from repro.tactics import register_builtin_tactics

FULL_PIPELINE = PipelineConfig(batch_writes=True, fanout_workers=4,
                               prefetch=True)


def make_deployment(pipeline=None, schema=None, transport_wrapper=None):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    transport = InProcTransport(cloud.host)
    outer = transport_wrapper(transport) if transport_wrapper else transport
    blinder = DataBlinder("testapp", outer, registry=registry,
                          pipeline=pipeline)
    blinder.register_schema((schema or observation_schema)())
    return blinder.entities("observation"), transport


def documents(count=8, seed=7):
    generator = MedicalDataGenerator(seed)
    return [o.to_document() for o in
            generator.observations(count, cohort_size=3)]


class TestBatchedWrites:
    def test_multi_field_insert_is_one_frame(self):
        entities, transport = make_deployment(
            PipelineConfig(batch_writes=True),
            schema=benchmark_observation_schema,
        )
        before = transport.stats().messages_sent
        entities.insert(documents(1)[0])
        # 8 tactic index writes + the document-store write: one frame.
        assert transport.stats().messages_sent - before == 1

    def test_unbatched_insert_stays_per_rpc(self):
        entities, transport = make_deployment(
            schema=benchmark_observation_schema
        )
        before = transport.stats().messages_sent
        entities.insert(documents(1)[0])
        # The baseline still pays one round trip per index write.
        assert transport.stats().messages_sent - before == 9

    def test_insert_many_is_one_frame(self):
        entities, transport = make_deployment(
            PipelineConfig(batch_writes=True),
            schema=benchmark_observation_schema,
        )
        before = transport.stats().messages_sent
        entities.insert_many(documents(5))
        assert transport.stats().messages_sent - before == 1

    def test_update_is_two_frames(self):
        entities, transport = make_deployment(
            PipelineConfig(batch_writes=True),
            schema=benchmark_observation_schema,
        )
        doc_id = entities.insert(documents(1)[0])
        before = transport.stats().messages_sent
        entities.update(doc_id, {"status": "amended"})
        # One read of the old document + one batch of every write.
        assert transport.stats().messages_sent - before == 2

    def test_delete_is_two_frames_and_returns_bool(self):
        entities, transport = make_deployment(
            PipelineConfig(batch_writes=True),
            schema=benchmark_observation_schema,
        )
        doc_id = entities.insert(documents(1)[0])
        before = transport.stats().messages_sent
        assert entities.delete(doc_id) is True
        # One read + one batch whose final element is the result-bearing
        # document-store delete.
        assert transport.stats().messages_sent - before == 2
        assert entities.delete(doc_id) is False


class TestEquivalence:
    """The pipelined deployment is an optimisation, not a behaviour."""

    PREDICATES = [
        Eq("subject", None),  # subject filled per-dataset below
        And([Eq("status", "final"), Eq("code", "HR")]),
        Or([Eq("code", "HR"), Eq("code", "GLU")]),
        And([Eq("status", "final"),
             Or([Eq("code", "HR"), Eq("code", "GLU")])]),
        Not(Eq("status", "final")),
        And([Not(Eq("code", "HR")), Not(Eq("status", "amended"))]),
    ]

    def _predicates(self, docs):
        subject = docs[0]["subject"]
        predicates = list(self.PREDICATES)
        predicates[0] = Eq("subject", subject)
        return predicates

    def test_full_pipeline_matches_baseline(self):
        docs = documents(10)
        baseline, _ = make_deployment()
        pipelined, _ = make_deployment(FULL_PIPELINE)
        base_ids = baseline.insert_many(copy.deepcopy(docs))
        pipe_ids = pipelined.insert_many(copy.deepcopy(docs))

        for predicate in self._predicates(docs):
            base_found = {d["subject"] for d in baseline.find(predicate)}
            pipe_found = {d["subject"] for d in pipelined.find(predicate)}
            assert base_found == pipe_found, predicate

        # Point reads and full scans agree too.
        assert baseline.get(base_ids[0])["value"] == pytest.approx(
            pipelined.get(pipe_ids[0])["value"]
        )
        assert baseline.count() == pipelined.count() == len(docs)

    def test_update_and_delete_equivalence(self):
        docs = documents(4)
        baseline, _ = make_deployment()
        pipelined, _ = make_deployment(FULL_PIPELINE)
        base_ids = baseline.insert_many(copy.deepcopy(docs))
        pipe_ids = pipelined.insert_many(copy.deepcopy(docs))

        baseline.update(base_ids[0], {"status": "amended", "value": 1.5})
        pipelined.update(pipe_ids[0], {"status": "amended", "value": 1.5})
        assert baseline.get(base_ids[0])["status"] == "amended"
        assert pipelined.get(pipe_ids[0])["status"] == "amended"
        assert (baseline.find_ids(Eq("status", "amended")) ==
                {base_ids[0]})
        assert (pipelined.find_ids(Eq("status", "amended")) ==
                {pipe_ids[0]})

        assert baseline.delete(base_ids[1]) is True
        assert pipelined.delete(pipe_ids[1]) is True
        assert baseline.count() == pipelined.count() == len(docs) - 1

    def test_range_queries_with_fanout(self):
        docs = documents(12)
        baseline, _ = make_deployment()
        pipelined, _ = make_deployment(FULL_PIPELINE)
        baseline.insert_many(copy.deepcopy(docs))
        pipelined.insert_many(copy.deepcopy(docs))
        issued = sorted(d["issued"] for d in docs)
        predicate = And([
            Range("issued", issued[2], issued[-3]),
            Or([Eq("status", "final"), Eq("status", "amended")]),
        ])
        assert ({d["id"] for d in baseline.find(predicate)} ==
                {d["id"] for d in pipelined.find(predicate)})


class SpyTransport(TransportLayer):
    """Counts (service, method) pairs crossing the zone boundary."""

    def __init__(self, inner):
        super().__init__(inner)
        self.methods = []

    def call_batch(self, requests):
        self.methods.extend((r.service, r.method) for r in requests)
        return self._inner.call_batch(requests)

    def count(self, method):
        return sum(1 for _, m in self.methods if m == method)


class TestAllIdsCache:
    def _deployment(self, pipeline=None):
        spies = []

        def wrap(transport):
            spy = SpyTransport(transport)
            spies.append(spy)
            return spy

        entities, _ = make_deployment(pipeline, transport_wrapper=wrap)
        return entities, spies[0]

    def test_all_ids_fetched_once_per_evaluation(self):
        entities, spy = self._deployment()
        entities.insert_many(documents(6))
        spy.methods.clear()
        # Two negated literals in two clauses: both need the universe,
        # but one evaluation fetches it once.
        entities.find_ids(And([Not(Eq("status", "final")),
                               Not(Eq("code", "HR"))]))
        assert spy.count("all_ids") == 1

    def test_all_ids_fetched_once_with_fanout(self):
        entities, spy = self._deployment(
            PipelineConfig(fanout_workers=4)
        )
        entities.insert_many(documents(6))
        spy.methods.clear()
        entities.find_ids(And([Not(Eq("status", "final")),
                               Not(Eq("code", "HR"))]))
        assert spy.count("all_ids") == 1

    def test_cache_does_not_leak_across_evaluations(self):
        entities, spy = self._deployment()
        ids = entities.insert_many(documents(6))
        spy.methods.clear()
        assert entities.find_ids(Not(Eq("status", "no-such"))) == set(ids)
        entities.delete(ids[0])
        # A later evaluation sees the post-delete universe.
        found = entities.find_ids(Not(Eq("status", "no-such")))
        assert found == set(ids[1:])


class TestPrefetch:
    def test_prefetch_returns_all_chunks(self):
        # find() fetches get_many in chunks of 64: 70 documents force
        # the prefetch path to pipeline a second chunk.
        docs = documents(70)
        pipelined, _ = make_deployment(
            PipelineConfig(prefetch=True, fanout_workers=2),
            schema=benchmark_observation_schema,
        )
        pipelined.insert_many(copy.deepcopy(docs))
        found = pipelined.find()
        assert len(found) == len(docs)
        assert ({d["id"] for d in found} == {d["id"] for d in docs})

    def test_prefetch_respects_limit(self):
        docs = documents(40)
        pipelined, _ = make_deployment(
            PipelineConfig(prefetch=True, fanout_workers=2),
            schema=benchmark_observation_schema,
        )
        pipelined.insert_many(copy.deepcopy(docs))
        assert len(pipelined.find(limit=5)) == 5
