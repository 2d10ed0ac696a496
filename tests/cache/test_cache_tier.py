"""Gateway read-cache tier behaviour: correctness before speed.

Every assertion here is about *transparency*: caching on must answer
exactly what caching off answers — across sync and async paths, after
local writes, per principal — while actually serving hits (asserted via
planner counters and wire-call counts), never storing plaintext for
schemas below the admission floor, and never writing a byte into the
untrusted zone.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cache import CacheConfig
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import And, Eq, Not, Or, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.errors import DocumentNotFound, RemoteError
from repro.gateway.runtime import SyncGateway
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport, Transport
from repro.tactics import register_builtin_tactics

APP = "cacheapp"


class CountingTransport(Transport):
    """Counts every wire round the gateway ships."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def _note(self) -> None:
        with self._lock:
            self.calls += 1

    def call_batch(self, requests):
        self._note()
        return self.inner.call_batch(requests)

    def stats(self):
        return self.inner.stats()

    def reset(self) -> None:
        with self._lock:
            self.calls = 0


def obs_schema() -> Schema:
    return Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        patient=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                                "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )


def corpus() -> list[dict]:
    return [
        {
            "status": ["final", "draft", "amended"][i % 3],
            "patient": f"p{i % 5}",
            "effective": i * 3 % 50,
            "value": float(i % 7),
            "note": f"note {i}",
        }
        for i in range(24)
    ]


def deploy(pipeline=None, cloud=None, registry=None, keystore=None,
           schema=None):
    if registry is None:
        registry = TacticRegistry()
        register_builtin_tactics(registry)
    if cloud is None:
        cloud = CloudZone(registry)
    transport = CountingTransport(InProcTransport(cloud.host))
    blinder = DataBlinder(APP, transport, registry=registry,
                          keystore=keystore, pipeline=pipeline)
    blinder.register_schema(schema or obs_schema())
    return blinder, cloud, transport


PREDICATES = [
    None,
    Eq("status", "final"),
    Eq("patient", "p2"),
    Eq("note", "note 4"),
    Eq("status", "missing-value"),
    Range("effective", 10, 30),
    And([Eq("status", "final"), Range("effective", 5, 35)]),
    Or([Eq("status", "draft"), Eq("status", "amended")]),
    Not(Eq("status", "final")),
]


def sweep(entities) -> dict:
    state = {}
    for index, predicate in enumerate(PREDICATES):
        state[("find", index)] = entities.find(predicate)
        state[("ids", index)] = sorted(entities.find_ids(predicate))
        state[("count", index)] = entities.count(predicate)
    state["sum"] = entities.sum("value")
    state["avg"] = entities.average("value", where=Eq("status", "final"))
    state["min"] = entities.min("effective")
    state["max"] = entities.max("effective")
    state["sorted"] = entities.find_sorted("effective", limit=10)
    state["limited"] = entities.find(Eq("status", "final"), limit=5)
    return state


def sweep_async(aentities) -> dict:
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
        state["limited"] = await aentities.find(Eq("status", "final"),
                                                limit=5)
        return state

    return asyncio.run(main())


class TestEquivalence:
    def test_cached_sweep_matches_uncached_deployment(self):
        plain, _, _ = deploy(None)
        cached, _, _ = deploy(PipelineConfig(cache=CacheConfig()))
        docs = corpus()
        plain.entities("obs").insert_many(docs)
        cached.entities("obs").insert_many(docs)

        def comparable(state):
            # Ids are random per deployment, and tie order inside a
            # result set can follow them — compare id-free multisets
            # (and value ladders for the ordered sweeps).
            out = {}
            for key, value in state.items():
                if key == "sorted":
                    out[key] = [doc["effective"] for doc in value]
                elif key == "limited":
                    out[key] = (len(value),
                                {doc["status"] for doc in value})
                elif isinstance(value, list) and value \
                        and isinstance(value[0], dict):
                    out[key] = sorted(
                        tuple(sorted(
                            (k, v) for k, v in doc.items() if k != "_id"
                        ))
                        for doc in value
                    )
                elif isinstance(key, tuple) and key[0] == "ids":
                    out[key] = len(value)
                else:
                    out[key] = value
            return out

        expected = comparable(sweep(plain.entities("obs")))
        first = comparable(sweep(cached.entities("obs")))
        second = comparable(sweep(cached.entities("obs")))
        assert first == expected
        assert second == expected
        stats = cached.planner_stats("obs")
        assert stats["result_hits"] > 0

    def test_repeat_sweep_is_wire_free_and_identical(self):
        blinder, _, transport = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        entities.insert_many(corpus())
        first = sweep(entities)
        transport.reset()
        second = sweep(entities)
        assert second == first
        # Without integrity there is no ledger to re-sync: a fully
        # repeated sweep is answered entirely from the gateway.
        assert transport.calls == 0

    def test_async_sweep_on_cached_gateway_matches_sync(self):
        blinder, _, _ = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        entities.insert_many(corpus())
        expected = sweep(entities)
        actual = sweep_async(blinder.async_entities("obs"))
        assert actual == expected

    def test_reads_never_mutate_the_untrusted_zone(self):
        blinder, cloud, _ = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        ids = entities.insert_many(corpus())
        before = zone_fingerprint(cloud, APP)
        sweep(entities)
        sweep(entities)
        for doc_id in ids[:5]:
            entities.get(doc_id)
        after = zone_fingerprint(cloud, APP)
        assert after == before


class TestReadYourWrites:
    def test_update_invalidates_cached_results_and_documents(self):
        blinder, _, _ = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        ids = entities.insert_many(corpus())
        target = ids[0]
        assert entities.get(target)["value"] is not None
        entities.find(Eq("status", "final"))
        entities.update(target, {"value": 424.0, "status": "final"})
        assert entities.get(target)["value"] == 424.0
        hit = [d for d in entities.find(Eq("status", "final"))
               if d["_id"] == target]
        assert hit and hit[0]["value"] == 424.0

    def test_delete_invalidates_cached_document(self):
        blinder, _, _ = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        ids = entities.insert_many(corpus())
        target = ids[0]
        entities.get(target)
        entities.delete(target)
        with pytest.raises((DocumentNotFound, RemoteError)):
            entities.get(target)

    def test_negative_entries_short_circuit_repeated_misses(self):
        blinder, _, transport = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        ids = entities.insert_many(corpus()[:3])
        with pytest.raises((DocumentNotFound, RemoteError)):
            entities.get("no-such-id")
        transport.reset()
        # Second miss is served from the negative entry: no wire round.
        with pytest.raises(DocumentNotFound):
            entities.get("no-such-id")
        assert transport.calls == 0
        # A positively cached document turns negative after its delete:
        # the first re-read pays the wire, the repeat is gateway-local.
        target = ids[0]
        entities.get(target)
        entities.delete(target)
        with pytest.raises((DocumentNotFound, RemoteError)):
            entities.get(target)
        transport.reset()
        with pytest.raises(DocumentNotFound):
            entities.get(target)
        assert transport.calls == 0

    def test_async_insert_is_visible_to_cached_sync_reads(self):
        blinder, _, _ = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        entities.insert_many(corpus())
        before = entities.count(Eq("status", "wired"))
        assert before == 0
        aentities = blinder.async_entities("obs")

        async def main():
            return await aentities.insert({
                "status": "wired", "patient": "p9", "effective": 1,
                "value": 9.0, "note": "async",
            })

        doc_id = asyncio.run(main())
        assert entities.count(Eq("status", "wired")) == 1
        assert entities.get(doc_id)["status"] == "wired"


class TestPrincipalScoping:
    def test_principals_do_not_share_result_entries(self):
        blinder, _, transport = deploy(PipelineConfig(cache=CacheConfig()))
        blinder.entities("obs").insert_many(corpus())
        runtime = blinder.async_runtime()
        try:
            alice = SyncGateway(runtime, principal="alice")
            bob = SyncGateway(runtime, principal="bob")
            predicate = Eq("status", "final")
            expected = alice.entities("obs").find(predicate)
            transport.reset()
            assert alice.entities("obs").find(predicate) == expected
            assert transport.calls == 0  # alice repeat: cache hit
            transport.reset()
            assert bob.entities("obs").find(predicate) == expected
            assert transport.calls > 0  # bob's first: own entry, own wire
        finally:
            runtime.close()


class TestLeakageAdmission:
    def secret_schema(self) -> Schema:
        return Schema.define(
            "secret",
            performer=("string", FieldAnnotation.parse("C1", "I")),
            status=("string", FieldAnnotation.parse("C4", "I,EQ")),
            note="string",
        )

    def test_c1_schema_is_refused_plaintext_caching(self):
        blinder, _, transport = deploy(
            PipelineConfig(cache=CacheConfig()),
            schema=self.secret_schema(),
        )
        tier = blinder.runtime.cache_tier
        assert tier is not None
        assert not tier.admits_plaintext("secret")
        entities = blinder.entities("secret")
        ids = entities.insert_many([
            {"performer": f"dr{i}", "status": "s", "note": f"n{i}"}
            for i in range(4)
        ])
        entities.find(Eq("status", "s"))
        transport.reset()
        entities.find(Eq("status", "s"))
        assert transport.calls > 0  # plaintext results never cached
        entities.get(ids[0])
        transport.reset()
        entities.get(ids[0])
        assert transport.calls > 0  # decrypted documents never cached
        snapshot = tier.snapshot()
        assert snapshot["documents"]["entries"] == 0
        assert blinder.planner_stats("secret")["result_hits"] == 0

    def test_id_only_results_still_cache_for_refused_schema(self):
        blinder, _, transport = deploy(
            PipelineConfig(cache=CacheConfig()),
            schema=self.secret_schema(),
        )
        entities = blinder.entities("secret")
        entities.insert_many([
            {"performer": f"dr{i}", "status": "s", "note": f"n{i}"}
            for i in range(4)
        ])
        assert entities.count(Eq("status", "s")) == 4
        ids = entities.find_ids(Eq("status", "s"))
        transport.reset()
        assert entities.count(Eq("status", "s")) == 4
        assert entities.find_ids(Eq("status", "s")) == ids
        assert transport.calls == 0  # no field plaintext: admissible

    def test_raised_floor_refuses_lower_classes(self):
        # The floor sits one class above C1: a C1 field is refused, a
        # schema whose strictest field is C2 is admitted.
        blinder, _, _ = deploy(
            PipelineConfig(cache=CacheConfig()),
            schema=self.secret_schema(),
        )
        blinder.register_schema(Schema.define(
            "routine",
            performer=("string", FieldAnnotation.parse("C2", "I")),
            note="string",
        ))
        tier = blinder.runtime.cache_tier
        assert not tier.admits_plaintext("secret")
        assert tier.admits_plaintext("routine")


class TestExplainFooter:
    def test_footer_reports_levels_and_admission(self):
        blinder, _, _ = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        entities.insert_many(corpus())
        predicate = Eq("status", "final")
        entities.find(predicate)
        entities.find(predicate)
        text = blinder.explain("obs", predicate)
        assert "Cache:" in text
        assert "results on" in text
        assert "admitted" in text

    def test_footer_absent_when_caching_is_off(self):
        blinder, _, _ = deploy(None)
        entities = blinder.entities("obs")
        entities.insert_many(corpus()[:6])
        text = blinder.explain("obs", Eq("status", "final"))
        assert "Cache:" not in text


class TestTokenCaches:
    def test_repeat_trapdoors_are_memoised(self):
        blinder, _, _ = deploy(PipelineConfig(cache=CacheConfig()))
        entities = blinder.entities("obs")
        entities.insert_many(corpus())
        for _ in range(3):
            entities.find(Eq("status", "draft"))
            entities.count(Eq("value", 2.0))
        stats = blinder.runtime.kernels.token_cache_stats()
        assert stats["caches"] >= 1
        assert stats["hits"] > 0
