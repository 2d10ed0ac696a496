"""Co-located finds: one per-shard scatter for DET/blind-index/OPE/ORE.

A ``find`` over one lookup on a tactic declaring ``colocated_lookup``
compiles to ``ColocatedFetch``: each shard resolves the token on its own
tactic half and returns the documents of its first chunk of matches in
the same reply.  These tests pin that the results equal the plaintext
oracle on every topology the router knows (one node, four, replicas,
mid-reshard in both move orders), that a bounded read still completes
through ``get_many`` when verification drops the first chunk, that
document-cache hits keep their meaning, that the cloud learns the same
token and ids per shard as on the two-trip path, and that a DET find
costs one scatter while a cold Mitra find still costs two.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.observer import ObservedTransport
from repro.cache import CacheConfig
from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.planner import ir
from repro.core.planner.engine import Run
from repro.core.query import And, Eq, Range, evaluate_plain
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.integrity import IntegrityConfig
from repro.net.batch import PipelineConfig
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

from tests.shard.test_router import assert_index_entries_colocate

APP = "colocapp"
DOCS = f"docs/{APP}"


def registry(*without: str) -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    for name in without:
        registry.unregister(name)
    return registry


def schema() -> Schema:
    """status: DET (blind-index without DET); score: OPE (ORE without
    OPE); tag: Mitra, the two-trip control."""
    return Schema.define(
        "rec",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        score=("int", FieldAnnotation.parse("C5", "I,RG")),
        tag=("string", FieldAnnotation.parse("C2", "I,EQ")),
        note="string",
    )


def corpus(count: int = 40) -> list[dict]:
    return [
        {"_id": f"r{i:03d}", "status": ("final", "draft", "amended")[i % 3],
         "score": (i * 7) % 50, "tag": f"t{i % 4}", "note": f"n{i}"}
        for i in range(count)
    ]


def deploy(nodes: int = 4, replication: int = 1, without=(),
           pipeline: PipelineConfig | None = None, wrap=None):
    reg = registry(*without)
    cluster = CloudCluster(nodes, registry=reg)
    members = cluster.nodes()
    if wrap is not None:
        members = [(name, wrap(transport)) for name, transport in members]
    router = ShardedTransport(
        members, ShardConfig(replication=replication)
    )
    blinder = DataBlinder(
        APP, router, registry=reg,
        pipeline=pipeline or PipelineConfig(integrity=IntegrityConfig()),
    )
    blinder.register_schema(schema())
    return cluster, router, blinder


def oracle(documents: list[dict], predicate) -> list[str]:
    return sorted(d["_id"] for d in documents
                  if evaluate_plain(predicate, d))


QUERIES = [
    Eq("status", "final"),
    Eq("status", "missing"),
    Range("score", 10, 30),
    Range("score", None, 5),
    Eq("tag", "t1"),
    And([Eq("status", "draft"), Range("score", 0, 25)]),
]


def assert_matches_oracle(entities, documents) -> None:
    for predicate in QUERIES:
        found = entities.find(predicate)
        assert sorted(d["_id"] for d in found) == oracle(documents,
                                                         predicate)
        for document in found:
            assert document == next(d for d in documents
                                    if d["_id"] == document["_id"])
        for limit in (1, 3):
            bounded = entities.find(predicate, limit=limit)
            assert [d["_id"] for d in bounded] \
                == oracle(documents, predicate)[:limit]


def colocated_nodes(blinder, predicate) -> list[str]:
    plan = blinder._executor("rec").explain_plan(
        operation="find", predicate=predicate)
    return [node.kind for node, _ in ir.walk(plan.root)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("nodes", [1, 4])
    @pytest.mark.parametrize("without", [(), ("det", "ope")],
                             ids=["det-ope", "blind-index-ore"])
    def test_results_equal_the_oracle(self, nodes, without):
        cluster, router, blinder = deploy(nodes, without=without)
        try:
            entities = blinder.entities("rec")
            documents = corpus()
            entities.insert_many([dict(d) for d in documents])
            assert "ColocatedFetch" in colocated_nodes(
                blinder, Eq("status", "final"))
            assert "ColocatedFetch" in colocated_nodes(
                blinder, Range("score", 1, 2))
            assert_matches_oracle(entities, documents)
        finally:
            router.close()

    def test_replicated_ring(self):
        cluster, router, blinder = deploy(3, replication=2)
        try:
            entities = blinder.entities("rec")
            documents = corpus()
            entities.insert_many([dict(d) for d in documents])
            assert_matches_oracle(entities, documents)
        finally:
            router.close()

    def test_writes_between_finds(self):
        cluster, router, blinder = deploy(4)
        try:
            entities = blinder.entities("rec")
            documents = corpus()
            entities.insert_many([dict(d) for d in documents])
            entities.update("r003", {"status": "final", "score": 11})
            entities.delete("r006")
            documents = [d for d in documents if d["_id"] != "r006"]
            changed = next(d for d in documents if d["_id"] == "r003")
            changed.update(status="final", score=11)
            assert_matches_oracle(entities, documents)
        finally:
            router.close()


class TestMidReshard:
    """The index entry and its document on different shards: the id
    comes back without a document and ``get_many`` completes it."""

    @staticmethod
    def _move_entry(source, target, doc_id, value_service):
        token = source.call(value_service, "retrieve", doc_id=doc_id)
        target.call(value_service, "insert", doc_id=doc_id, token=token)
        source.call(value_service, "delete", doc_id=doc_id, token=token)

    @staticmethod
    def _move_document(source, target, doc_id):
        stored = source.call(DOCS, "get_many", doc_ids=[doc_id])
        target.call(DOCS, "insert_many", documents=stored)
        source.call(DOCS, "delete", doc_id=doc_id)

    @pytest.mark.parametrize("first", ["entry", "document"])
    def test_half_moved_documents_are_found(self, first):
        cluster, router, blinder = deploy(
            3, pipeline=PipelineConfig())
        entities = blinder.entities("rec")
        documents = corpus()
        entities.insert_many([dict(d) for d in documents])
        old_nodes = router.node_names()
        name, transport = cluster.add_zone("zone-3")
        router.begin_join(name, transport)
        try:
            ring = HashRing.from_spec(router.ring_spec())
            moving = [d["_id"] for d in documents
                      if ring.owner(d["_id"]) == name]
            assert moving
            service = next(s for s in router.tactic_services()
                           if s.endswith("rec.status/det"))
            for doc_id in moving:
                source = next(
                    router.node_transport(node) for node in old_nodes
                    if doc_id in router.node_transport(node).call(
                        DOCS, "all_ids")
                )
                if first == "entry":
                    self._move_entry(source, transport, doc_id, service)
                else:
                    self._move_document(source, transport, doc_id)
            for value in ("final", "draft", "amended"):
                predicate = Eq("status", value)
                assert sorted(d["_id"] for d in entities.find(predicate)) \
                    == oracle(documents, predicate)
        finally:
            router.finish_migration()
            router.close()


class TestBoundedVerify:
    @pytest.mark.parametrize("nodes", [1, 4])
    def test_verify_drops_the_first_chunk(self, nodes):
        """Stale entries fill every shard's first chunk: verification
        drops them, and the limit is met through ``get_many``."""
        cluster, router, blinder = deploy(nodes)
        try:
            entities = blinder.entities("rec")
            stale = [{"_id": f"a{i:03d}", "status": "draft", "score": 1,
                      "tag": "t0", "note": ""} for i in range(20 * nodes)]
            live = [{"_id": f"b{i:03d}", "status": "final", "score": 2,
                     "tag": "t0", "note": ""} for i in range(6)]
            entities.insert_many(stale + live)
            executor = blinder._executor("rec")
            det = executor.lookup_instance("status", "eq", "det")
            token = det.eq_args("final")["token"]
            for document in stale:  # index entries no longer true
                router.call(det.ctx.service, "insert",
                            doc_id=document["_id"], token=token)
            found = entities.find(Eq("status", "final"), limit=3)
            assert [d["_id"] for d in found] == ["b000", "b001", "b002"]
            timings = blinder.planner_stats("rec")["node_timings"]
            assert timings["ColocatedFetch:det"]["calls"] == 1
            assert timings["FetchDocs:docs"]["calls"] >= 1
        finally:
            router.close()


def hot_schema() -> Schema:
    """The e2e ``hot_read_zipf`` schema: every field >= C2, so the cache
    tier admits plaintext; ``status`` is DET, ``effective`` OPE."""
    return Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        patient=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                                "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )


class TestDocumentCache:
    def test_cache_hits_keep_their_meaning(self):
        reg = registry()
        cluster = CloudCluster(4, registry=reg)
        router = ShardedTransport(cluster.nodes(), ShardConfig())
        blinder = DataBlinder(
            APP, router, registry=reg,
            pipeline=PipelineConfig(integrity=IntegrityConfig(),
                                    cache=CacheConfig()),
        )
        blinder.register_schema(hot_schema())
        try:
            entities = blinder.entities("obs")
            documents = [
                {"_id": f"h{i:03d}", "status": ("final", "draft")[i % 2],
                 "patient": f"p{i % 5}", "effective": i,
                 "value": float(i), "note": f"n{i}"}
                for i in range(40)
            ]
            entities.insert_many([dict(d) for d in documents])
            tier = blinder.runtime.cache_tier
            wide = Range("effective", 0, 29)
            assert "ColocatedFetch" in [
                node.kind for node, _ in ir.walk(
                    blinder._executor("obs").explain_plan(
                        operation="find", predicate=wide).root)]
            assert sorted(d["_id"] for d in entities.find(wide)) \
                == oracle(documents, wide)
            hits = tier.snapshot()["documents"]["hits"]
            predicate = Eq("status", "final")
            found = entities.find(predicate)
            assert sorted(d["_id"] for d in found) \
                == oracle(documents, predicate)
            # Every match the range find cached is a hit; the rest come
            # from the co-located reply.
            cached = set(oracle(documents, wide))
            assert tier.snapshot()["documents"]["hits"] - hits == len(
                cached & set(oracle(documents, predicate)))
            # A write drops the written id: its next read is a miss
            # served from the co-located reply, the others still hit.
            entities.update("h000", {"note": "changed"})
            found = entities.find(Eq("status", "final"), limit=3)
            assert [d["_id"] for d in found] == ["h000", "h002", "h004"]
            assert found[0]["note"] == "changed"
        finally:
            router.close()


class TestWhatTheCloudLearns:
    def test_each_shard_sees_the_same_token_and_ids(self):
        """Per shard, the co-located find shows the tactic half the same
        token and the same id set as the lookup-then-fetch path."""
        taps: list[ObservedTransport] = []

        def wrap(transport):
            taps.append(ObservedTransport(transport))
            return taps[-1]

        cluster, router, blinder = deploy(4, wrap=wrap)
        try:
            entities = blinder.entities("rec")
            entities.insert_many(corpus())
            entities.find(Eq("tag", "t0"))  # settles the ledger sync
            predicate = Eq("status", "final")
            executor = blinder._executor("rec")
            plan = executor.explain_plan(operation="find",
                                        predicate=predicate)
            composite = next(node for node, _ in ir.walk(plan.root)
                             if isinstance(node, ir.ColocatedFetch))
            _, _, values = executor._operation("find", predicate)
            two_trip = ir.Decrypt(ir.FetchDocs(composite.lookup, 64))

            def transcript(run) -> list[tuple[frozenset, frozenset]]:
                marks = [tap.last_sequence for tap in taps]
                run()
                seen = []
                for tap, mark in zip(taps, marks):
                    calls = [c for c in tap.transcript.calls
                             if c.sequence > mark
                             and not c.service.startswith("integrity/")]
                    seen.append((
                        frozenset().union(*(c.artifacts for c in calls)),
                        frozenset().union(*(c.identifiers
                                            for c in calls)),
                    ))
                return seen

            one = transcript(lambda: entities.find(predicate))
            two = transcript(lambda: executor.engine._docs(
                two_trip, Run(values, predicate), None))
            assert one == two
            assert any(ids for _, ids in one)
            assert all(len(tokens) == 1 for tokens, _ in one)
        finally:
            router.close()


class TestMetering:
    def test_det_find_is_one_scatter_mitra_find_two(self):
        cluster, router, blinder = deploy(4)
        try:
            entities = blinder.entities("rec")
            entities.insert_many(corpus())
            entities.find(Eq("tag", "t2"))  # the ledger syncs here
            before = router.scatter_count()
            assert entities.find(Eq("status", "final"))
            assert router.scatter_count() - before == 1
            before = router.scatter_count()
            assert entities.find(Range("score", 3, 9))
            assert router.scatter_count() - before == 1
            # A Mitra find after this gateway's own writes: the keyword
            # memo is current, so only the document fetch scatters.
            before = router.scatter_count()
            assert entities.find(Eq("tag", "t1"))
            assert router.scatter_count() - before == 1
            # Cold (a restart of the Mitra half): addresses, then fetch.
            blinder.runtime.tactic("rec.tag", "mitra").setup()
            before = router.scatter_count()
            assert entities.find(Eq("tag", "t3"))
            assert router.scatter_count() - before == 2
        finally:
            router.close()


class TestPlanShape:
    def test_explain_and_live_call_share_key_and_node(self):
        cluster, router, blinder = deploy(4)
        try:
            entities = blinder.entities("rec")
            entities.insert_many(corpus())
            executor = blinder._executor("rec")
            cases = [
                (Eq("status", "final"), ["ColocatedFetch"]),
                (Eq("tag", "t1"), ["FetchDocs", "IndexLookup"]),
                (And([Eq("status", "final"), Eq("tag", "t1")]),
                 ["FetchDocs", "SetOp", "IndexLookup", "IndexLookup"]),
            ]
            for predicate, fetch_kinds in cases:
                key, build, _ = executor._operation("find", predicate)
                explained = executor.explain_plan(operation="find",
                                                 predicate=predicate)
                entities.find(predicate)
                live = executor._cache[key]
                assert live.root == explained.root
                kinds = [node.kind for node, _ in ir.walk(live.root)]
                assert kinds[kinds.index("Decrypt") + 1:] == fetch_kinds
            text = blinder.explain("rec", Eq("status", "final"))
            line = next(line for line in text.splitlines()
                        if "ColocatedFetch" in line)
            assert line.strip() == (
                "ColocatedFetch(eq status via det, chunk=64)  "
                "[leaks equalities + identifiers; 1 round/query]"
            )
        finally:
            router.close()


class TestAdmissibility:
    """The ``colocated_lookup`` bit is the compiler's only input; every
    tactic that declares it must deserve it."""

    def test_declared_tactics_are_doc_keyed(self):
        declared = {r.descriptor.name for r in registry().all()
                    if r.descriptor.colocated_lookup}
        assert declared == {"det", "blind-index", "ope", "ore"}
        # Each one's entries sit on the shard of their document.
        for name in sorted(declared):
            assert_index_entries_colocate(name)

    @pytest.mark.parametrize("name", ["det", "blind-index", "ope", "ore"])
    def test_cloud_lookup_returns_a_plain_id_list(self, name):
        reg = registry()
        descriptor = reg.descriptor(name)
        assert descriptor.colocated_lookup
        cluster = CloudCluster(1, registry=reg)
        ((_, transport),) = cluster.nodes()
        from repro.gateway.service import GatewayRuntime

        runtime = GatewayRuntime(APP, transport, reg)
        gateway = runtime.tactic("rec.f", name)
        for doc_id, value in (("d1", 5), ("d2", 5), ("d3", 9)):
            gateway.insert(doc_id, value)
        if hasattr(gateway, "eq_args"):
            query, args = "eq_query", gateway.eq_args(5)
        else:
            query, args = "range_query", gateway.range_args(4, 6)
        answer = transport.call(gateway.ctx.service, query, **args)
        assert isinstance(answer, list)
        assert sorted(answer) == ["d1", "d2"]
        assert all(isinstance(doc_id, str) for doc_id in answer)

    def test_an_undeclared_tactic_keeps_two_trips(self):
        reg = registry()
        det = reg.get("det")
        reg.register(dataclasses.replace(det.descriptor,
                                         colocated_lookup=False),
                     det.gateway_cls, det.cloud_cls, replace=True)
        cluster = CloudCluster(2, registry=reg)
        router = ShardedTransport(cluster.nodes(), ShardConfig())
        blinder = DataBlinder(APP, router, registry=reg)
        blinder.register_schema(schema())
        try:
            assert "ColocatedFetch" not in colocated_nodes(
                blinder, Eq("status", "final"))
            with pytest.raises(Exception, match="co-located"):
                router.node_transport(router.node_names()[0]).call(
                    DOCS, "lookup_fetch",
                    index=f"tactic/{APP}/rec.status/det",
                    query="eq_query", args={"token": b"x"}, chunk=4)
        finally:
            router.close()
