"""Query planner: plan IR, cache, EXPLAIN's static per-node metrics,
and the engine-level fixes (prefetch drain, unified fetch chunking,
decrypt-free count)."""

import time

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.planner import walk
from repro.core.planner import ir
from repro.core.planner.compile import parameterize
from repro.core.query import And, Eq, Not, Or, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport, TransportLayer
from repro.tactics import register_builtin_tactics


def make_schema(name="rec"):
    return Schema.define(
        name,
        status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        code=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        subject=("string", FieldAnnotation.parse("C2", "I,EQ")),
        when=("int", FieldAnnotation.parse("C5", "I,EQ,RG", "min,max")),
        score=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )


def make_docs(n):
    return [
        {
            "status": ["draft", "active", "done"][i % 3],
            "code": ["a", "b"][i % 2],
            "subject": f"s{i % 4}",
            "when": i,
            "score": float(i % 5),
            "note": f"n{i}",
        }
        for i in range(n)
    ]


def deploy(pipeline=None, n_docs=30, transport_wrap=None):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    transport = InProcTransport(cloud.host)
    if transport_wrap is not None:
        transport = transport_wrap(transport)
    blinder = DataBlinder("plannertest", transport, registry=registry,
                          pipeline=pipeline)
    blinder.register_schema(make_schema())
    entities = blinder.entities("rec")
    if n_docs:
        entities.insert_many(make_docs(n_docs))
    return blinder, entities


#: One spec per operation form EXPLAIN renders (``blinder.explain``
#: keywords).
EXPLAIN_FORMS = {
    "eq-sensitive": dict(predicate=Eq("subject", "s1")),
    "eq-plain": dict(predicate=Eq("note", "n1")),
    "range": dict(predicate=Range("when", 1, 4)),
    "and-or-not": dict(predicate=And([
        Or([Eq("status", "draft"), Eq("code", "a")]),
        Not(Eq("subject", "s1")),
    ])),
    "count": dict(predicate=Eq("status", "draft"), operation="count"),
    "aggregate": dict(operation="aggregate", function="min", field="when"),
    "sorted": dict(operation="find_sorted", field="when"),
    "write": dict(operation="insert"),
}

#: Footer lines follow the plan; they report traffic, the plan does not.
FOOTERS = ("  observed crypto/wire split:", "  Integrity:", "  Cache")


def plan_lines(text):
    """EXPLAIN's header, ``Stack:`` and node lines, footers dropped."""
    lines = text.splitlines()
    end = next((index for index, line in enumerate(lines)
                if line.startswith(FOOTERS)), len(lines))
    return lines[:end]


class CountingTransport(TransportLayer):
    """Counts (service-suffix, method) call pairs."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = {}

    def call_batch(self, requests):
        for request in requests:
            key = (request.service.rsplit("/", 1)[-1], request.method)
            self.calls[key] = self.calls.get(key, 0) + 1
        return self._inner.call_batch(requests)

    def method_calls(self, method):
        return sum(
            count for (_, m), count in self.calls.items() if m == method
        )


class TestParameterize:
    def test_values_leave_the_shape(self):
        p1 = And([Eq("status", "draft"), Range("when", 3, 9)])
        p2 = And([Eq("status", "done"), Range("when", 0, 50)])
        _, values1, shape1 = parameterize(p1)
        _, values2, shape2 = parameterize(p2)
        assert shape1 == shape2
        assert values1 == ["draft", 3, 9]
        assert values2 == ["done", 0, 50]

    def test_open_bounds_change_the_shape(self):
        _, _, low_only = parameterize(Range("when", low=3))
        _, _, high_only = parameterize(Range("when", high=3))
        assert low_only != high_only

    def test_duplicate_literals_get_distinct_slots(self):
        # CNF dedup may only merge structurally identical Params, never
        # two user literals that happen to share a value — otherwise a
        # cached plan would be wrong for same-shape different-value runs.
        _, values, _ = parameterize(
            Or([Eq("status", "draft"), Eq("status", "draft")])
        )
        assert values == ["draft", "draft"]

    def test_none_predicate(self):
        assert parameterize(None) == (None, [], None)


class TestPlanCache:
    def test_same_shape_hits_different_values_work(self):
        blinder, entities = deploy()
        shape = lambda lo, hi: And(
            [Eq("status", "draft"), Range("when", lo, hi)]
        )
        first = entities.find(shape(0, 10))
        second = entities.find(shape(10, 29))
        stats = blinder.planner_stats("rec")
        assert stats["cache_hits"] >= 1
        # Values bound per execution: results differ, both correct.
        assert {d["when"] for d in first} == {0, 3, 6, 9}
        assert {d["when"] for d in second} == {12, 15, 18, 21, 24, 27}

    def test_different_shapes_miss(self):
        blinder, entities = deploy()
        before = blinder.planner_stats("rec")
        entities.find(Eq("status", "draft"))
        entities.find(Eq("code", "a"))
        entities.find(Range("when", 1, 2))
        after = blinder.planner_stats("rec")
        assert after["cache_hits"] == before["cache_hits"]
        assert after["cache_misses"] - before["cache_misses"] == 3

    def test_migrate_schema_invalidates(self):
        blinder, entities = deploy(n_docs=8)
        entities.find(Eq("status", "draft"))
        entities.find(Eq("status", "active"))
        executor = blinder._executor("rec")
        assert executor.cached_plans() > 0
        blinder.migrate_schema("rec")
        new_executor = blinder._executor("rec")
        assert new_executor is not executor
        stats = blinder.planner_stats("rec")
        assert stats["invalidations"] >= 1
        # The old executor's find plans are gone: the same shape misses
        # again on the new executor, recompiles, and still answers.
        # (The migration itself may have cached write plans — only the
        # read-path shapes matter here.)
        docs = blinder.entities("rec").find(Eq("status", "draft"))
        assert {d["status"] for d in docs} <= {"draft"}
        assert (
            blinder.planner_stats("rec")["cache_misses"]
            == stats["cache_misses"] + 1
        )


class TestExplain:
    def test_stable_and_side_effect_free(self):
        blinder, entities = deploy(n_docs=6)
        predicate = And([Eq("status", "draft"), Range("when", 1, 4)])
        before = blinder.planner_stats("rec")
        cached_before = blinder._executor("rec").cached_plans()
        one = blinder.explain("rec", predicate)
        two = blinder.explain("rec", predicate)
        assert one == two
        after = blinder.planner_stats("rec")
        assert after["compiles"] == before["compiles"]
        assert after["cache_hits"] == before["cache_hits"]
        assert after["cache_misses"] == before["cache_misses"]
        assert blinder._executor("rec").cached_plans() == (
            cached_before
        )

    def test_renders_cost_and_leakage_for_every_predicate_form(self):
        blinder, entities = deploy(n_docs=6)
        plans = {form: blinder.explain("rec", **spec)
                 for form, spec in EXPLAIN_FORMS.items()}
        for form, text in plans.items():
            if form not in ("eq-plain", "write"):  # no tactic node
                assert "leaks" in text and "round/query" in text
        assert "IndexLookup" in plans["eq-sensitive"]
        assert "leaks" in plans["eq-sensitive"]
        assert "plaintext field" in plans["eq-plain"]
        assert "leaks order" in plans["range"]
        assert "BoolQuery" in plans["and-or-not"]
        assert "SetOp(diff)" in plans["and-or-not"]
        assert "Count" in plans["count"]
        assert "Extreme(min(when)" in plans["aggregate"]
        assert "OrderedScan" in plans["sorted"]
        assert "WritePipeline" in plans["write"]
        assert "StoreWrite(insert_many)" in plans["write"]

    def test_plan_lines_identical_before_and_after_traffic(self):
        blinder, entities = deploy(n_docs=6)
        before = {form: plan_lines(blinder.explain("rec", **spec))
                  for form, spec in EXPLAIN_FORMS.items()}
        for i in range(4):  # 20 live operations over every node kind
            entities.find(Eq("subject", f"s{i}"))
            entities.find(Range("when", i, i + 3))
            entities.count(Eq("status", "draft"))
            entities.min("when")
            entities.insert(make_docs(1)[0])
        assert blinder.planner_stats("rec")["executions"] >= 20
        after = {form: plan_lines(blinder.explain("rec", **spec))
                 for form, spec in EXPLAIN_FORMS.items()}
        assert after == before

    def test_tactic_nodes_print_their_descriptor_metrics(self):
        blinder, _ = deploy(n_docs=0)
        executor = blinder._executor("rec")
        registry = blinder.runtime.registry
        tactic_nodes = 0
        for spec in EXPLAIN_FORMS.values():
            plan = executor.explain_plan(**spec)
            lines = plan_lines(blinder.explain("rec", **spec))[2:]
            nodes = [node for node, _ in walk(plan.root)]
            assert len(lines) == len(nodes)
            for node, line in zip(nodes, lines):
                assert line.strip().startswith(node.kind)
                tactic = getattr(node, "tactic", None)
                if tactic is None:
                    continue
                tactic_nodes += 1
                descriptor = registry.descriptor(tactic)
                level = descriptor.leakage.level.label.lower()
                rounds = descriptor.performance.rounds_per_query
                assert f"[leaks {level}; {rounds} round" in line
        assert tactic_nodes >= 6

    def test_entities_explain_passthrough(self):
        blinder, entities = deploy(n_docs=0)
        assert "plan: find" in entities.explain(Eq("status", "draft"))

    @pytest.mark.parametrize("operation,spec,live", [
        ("find", dict(predicate=Eq("subject", "s1"), limit=3),
         lambda e: e.find(Eq("subject", "s2"), limit=7)),
        ("find_ids", dict(predicate=Range("when", 1, 4), verify=False),
         lambda e: e._executor.find_ids(Range("when", 2, 9), verify=False)),
        ("count", dict(predicate=Eq("status", "draft")),
         lambda e: e.count(Eq("status", "done"))),
        ("aggregate", dict(function="max", field="when",
                           predicate=Eq("code", "a")),
         lambda e: e.max("when", Eq("code", "b"))),
        ("find_sorted", dict(field="when", descending=True, limit=2),
         lambda e: e.find_sorted("when", limit=5, descending=True)),
        ("insert", {}, lambda e: e.insert(make_docs(1)[0])),
        ("update", {}, lambda e: e.update(e.find(limit=1)[0]["_id"],
                                          {"note": "edited"})),
        ("delete", {}, lambda e: e.delete(e.find(limit=1)[0]["_id"])),
    ])
    def test_explains_the_plan_the_live_call_runs(self, operation, spec,
                                                  live):
        """One operation table: the plan EXPLAIN prints is the plan the
        live entry point cached, under the key EXPLAIN looks up."""
        blinder, entities = deploy(n_docs=6)
        executor = blinder._executor("rec")
        live(entities)
        key, _, _ = executor._operation(operation=operation, **spec)
        assert key[0] == ("write" if spec == {} else operation)
        assert executor._cache[key] == executor.explain_plan(
            operation=operation, **spec
        )


class TestPlanShape:
    def test_count_plan_is_decrypt_free_for_exact_indexes(self):
        blinder, _ = deploy(n_docs=0)
        plan = blinder._executor("rec").explain_plan(
            operation="count", predicate=Eq("status", "draft")
        )
        kinds = [node.kind for node, _ in walk(plan.root)]
        assert "FetchDocs" not in kinds and "Verify" not in kinds

    def test_count_plan_keeps_verify_for_approximate_indexes(self):
        blinder, _ = deploy(n_docs=0)
        plan = blinder._executor("rec").explain_plan(
            operation="count", predicate=Range("when", 1, 4)
        )
        kinds = [node.kind for node, _ in walk(plan.root)]
        assert "FetchDocs" in kinds and "Verify" in kinds

    def test_boolean_clauses_compile_to_one_bool_query(self):
        blinder, _ = deploy(n_docs=0)
        plan = blinder._executor("rec").explain_plan(
            predicate=And([Eq("status", "draft"), Eq("code", "a")])
        )
        bool_nodes = [
            node for node, _ in walk(plan.root)
            if isinstance(node, ir.BoolQuery)
        ]
        assert len(bool_nodes) == 1
        assert len(bool_nodes[0].clauses) == 2


class TestDecryptFreeCount:
    def test_exact_count_fetches_no_documents(self):
        wrapper = {}

        def wrap(inner):
            wrapper["t"] = CountingTransport(inner)
            return wrapper["t"]

        blinder, entities = deploy(n_docs=24, transport_wrap=wrap)
        counting = wrapper["t"]
        baseline = counting.method_calls("get_many")
        exact = entities.count(Eq("status", "draft"))
        assert counting.method_calls("get_many") == baseline
        assert exact == len(entities.find(Eq("status", "draft")))

    def test_approximate_count_still_verifies(self):
        wrapper = {}

        def wrap(inner):
            wrapper["t"] = CountingTransport(inner)
            return wrapper["t"]

        blinder, entities = deploy(n_docs=24, transport_wrap=wrap)
        counting = wrapper["t"]
        baseline = counting.method_calls("get_many")
        verified = entities.count(Range("when", 3, 11))
        assert counting.method_calls("get_many") > baseline
        assert verified == len(entities.find(Range("when", 3, 11)))

    def test_count_correct_after_delete(self):
        _, entities = deploy(n_docs=12)
        victim = sorted(entities.find_ids(Eq("status", "draft")))[0]
        assert entities.delete(victim)
        assert entities.count(Eq("status", "draft")) == len(
            entities.find(Eq("status", "draft"))
        )


class TestFetchChunkKnob:
    """Chunk sizes are the IR's per-node rules (no setting overrides
    them): 64 for ``find``, 32 for ordered scans, 16 for min/max."""

    def _get_many_calls(self, pipeline, action):
        wrapper = {}

        def wrap(inner):
            wrapper["t"] = CountingTransport(inner)
            return wrapper["t"]

        _, entities = deploy(pipeline, n_docs=40, transport_wrap=wrap)
        counting = wrapper["t"]
        before = counting.method_calls("get_many")
        action(entities)
        return counting.method_calls("get_many") - before

    def test_find_respects_override(self):
        unlimited = lambda e: e.find(Eq("code", "a"))  # 20 matches
        assert self._get_many_calls(None, unlimited) == 1  # chunk 64

    def test_find_sorted_respects_override(self):
        sweep = lambda e: e.find_sorted("when")  # 40 docs
        assert self._get_many_calls(None, sweep) == 2  # chunk 32

    def test_extreme_respects_override(self):
        # min() touches only the head of the order index: one chunk
        # of 16.
        head = lambda e: e.min("when")
        assert self._get_many_calls(None, head) == 1


class SlowGetMany(TransportLayer):
    """Delays get_many and tracks in-flight fetches."""

    def __init__(self, inner, delay=0.03):
        super().__init__(inner)
        self.delay = delay
        self.in_flight = 0
        self.total = 0
        import threading

        self._lock = threading.Lock()

    def call_batch(self, requests):
        if not any(r.method == "get_many" for r in requests):
            return self._inner.call_batch(requests)
        with self._lock:
            self.in_flight += 1
            self.total += 1
        try:
            time.sleep(self.delay)
            return self._inner.call_batch(requests)
        finally:
            with self._lock:
                self.in_flight -= 1


class TestPrefetchDrain:
    def test_early_limit_return_leaves_no_pending_fetch(self):
        wrapper = {}

        def wrap(inner):
            wrapper["t"] = SlowGetMany(inner)
            return wrapper["t"]

        _, entities = deploy(
            PipelineConfig(prefetch=True), n_docs=80, transport_wrap=wrap
        )
        slow = wrapper["t"]
        results = entities.find(Range("when", 0, 79), limit=1)
        assert len(results) == 1
        # The prefetched next chunk must be cancelled or drained before
        # find() returns — nothing may still be on the wire.
        assert slow.in_flight == 0
        settled = slow.total
        time.sleep(slow.delay * 3)
        assert slow.total == settled  # and nothing fires later either

    def test_prefetch_still_overlaps_and_is_correct(self):
        _, entities = deploy(PipelineConfig(prefetch=True), n_docs=80)
        docs = entities.find(Range("when", 0, 79))
        assert {d["when"] for d in docs} == set(range(80))


class TestPlannerReport:
    def test_report_renders(self):
        blinder, entities = deploy(n_docs=6)
        entities.find(Eq("status", "draft"))
        entities.find(Eq("status", "draft"))
        report = blinder.planner_report("rec")
        assert "cache hits" in report
        assert "node timings" in report


class TestPlanCacheAcrossTopology:
    """Plans do not depend on the untrusted zone's membership: a
    topology change keeps every cached plan, and answers stay right."""

    def test_epoch_move_keeps_cached_plans(self):
        from repro.shard.router import ShardedTransport

        routers = []

        def wrap(inner):
            router = ShardedTransport([("n0", inner)])
            routers.append(router)
            return router

        blinder, entities = deploy(n_docs=12, transport_wrap=wrap)
        (router,) = routers
        expected = entities.find_ids(Eq("status", "active"))
        warm = blinder.planner_stats("rec")

        epoch = blinder.runtime.topology_epoch()
        router.finish_migration()  # a membership step: the epoch moves
        assert blinder.runtime.topology_epoch() > epoch
        assert entities.find_ids(Eq("status", "active")) == expected
        stats = blinder.planner_stats("rec")
        assert stats["compiles"] == warm["compiles"]
        assert stats["cache_hits"] == warm["cache_hits"] + 1
        assert stats["invalidations"] == warm["invalidations"]
        assert "topology" not in blinder.planner_report("rec")

    def test_sharded_join_keeps_plans_end_to_end(self):
        from repro.cloud.cluster import CloudCluster
        from repro.shard.config import ShardConfig
        from repro.shard.router import ShardedTransport

        registry = TacticRegistry()
        register_builtin_tactics(registry)
        cluster = CloudCluster(2, registry=registry)
        router = ShardedTransport(cluster.nodes(),
                                  ShardConfig(parallel_fanout=False))
        blinder = DataBlinder("plannertest", router, registry=registry)
        blinder.register_schema(make_schema())
        entities = blinder.entities("rec")
        entities.insert_many(make_docs(8))

        baseline = entities.find_ids(Eq("status", "active"))
        assert entities.count() == 8
        compiles = blinder.planner_stats("rec")["compiles"]

        router.begin_join(*cluster.add_zone("zone-9"))
        assert entities.find_ids(Eq("status", "active")) == baseline

        router.finish_migration()
        # No data was migrated to zone-9, so doc fetches may miss; a
        # count (sum over shards) is placement-independent and still
        # exercises the planner.
        assert entities.count() == 8
        assert blinder.planner_stats("rec")["compiles"] == compiles
        cluster.close()
