"""EXP-PLAN — query planner: plan cache, compile overhead, adaptive routing.

The planner tentpole splits the executor into compile / optimize /
execute.  Three measurements quantify what that buys (and costs):

* **Plan-cache hit rate** — a workload of repeated predicate *shapes*
  (values vary per query) against the shape-keyed plan cache; the steady
  state should hit on every query after the first of each shape.
* **Compile overhead** — wall time of parameterize + compile + optimize
  for a mixed CNF find (the compiler called directly), i.e. the one-off
  price of a cache miss.
* **Adaptive vs static tactic selection** — the §5.2 motivation for
  cost-based routing: the statically selected eq tactic's cloud service
  is degraded with the 40 ms one-way WAN model (every other service
  stays fast).  Static selection keeps paying the degraded service;
  adaptive selection explores the plan's alternative tactics during
  warmup and routes around it using the observed latency EWMAs.

Results land in ``BENCH_planner.json`` at the repo root.
"""

import json
import statistics
import time
from pathlib import Path

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.planner.compile import parameterize
from repro.core.query import And, Eq, Range
from repro.core.schema import FieldAnnotation, Schema
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.transport import InProcTransport, TransportLayer

#: The paper's gateway->public-cloud link, applied (adaptive benchmark
#: only) to the degraded tactic's services.
WAN_ONE_WAY_MS = 40.0
CORPUS = 48
SEED_SHAPES = 6
WORKLOAD_QUERIES = 120

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_planner.json"
)
RESULTS: dict = {}


def make_schema():
    return Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        kind=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        subject=("string", FieldAnnotation.parse("C2", "I,EQ")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG")),
        note="string",
    )


def corpus():
    return [
        {
            "status": ["final", "draft", "amended"][i % 3],
            "kind": ["hr", "bp"][i % 2],
            "subject": f"p{i % 6}",
            "effective": i,
            "note": f"note {i}",
        }
        for i in range(CORPUS)
    ]


class DegradedService(TransportLayer):
    """Charges the WAN latency model only on one tactic's services."""

    def __init__(self, inner, tactic,
                 network=NetworkModel(one_way_latency_ms=WAN_ONE_WAY_MS,
                                      sleep=True)):
        super().__init__(inner)
        self.tactic = tactic
        self.network = network

    def call_request(self, request):
        if request.service.rsplit("/", 1)[-1] != self.tactic:
            return self.inner.call_request(request)
        self.network.apply(0)
        result = self.inner.call_request(request)
        self.network.apply(0)
        return result


def deploy(registry, pipeline=None, degrade_tactic=None,
           application="bench-plan"):
    cloud = CloudZone(registry)
    transport = InProcTransport(cloud.host)
    if degrade_tactic is not None:
        transport = DegradedService(transport, degrade_tactic)
    blinder = DataBlinder(application, transport, registry=registry,
                          pipeline=pipeline)
    blinder.register_schema(make_schema())
    entities = blinder.entities("obs")
    entities.insert_many(corpus())
    return blinder, entities


def shape_workload(i):
    """Cycle through SEED_SHAPES predicate shapes, varying the values."""
    shapes = [
        lambda: Eq("status", ["final", "draft", "amended"][i % 3]),
        lambda: Eq("subject", f"p{i % 6}"),
        lambda: Range("effective", i % 10, 20 + i % 20),
        lambda: And([Eq("status", "final"), Eq("kind", ["hr", "bp"][i % 2])]),
        lambda: And([Eq("kind", "hr"), Range("effective", 0, 5 + i % 30)]),
        lambda: Eq("note", f"note {i % CORPUS}"),
    ]
    return shapes[i % SEED_SHAPES]()


def test_plan_cache_hit_rate(registry):
    """Steady-state workload hits the plan cache on all but the first
    occurrence of each predicate shape."""
    blinder, entities = deploy(registry)
    before = blinder.planner_stats("obs")
    for i in range(WORKLOAD_QUERIES):
        entities.find(shape_workload(i))
    after = blinder.planner_stats("obs")
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    hit_rate = hits / (hits + misses)
    RESULTS["plan_cache"] = {
        "queries": WORKLOAD_QUERIES,
        "shapes": SEED_SHAPES,
        "hits": hits,
        "misses": misses,
        "hit_rate": hit_rate,
    }
    print(f"\nEXP-PLAN cache: {hits} hits / {misses} misses "
          f"({100 * hit_rate:.1f}% hit rate over {WORKLOAD_QUERIES} "
          f"queries, {SEED_SHAPES} shapes)")
    assert misses == SEED_SHAPES
    assert hit_rate >= 0.9


def test_compile_overhead(registry):
    """Price of one compile+optimize pass, i.e. of a cache miss."""
    blinder, _ = deploy(registry)
    planner = blinder._executor("obs").planner
    predicate = And([
        Eq("status", "final"),
        Eq("kind", "hr"),
        Range("effective", 5, 40),
    ])
    samples = []
    for _ in range(200):
        start = time.perf_counter()
        parameterized, values, _ = parameterize(predicate)
        plan = planner.compiler.compile_find(
            parameterized, True, False, len(values)
        )
        planner.optimizer.optimize(plan)
        samples.append(time.perf_counter() - start)
    mean_us = 1e6 * statistics.mean(samples)
    p95_us = 1e6 * sorted(samples)[int(0.95 * len(samples))]
    RESULTS["compile_overhead_us"] = {"mean": mean_us, "p95": p95_us}
    print(f"\nEXP-PLAN compile overhead: {mean_us:.0f} us mean, "
          f"{p95_us:.0f} us p95 (mixed 3-literal CNF find)")
    # Compiling is pure gateway-side CPU; it must stay far below one
    # WAN round trip, or caching plans would be pointless.
    assert mean_us < 1000 * WAN_ONE_WAY_MS


def adaptive_vs_static_seconds(registry, adaptive):
    probe, _ = deploy(registry, application="bench-plan-probe")
    plan = probe._executor("obs").plans["subject"]
    primary = plan.roles["eq"]
    pipeline = PipelineConfig(adaptive_selection=adaptive)
    blinder, entities = deploy(
        registry, pipeline, degrade_tactic=primary,
        application="bench-plan-adapt" if adaptive else "bench-plan-stat",
    )
    predicate = Eq("subject", "p3")
    # Warmup: let the EWMAs see every candidate.
    for _ in range(8):
        entities.find_ids(predicate)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        entities.find_ids(predicate)
        samples.append(time.perf_counter() - start)
    chosen = blinder.planner_stats("obs")["chosen"].get("subject.eq")
    return statistics.mean(samples), primary, chosen


def test_adaptive_routes_around_degraded_tactic(registry):
    """With the primary eq tactic's service on the 40 ms link, adaptive
    selection converges to a fast runner-up; static keeps paying."""
    static_s, primary, static_choice = adaptive_vs_static_seconds(
        registry, adaptive=False
    )
    adaptive_s, _, adaptive_choice = adaptive_vs_static_seconds(
        registry, adaptive=True
    )
    RESULTS["adaptive_vs_static"] = {
        "degraded_primary": primary,
        "wan_one_way_ms": WAN_ONE_WAY_MS,
        "static_mean_s": static_s,
        "adaptive_mean_s": adaptive_s,
        "speedup": static_s / adaptive_s,
        "static_choice": static_choice,
        "adaptive_choice": adaptive_choice,
    }
    print(f"\nEXP-PLAN adaptive routing: primary {primary!r} degraded "
          f"by {WAN_ONE_WAY_MS:.0f} ms one-way; static "
          f"{static_s * 1000:.0f} ms -> adaptive "
          f"{adaptive_s * 1000:.0f} ms per find "
          f"({static_s / adaptive_s:.1f}x, now using "
          f"{adaptive_choice!r})")
    assert static_choice == primary
    assert adaptive_choice != primary
    assert adaptive_s < static_s

    RESULTS["config"] = {
        "corpus": CORPUS,
        "workload_queries": WORKLOAD_QUERIES,
    }
    RESULTS_PATH.write_text(json.dumps(RESULTS, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")
