"""EXP-PLAN — query planner: plan cache and compile overhead.

The planner splits the executor into compile / execute.  Two
measurements quantify what that buys (and costs):

* **Plan-cache hit rate** — a workload of repeated predicate *shapes*
  (values vary per query) against the shape-keyed plan cache; the steady
  state should hit on every query after the first of each shape.
* **Compile overhead** — wall time of parameterize + compile for a
  mixed CNF find (the compiler called directly), i.e. the one-off price
  of a cache miss.

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
from repro.net.transport import InProcTransport

#: The paper's gateway->public-cloud link: the yardstick a compile must
#: stay far below.
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


def deploy(registry):
    cloud = CloudZone(registry)
    blinder = DataBlinder("bench-plan", InProcTransport(cloud.host),
                          registry=registry)
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
    """Price of one compile pass, i.e. of a cache miss."""
    blinder, _ = deploy(registry)
    executor = blinder._executor("obs")
    predicate = And([
        Eq("status", "final"),
        Eq("kind", "hr"),
        Range("effective", 5, 40),
    ])
    samples = []
    for _ in range(200):
        start = time.perf_counter()
        parameterized, values, _ = parameterize(predicate)
        executor.compiler.compile_find(
            parameterized, True, False, len(values)
        )
        samples.append(time.perf_counter() - start)
    mean_us = 1e6 * statistics.mean(samples)
    p95_us = 1e6 * sorted(samples)[int(0.95 * len(samples))]
    RESULTS["compile_overhead_us"] = {"mean": mean_us, "p95": p95_us}
    print(f"\nEXP-PLAN compile overhead: {mean_us:.0f} us mean, "
          f"{p95_us:.0f} us p95 (mixed 3-literal CNF find)")
    # Compiling is pure gateway-side CPU; it must stay far below one
    # WAN round trip, or caching plans would be pointless.
    assert mean_us < 1000 * WAN_ONE_WAY_MS

    RESULTS["config"] = {
        "corpus": CORPUS,
        "workload_queries": WORKLOAD_QUERIES,
    }
    RESULTS_PATH.write_text(json.dumps(RESULTS, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")
