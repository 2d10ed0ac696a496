"""EXP-CACHE — the gateway read-cache tier under the paper's WAN.

Three legs, one artifact (``BENCH_cache.json``):

* **hot_read** — a Zipf(1.1) read stream (the classic skew of real
  query logs) over the 40 ms one-way gateway→cloud link, caching off vs
  on.  Hot repeats are answered at the gateway — no index round, no
  fetch round — so throughput must clear ``SPEEDUP_FLOOR`` (5x at the
  acceptance settings).
* **adversarial** — every query unique: a 0% hit-rate stream where the
  cache can only lose.  The measured overhead of running with the tier
  on must stay within ``OVERHEAD_CEILING`` (5%) of the tier-off time.
* **coherence** — two gateways, one untrusted zone, integrity on.  A
  writer updates through gateway B while reader A serves the same query
  from its cache; every observation A makes must already include B's
  latest acknowledged write (B's writes advance the write counter in
  the HSM both gateways share, so A's next hit re-syncs the freshness
  ledger and the moved stamp turns it into a miss; with no write in
  between, A validates hits locally).  Stale reads tolerated: zero.

The hot_read leg runs without integrity: its cached tail (p95) is the
first occurrence of each distinct query — a miss — not validated hits.

Run standalone: ``python benchmarks/bench_cache.py`` (or ``--smoke``
for the reduced CI profile).
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from pathlib import Path

from repro.bench.metrics import MetricsRecorder
from repro.cache import CacheConfig
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.integrity import IntegrityConfig
from repro.keys.hsm import SimulatedHsm
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.transport import InProcTransport
from repro.tactics import register_builtin_tactics

#: The paper's gateway→public-cloud link.
WAN_ONE_WAY_MS = 40.0
SEED = 2019
ZIPF_S = 1.1

#: Acceptance floors/ceilings; the CI smoke lowers them (tiny op counts
#: leave the constant per-run costs unamortised).
SPEEDUP_FLOOR = float(
    os.environ.get("DATABLINDER_CACHE_BENCH_FLOOR", "5.0")
)
OVERHEAD_CEILING = float(
    os.environ.get("DATABLINDER_CACHE_BENCH_OVERHEAD", "0.05")
)
HOT_OPS = int(os.environ.get("DATABLINDER_CACHE_BENCH_HOT_OPS", "150"))
BASELINE_OPS = int(
    os.environ.get("DATABLINDER_CACHE_BENCH_BASE_OPS", "40")
)
UNIQUE_OPS = int(
    os.environ.get("DATABLINDER_CACHE_BENCH_UNIQUE_OPS", "30")
)
COHERENCE_ROUNDS = int(
    os.environ.get("DATABLINDER_CACHE_BENCH_ROUNDS", "30")
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_cache.json"
)
RESULTS: dict = {}


def cache_schema() -> Schema:
    """Cache-admissible §5.1-style schema (every class >= C2)."""
    return Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        patient=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                                "min,max")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )


def corpus(size: int = 48) -> list[dict]:
    return [
        {
            "status": ["final", "draft", "amended", "corrected"][i % 4],
            "patient": f"p{i % 8}",
            "effective": i * 3 % 60,
            "value": float(i % 9),
            "note": f"note {i}",
        }
        for i in range(size)
    ]


def deploy(application, cache=None, wan=True, cloud=None, registry=None,
           keystore=None, integrity=False):
    if registry is None:
        registry = TacticRegistry()
        register_builtin_tactics(registry)
    if cloud is None:
        cloud = CloudZone(registry)
    model = (NetworkModel(one_way_latency_ms=WAN_ONE_WAY_MS, sleep=True)
             if wan else None)
    transport = InProcTransport(cloud.host, model)
    pipeline = PipelineConfig(
        cache=cache,
        integrity=IntegrityConfig() if integrity else None,
    )
    blinder = DataBlinder(application, transport, registry=registry,
                          keystore=keystore, pipeline=pipeline)
    blinder.register_schema(cache_schema())
    return blinder, cloud, registry


def zipf_stream(population, draws, rng):
    """Zipf(ZIPF_S) draws over a ranked query population."""
    weights = [1.0 / (rank + 1) ** ZIPF_S
               for rank in range(len(population))]
    return rng.choices(population, weights=weights, k=draws)


def read_population(entities, doc_ids):
    """The distinct hot-set: finds, counts, aggregates and point gets."""
    population = [
        lambda e: e.find(Eq("status", "final")),
        lambda e: e.find(Eq("status", "draft")),
        lambda e: e.count(Eq("status", "amended")),
        lambda e: e.find(Eq("patient", "p1")),
        lambda e: e.find(Eq("patient", "p3")),
        lambda e: e.count(Eq("patient", "p5")),
        lambda e: e.find(Range("effective", 10, 30)),
        lambda e: e.sum("value"),
        lambda e: e.average("value", where=Eq("status", "final")),
        lambda e: e.find_sorted("effective", limit=10),
    ]
    for doc_id in doc_ids[:10]:
        population.append(lambda e, d=doc_id: e.get(d))
    return population


def run_stream(entities, stream, recorder, label):
    started = time.perf_counter()
    for op in stream:
        with recorder.timed(label):
            op(entities)
    return time.perf_counter() - started


def leg_hot_read():
    docs = corpus()
    rng = random.Random(SEED)

    off, _, _ = deploy("bench-cache-off", cache=None)
    ids_off = off.entities("obs").insert_many([dict(d) for d in docs])
    on, _, _ = deploy("bench-cache-on", cache=CacheConfig())
    ids_on = on.entities("obs").insert_many([dict(d) for d in docs])

    # The same ranked population on both sides; the stream is re-drawn
    # with the same seed so both gateways see the same skew.
    pop_off = read_population(off.entities("obs"), sorted(ids_off))
    pop_on = read_population(on.entities("obs"), sorted(ids_on))
    stream_indices = zipf_stream(range(len(pop_off)), HOT_OPS, rng)

    recorder = MetricsRecorder()
    base = run_stream(
        off.entities("obs"),
        [pop_off[i] for i in stream_indices[:BASELINE_OPS]],
        recorder, "uncached",
    )
    hot = run_stream(
        on.entities("obs"),
        [pop_on[i] for i in stream_indices],
        recorder, "cached",
    )
    report = recorder.report("hot_read")
    uncached = report.per_operation["uncached"]
    cached = report.per_operation["cached"]
    base_tput = BASELINE_OPS / base if base else 0.0
    hot_tput = HOT_OPS / hot if hot else 0.0
    speedup = hot_tput / base_tput if base_tput else 0.0
    snapshot = on.runtime.cache_tier.snapshot()
    row = {
        "uncached": dict(uncached.as_dict(),
                         throughput_ops_s=round(base_tput, 2)),
        "cached": dict(cached.as_dict(),
                       throughput_ops_s=round(hot_tput, 2)),
        "speedup": round(speedup, 2),
        "zipf_s": ZIPF_S,
        "distinct_queries": len(pop_on),
        "cache": {
            "results": snapshot["results"],
            "documents": snapshot["documents"],
            "tokens": snapshot["tokens"],
        },
    }
    return row, speedup


def unique_query_stream(count):
    """Queries that never repeat — and never hit."""
    return [
        (lambda e, v=f"absent-{i}": e.find(Eq("note", v)))
        if i % 2 else
        (lambda e, lo=1000 + 2 * i: e.find(Range("effective", lo,
                                                 lo + 1)))
        for i in range(count)
    ]


def leg_adversarial():
    docs = corpus()
    off, _, _ = deploy("bench-adv-off", cache=None)
    off.entities("obs").insert_many([dict(d) for d in docs])
    on, _, _ = deploy("bench-adv-on", cache=CacheConfig())
    on.entities("obs").insert_many([dict(d) for d in docs])

    recorder = MetricsRecorder()
    t_off = run_stream(off.entities("obs"),
                       unique_query_stream(UNIQUE_OPS),
                       recorder, "cache_off")
    t_on = run_stream(on.entities("obs"),
                      unique_query_stream(UNIQUE_OPS),
                      recorder, "cache_on")
    overhead = (t_on - t_off) / t_off if t_off else 0.0
    report = recorder.report("adversarial")
    stats = on.runtime.cache_tier.snapshot()
    row = {
        "cache_off": report.per_operation["cache_off"].as_dict(),
        "cache_on": report.per_operation["cache_on"].as_dict(),
        "overhead_fraction": round(overhead, 4),
        "result_hits": stats["results"]["hits"],
    }
    return row, overhead, stats["results"]["hits"]


def leg_coherence():
    """Two gateways, one zone, integrity on, no modelled WAN (this leg
    measures correctness, not latency)."""
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    hsm = SimulatedHsm()
    reader, _, _ = deploy(
        "bench-coherent", cache=CacheConfig(), wan=False, cloud=cloud,
        registry=registry, keystore=KeyStore("bench-coherent", hsm=hsm),
        integrity=True,
    )
    writer, _, _ = deploy(
        "bench-coherent", cache=CacheConfig(), wan=False, cloud=cloud,
        registry=registry, keystore=KeyStore("bench-coherent", hsm=hsm),
        integrity=True,
    )
    docs = corpus(12)
    ids = writer.entities("obs").insert_many(docs)
    target = ids[0]

    stale = 0
    # Phase 1 — acknowledged-write visibility: after every write B
    # completes, A's very next (cache-eligible) read must see it.
    for round_no in range(COHERENCE_ROUNDS):
        expected = float(1000 + round_no)
        writer.entities("obs").update(target, {"value": expected})
        seen = reader.entities("obs").get(target)["value"]
        if seen != expected:
            stale += 1
        # Repeat read exercises the validated-hit path too.
        if reader.entities("obs").get(target)["value"] != expected:
            stale += 1

    # Phase 2 — concurrent writer: A polls while B writes a monotone
    # counter; A's observations must never go backwards.
    observations: list[float] = []
    done = threading.Event()

    def write_loop():
        for i in range(COHERENCE_ROUNDS):
            writer.entities("obs").update(
                target, {"value": float(2000 + i)}
            )
        done.set()

    thread = threading.Thread(target=write_loop)
    thread.start()
    while not done.is_set():
        observations.append(reader.entities("obs").get(target)["value"])
    thread.join()
    final = reader.entities("obs").get(target)["value"]
    observations.append(final)
    monotone = all(a <= b for a, b in
                   zip(observations, observations[1:]))
    if not monotone:
        stale += 1

    coherence = reader.runtime.cache_tier.snapshot()["coherence"]
    row = {
        "rounds": COHERENCE_ROUNDS,
        "stale_reads": stale,
        "final_value_seen": final,
        "final_value_written": float(2000 + COHERENCE_ROUNDS - 1),
        "monotone_under_concurrent_writer": monotone,
        "concurrent_observations": len(observations),
        "validations": coherence["validations"],
        "stamp_mismatches": coherence["stamp_mismatches"],
        "reader_resyncs": reader.runtime.verifier.resyncs,
        "write_counter": reader.runtime.verifier.write_counter(),
    }
    return row, stale, final == float(2000 + COHERENCE_ROUNDS - 1)


def test_cache_tier_acceptance():
    print(f"\nEXP-CACHE read-cache tier on "
          f"{WAN_ONE_WAY_MS:.0f} ms one-way WAN")

    hot, speedup = leg_hot_read()
    print(f"  hot_read: Zipf({ZIPF_S}) over "
          f"{hot['distinct_queries']} queries — "
          f"{hot['uncached']['throughput_ops_s']:.1f} -> "
          f"{hot['cached']['throughput_ops_s']:.1f} ops/s "
          f"({speedup:.1f}x)")

    adversarial, overhead, adv_hits = leg_adversarial()
    print(f"  adversarial: 0% hit rate, overhead "
          f"{100 * overhead:+.1f}% (ceiling "
          f"{100 * OVERHEAD_CEILING:.0f}%)")

    coherence, stale, saw_final = leg_coherence()
    print(f"  coherence: {coherence['rounds']} write/read rounds + "
          f"concurrent writer — {stale} stale reads, "
          f"{coherence['stamp_mismatches']} stamp mismatches")

    RESULTS.update({
        "hot_read": hot,
        "adversarial": adversarial,
        "coherence": coherence,
        "config": {
            "wan_one_way_ms": WAN_ONE_WAY_MS,
            "zipf_s": ZIPF_S,
            "hot_ops": HOT_OPS,
            "baseline_ops": BASELINE_OPS,
            "unique_ops": UNIQUE_OPS,
            "coherence_rounds": COHERENCE_ROUNDS,
            "speedup_floor": SPEEDUP_FLOOR,
            "overhead_ceiling": OVERHEAD_CEILING,
        },
    })
    RESULTS_PATH.write_text(json.dumps(RESULTS, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")

    # Acceptance.
    assert speedup >= SPEEDUP_FLOOR, hot
    assert overhead <= OVERHEAD_CEILING, adversarial
    assert adv_hits == 0, adversarial
    assert stale == 0, coherence
    assert saw_final, coherence


def main(argv: list[str]) -> int:
    """Standalone entry point; ``--smoke`` shrinks the workload for CI."""
    import pytest

    if "--smoke" in argv:
        overrides = {
            "DATABLINDER_CACHE_BENCH_HOT_OPS": "40",
            "DATABLINDER_CACHE_BENCH_BASE_OPS": "10",
            "DATABLINDER_CACHE_BENCH_UNIQUE_OPS": "8",
            "DATABLINDER_CACHE_BENCH_ROUNDS": "8",
            "DATABLINDER_CACHE_BENCH_FLOOR": "2.0",
            "DATABLINDER_CACHE_BENCH_OVERHEAD": "0.25",
        }
        os.environ.update(overrides)
        global HOT_OPS, BASELINE_OPS, UNIQUE_OPS, COHERENCE_ROUNDS
        global SPEEDUP_FLOOR, OVERHEAD_CEILING
        HOT_OPS, BASELINE_OPS, UNIQUE_OPS = 40, 10, 8
        COHERENCE_ROUNDS = 8
        SPEEDUP_FLOOR, OVERHEAD_CEILING = 2.0, 0.25
    return pytest.main(["-q", "-s", __file__])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
