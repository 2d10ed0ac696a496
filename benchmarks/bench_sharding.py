"""EXP-SHARD — sharded untrusted zone: scaling and resharding cost.

The tentpole subsystem splits the untrusted zone across N nodes behind a
consistent-hash ring; single-key operations route to one shard while
searches scatter/gather.  Five measurements:

* **Insert/search throughput at 1/2/4/8 shards** on the paper's 40 ms
  one-way WAN model (writes batched; searches fan out in parallel).
  Single-client latency-bound throughput should stay roughly *flat* as
  shards are added — the scatter is charged one parallel round trip, not
  N sequential ones.
* **Sequential vs parallel scatter at 8 shards** — the fan-out is what
  keeps search latency off the N·RTT cliff; this quantifies the cliff.
* **Keyed scatters at 1/4/8 shards** — the two legs above time
  ``find_ids`` only, which never fetches a document.  A *fetching*
  ``find`` and a filtered ``average`` add the keyed half of the read
  path (``get_many`` / ``aggregate(doc_ids=...)`` sliced per owner); a
  router that walks the owners one by one pays one round trip per
  shard there and the rate falls to ~0.2x by 8 shards.
* **Replication cost** — ``replication=2`` against ``replication=1``
  at 4 shards, both on the parallel router and the same link, 50 timed
  inserts per leg in 5 alternating rounds (median and IQR): a write
  waits for every reachable replica, and the replica leg shares the
  primary's round trip, so the second copy must cost under 10 %.
* **Node-join downtime** — a reader hammers the ring while
  ``Resharder.add_node`` streams keys to a fresh node; downtime is the
  number of failed reads (must be zero) plus the worst observed stall.

Results land in ``BENCH_sharding.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.shard.config import ShardConfig
from repro.shard.rebalance import Resharder
from repro.shard.router import ShardedTransport

#: The paper's gateway->public-cloud link; EXP-SHARD's headline setting.
WAN_ONE_WAY_MS = 40.0
SHARD_COUNTS = (1, 2, 4, 8)
INSERTS = int(os.environ.get("DATABLINDER_SHARD_BENCH_DOCS", "10"))
SEARCHES = int(os.environ.get("DATABLINDER_SHARD_BENCH_SEARCHES", "6"))
SEED = 2019
#: Keyed-scatter leg: enough documents that a match set spans 8 shards,
#: and the share of the 1-shard rate that 8 shards must keep.
KEYED_SCATTER_SHARDS = (1, 4, 8)
KEYED_SCATTER_DOCS = 32
KEYED_SCATTER_FLOOR = 0.6
#: Replication-cost leg: timed inserts per leg, in alternating rounds.
REPLICATION_INSERTS = 50
REPLICATION_ROUNDS = 5

PIPELINE = PipelineConfig(batch_writes=True)

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_sharding.json"
)
#: Shared across the tests in this module; the last one writes the file.
RESULTS: dict = {}


def observation_documents(count, seed=SEED):
    generator = MedicalDataGenerator(seed)
    return [o.to_document() for o in
            generator.observations(count, cohort_size=4)]


def deploy(registry, shards, parallel_fanout=True, latency_ms=0.0,
           sleep=False, application="bench-shard", replication=1,
           network=None):
    cluster = CloudCluster(
        shards, registry=registry,
        network=network or NetworkModel(one_way_latency_ms=latency_ms,
                                        sleep=sleep),
    )
    router = ShardedTransport(
        cluster.nodes(),
        ShardConfig(parallel_fanout=parallel_fanout,
                    replication=replication),
    )
    blinder = DataBlinder(application, router, registry=registry,
                          verify_results=False, pipeline=PIPELINE)
    blinder.register_schema(benchmark_observation_schema())
    return cluster, router, blinder.entities("observation")


def timed_workload(entities, docs):
    """(insert ops/s, search ops/s) for one deployment."""
    start = time.perf_counter()
    for document in docs:
        entities.insert(dict(document))
    insert_seconds = time.perf_counter() - start

    predicates = [Eq("status", "final"), Eq("code", "glucose"),
                  Eq("code", "heart-rate")]
    start = time.perf_counter()
    for index in range(SEARCHES):
        entities.find_ids(predicates[index % len(predicates)])
    search_seconds = time.perf_counter() - start
    return len(docs) / insert_seconds, SEARCHES / search_seconds


def test_throughput_scaling_across_shard_counts(registry):
    """1/2/4/8 shards on the 40 ms WAN: no scatter-induced collapse."""
    docs = observation_documents(INSERTS)
    scaling = {}
    for shards in SHARD_COUNTS:
        cluster, _, entities = deploy(
            registry, shards, latency_ms=WAN_ONE_WAY_MS, sleep=True,
            application=f"bench-shard-{shards}",
        )
        insert_tput, search_tput = timed_workload(entities, docs)
        scaling[str(shards)] = {
            "insert_ops_per_s": insert_tput,
            "search_ops_per_s": search_tput,
        }
        print(f"\nEXP-SHARD {shards} shard(s) on "
              f"{WAN_ONE_WAY_MS:.0f} ms link: "
              f"insert {insert_tput:.2f} ops/s, "
              f"search {search_tput:.2f} ops/s")
        cluster.close()
    RESULTS["scaling"] = scaling

    # The parallel scatter keeps single-client search latency roughly
    # flat: 8 shards must not cost anywhere near 8x the 1-shard search.
    one = scaling["1"]["search_ops_per_s"]
    eight = scaling["8"]["search_ops_per_s"]
    assert eight > one / 3.0


def test_parallel_fanout_beats_sequential_scatter(registry):
    """At 8 shards the parallel gather dodges the N·RTT cliff."""
    docs = observation_documents(INSERTS)
    results = {}
    for label, parallel in (("sequential", False), ("parallel", True)):
        cluster, _, entities = deploy(
            registry, 8, parallel_fanout=parallel,
            latency_ms=WAN_ONE_WAY_MS, sleep=True,
            application=f"bench-shard-fanout-{label}",
        )
        for document in docs:
            entities.insert(dict(document))
        start = time.perf_counter()
        for _ in range(SEARCHES):
            entities.find_ids(Eq("status", "final"))
        results[label] = SEARCHES / (time.perf_counter() - start)
        cluster.close()
    speedup = results["parallel"] / results["sequential"]
    RESULTS["fanout_at_8_shards"] = {
        "sequential_search_ops_per_s": results["sequential"],
        "parallel_search_ops_per_s": results["parallel"],
        "speedup": speedup,
    }
    print(f"\nEXP-SHARD scatter at 8 shards: "
          f"{results['sequential']:.2f} -> {results['parallel']:.2f} "
          f"searches/s ({speedup:.1f}x)")
    assert speedup >= 2.0


def test_keyed_scatter_scaling(registry):
    """A fetching ``find`` and a filtered ``average`` at 1/4/8 shards:
    the per-owner slices travel together, so spreading the matches over
    8 shards must not cost 8 round trips."""
    docs = observation_documents(max(INSERTS, KEYED_SCATTER_DOCS))
    where = Eq("status", "final")
    scaling = {}
    for shards in KEYED_SCATTER_SHARDS:
        network = NetworkModel(one_way_latency_ms=WAN_ONE_WAY_MS,
                               sleep=False)
        cluster, _, entities = deploy(
            registry, shards, network=network,
            application=f"bench-shard-keyed-{shards}",
        )
        for document in docs:  # seeded off the clock, without the WAN
            entities.insert(dict(document))
        network.sleep = True
        matched = len(entities.find(where))  # warm the plan cache
        rates = {}
        for label, operation in (
            ("find", lambda: entities.find(where)),
            ("average", lambda: entities.average("value", where)),
        ):
            start = time.perf_counter()
            for _ in range(SEARCHES):
                operation()
            rates[f"{label}_ops_per_s"] = (
                SEARCHES / (time.perf_counter() - start)
            )
        scaling[str(shards)] = {"matched_documents": matched, **rates}
        print(f"\nEXP-SHARD keyed scatter, {shards} shard(s), "
              f"{matched} matches: find {rates['find_ops_per_s']:.2f} "
              f"ops/s, filtered average "
              f"{rates['average_ops_per_s']:.2f} ops/s")
        cluster.close()
    ratios = {
        label: (scaling["8"][f"{label}_ops_per_s"]
                / scaling["1"][f"{label}_ops_per_s"])
        for label in ("find", "average")
    }
    RESULTS["keyed_scatter"] = {
        "scaling": scaling,
        "find_ratio_8_vs_1": ratios["find"],
        "average_ratio_8_vs_1": ratios["average"],
    }
    assert matched > 8  # the fetch had shards to span
    assert ratios["find"] >= KEYED_SCATTER_FLOOR
    assert ratios["average"] >= KEYED_SCATTER_FLOOR


def test_insert_scaling_flat_or_rising(registry):
    """The parallel write scatter keeps single-client insert throughput
    flat (or better) from 1 to 8 shards: a batch frame touching K
    shards costs one concurrent round trip, not K sequential ones."""
    scaling = RESULTS.get("scaling")
    if not scaling:  # standalone selection: measure just the endpoints
        docs = observation_documents(INSERTS)
        scaling = {}
        for shards in (1, 8):
            cluster, _, entities = deploy(
                registry, shards, latency_ms=WAN_ONE_WAY_MS, sleep=True,
                application=f"bench-shard-flat-{shards}",
            )
            insert_tput, _ = timed_workload(entities, docs)
            scaling[str(shards)] = {"insert_ops_per_s": insert_tput}
            cluster.close()
    one = scaling["1"]["insert_ops_per_s"]
    eight = scaling["8"]["insert_ops_per_s"]
    RESULTS["insert_scaling"] = {
        "one_shard_ops_per_s": one,
        "eight_shard_ops_per_s": eight,
        "ratio": eight / one,
    }
    print(f"\nEXP-SHARD insert scaling: {one:.2f} ops/s at 1 shard -> "
          f"{eight:.2f} ops/s at 8 shards ({eight / one:.2f}x)")
    assert eight >= 0.9 * one


def test_replication_cost(registry):
    """replication=2 against replication=1, equal work on both sides:
    the same parallel router, the same 40 ms link, alternating rounds of
    the same documents.  The replica leg rides the scatter the primary
    leg already pays for, so waiting for every replica must keep at
    least 0.9x of the unreplicated insert rate."""
    per_round = max(INSERTS, REPLICATION_INSERTS // REPLICATION_ROUNDS)
    docs = observation_documents(per_round * REPLICATION_ROUNDS)
    legs = {
        replication: deploy(
            registry, 4, latency_ms=WAN_ONE_WAY_MS, sleep=True,
            application=f"bench-shard-replication-{replication}",
            replication=replication,
        )
        for replication in (1, 2)
    }
    rates: dict[int, list[float]] = {1: [], 2: []}
    for round_index in range(REPLICATION_ROUNDS):
        batch = docs[round_index * per_round:(round_index + 1) * per_round]
        for replication, (_, _, entities) in legs.items():
            start = time.perf_counter()
            for document in batch:
                entities.insert(dict(document))
            rates[replication].append(
                per_round / (time.perf_counter() - start)
            )
    for cluster, _, _ in legs.values():
        cluster.close()

    def summary(values):
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"median_insert_ops_per_s": median,
                "iqr_insert_ops_per_s": q3 - q1,
                "rounds_insert_ops_per_s": values}

    one, two = summary(rates[1]), summary(rates[2])
    ratio = (two["median_insert_ops_per_s"]
             / one["median_insert_ops_per_s"])
    RESULTS["replication_cost"] = {
        "inserts_per_leg": per_round * REPLICATION_ROUNDS,
        "rounds": REPLICATION_ROUNDS,
        "replication1": one,
        "replication2": two,
        "ratio": ratio,
    }
    print(f"\nEXP-SHARD replication cost at 4 shards, "
          f"{per_round * REPLICATION_ROUNDS} inserts per leg: "
          f"replication=1 {one['median_insert_ops_per_s']:.2f} ops/s "
          f"(IQR {one['iqr_insert_ops_per_s']:.2f}) vs replication=2 "
          f"{two['median_insert_ops_per_s']:.2f} ops/s "
          f"(IQR {two['iqr_insert_ops_per_s']:.2f}): {ratio:.2f}x")
    assert ratio >= 0.9


def test_node_join_downtime(registry):
    """Online resharding: a live reader sees zero failed reads."""
    cluster, router, entities = deploy(
        registry, 4, application="bench-shard-join"
    )
    ids = [entities.insert(dict(d))
           for d in observation_documents(60)]

    stop = threading.Event()
    failures: list[Exception] = []
    stalls: list[float] = []

    def reader():
        index = 0
        while not stop.is_set():
            doc_id = ids[index % len(ids)]
            started = time.perf_counter()
            try:
                entities.get(doc_id)
            except Exception as exc:  # noqa: BLE001 - counted as downtime
                failures.append(exc)
            stalls.append(time.perf_counter() - started)
            index += 1

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.01)
    started = time.perf_counter()
    report = Resharder(router, chunk_size=16).add_node(
        *cluster.add_zone("zone-join")
    )
    join_seconds = time.perf_counter() - started
    time.sleep(0.01)
    stop.set()
    thread.join()

    RESULTS["node_join"] = {
        "documents_total": len(ids),
        "documents_moved": report.documents_moved,
        "index_entries_moved": report.index_entries_total,
        "join_seconds": join_seconds,
        "reads_during_join": len(stalls),
        "failed_reads": len(failures),
        "max_read_stall_s": max(stalls) if stalls else 0.0,
    }
    print(f"\nEXP-SHARD node join: moved {report.documents_moved} docs "
          f"+ {report.index_entries_total} index entries in "
          f"{join_seconds * 1000:.0f} ms; "
          f"{len(stalls)} live reads, {len(failures)} failed, "
          f"worst stall {max(stalls) * 1000:.1f} ms")
    assert failures == []
    assert report.documents_moved > 0
    assert len(stalls) > 0
    cluster.close()

    RESULTS["config"] = {
        "wan_one_way_ms": WAN_ONE_WAY_MS,
        "inserts": INSERTS,
        "searches": SEARCHES,
        "shard_counts": list(SHARD_COUNTS),
        "pipeline": {"batch_writes": PIPELINE.batch_writes},
    }
    RESULTS_PATH.write_text(json.dumps(RESULTS, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")
