"""EXP-INTEGRITY — what verified reads cost on the paper's WAN.

Two deployments run the identical find-heavy workload (a seeded
corpus, then timed ``find`` passes with interleaved updates so the
HSM write counter moves and the freshness ledger re-syncs) over the
40 ms one-way gateway→cloud link:

* **off** — ``PipelineConfig()``: the seed's trusting read path.
* **fetch** — proof-on-fetch: every document fetch is rewritten to its
  proven variant, inclusion proofs checked against the gateway ledger.
  The honest overhead is the per-envelope verification plus one ledger
  ``report()`` round trip after each write burst.  The on-demand audit
  sweep (``integrity_audit()``) runs once after the timed ops, off the
  clock, and is timed separately.

Acceptance: proof-on-fetch costs <= 25% of find throughput, and
integrity never adds or changes stored zone state (reads leave the
fingerprint untouched; both zones are structurally identical).

A second block, ``merkle``, gates the cloud-side tree upkeep itself:
the cost of one leaf update plus ``root()`` (and of one ``proof()``) on
a live tree against rebuilding a tree from the same leaf set, as the
median of paired trials — a ratio of two timings taken back to back,
so machine load moves both sides together.

Results land in ``BENCH_integrity.json`` at the repo root.  Run
standalone with ``python benchmarks/bench_integrity.py --smoke`` for
the reduced CI profile.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.analysis.snapshot import SnapshotAdversary, zone_fingerprint
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.fhir.model import observation_schema
from repro.integrity import IntegrityConfig
from repro.integrity.merkle import MerkleTree, leaf_key, verify_inclusion
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.transport import InProcTransport

#: The paper's gateway→public-cloud link.
WAN_ONE_WAY_MS = 40.0
SEED_DOCS = 24
#: Timed find operations per mode; every 5th op is an update, which
#: dirties the ledger so fetch mode pays its honest re-sync round trip.
TIMED_OPS = int(os.environ.get("DATABLINDER_INTEGRITY_BENCH_OPS", "40"))

#: Acceptance ceilings (percent throughput loss vs the "off" baseline).
FETCH_OVERHEAD_CEILING = 25.0

#: Merkle upkeep gate: paired trials per size, and the floor on the
#: median (from-scratch build) / (one update + root()) ratio at each
#: leaf count.  Measured ~60x / ~470x; the rebuild-on-read tree this
#: replaced sat at ~1x by construction.
MERKLE_TRIALS = 50
MERKLE_FLOORS = {1_000: 10.0, 10_000: 50.0}

APP = "bench-integrity"

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_integrity.json"
)

MODES = {
    "off": None,
    "fetch": IntegrityConfig(),
}


def make_doc(i: int) -> dict:
    return {
        "id": f"f{i}",
        "identifier": i,
        "status": "final" if i % 2 == 0 else "amended",
        "code": ("glucose", "insulin", "hba1c")[i % 3],
        "subject": f"Patient {i % 6}",
        "effective": 1000 + i,
        "issued": 2000 + i,
        "performer": "Dr",
        "value": float(i),
        "interpretation": "",
    }


def deploy(registry, mode: str):
    cloud = CloudZone(registry)
    transport = InProcTransport(
        cloud.host,
        NetworkModel(one_way_latency_ms=WAN_ONE_WAY_MS, sleep=True),
    )
    blinder = DataBlinder(
        f"{APP}-{mode}", transport, registry=registry,
        pipeline=PipelineConfig(integrity=MODES[mode]),
    )
    blinder.register_schema(observation_schema())
    return cloud, blinder


def run_mode(registry, mode: str) -> dict:
    cloud, blinder = deploy(registry, mode)
    application = f"{APP}-{mode}"
    observations = blinder.entities("observation")
    ids = [observations.insert(make_doc(i)) for i in range(SEED_DOCS)]
    seeded_fingerprint = zone_fingerprint(cloud, application)

    statuses = ("final", "amended")
    codes = ("glucose", "insulin", "hba1c")
    latencies: list[float] = []
    checksum = 0
    started = time.perf_counter()
    for op in range(TIMED_OPS):
        t0 = time.perf_counter()
        if op % 5 == 4:
            observations.update(ids[op % SEED_DOCS],
                                {"value": float(1000 + op)})
        elif op % 2 == 0:
            checksum += len(observations.find(
                Eq("status", statuses[op % len(statuses)])
            ))
        else:
            checksum += len(observations.find(
                Eq("code", codes[op % len(codes)])
            ))
        latencies.append((time.perf_counter() - t0) * 1000.0)
    elapsed = time.perf_counter() - started

    audit_ms = None
    if MODES[mode] is not None:
        t0 = time.perf_counter()
        summary = blinder.integrity_audit()
        audit_ms = (time.perf_counter() - t0) * 1000.0
        assert summary["roots_checked"] > 0

    # Reads (verified or not) never touch stored state: only the five
    # timed updates moved the fingerprint, and re-running the read-only
    # tail leaves it where it is.
    fingerprint = zone_fingerprint(cloud, application)
    assert fingerprint != seeded_fingerprint  # the updates landed
    observations.find(Eq("status", "final"))
    assert zone_fingerprint(cloud, application) == fingerprint

    report = SnapshotAdversary(cloud, application).report()
    ordered = sorted(latencies)
    stats = blinder.runtime.transport.stats()
    row = {
        "ops": TIMED_OPS,
        "throughput_ops_s": round(TIMED_OPS / elapsed, 3),
        "mean_ms": round(statistics.fmean(latencies), 1),
        "p95_ms": round(ordered[int(0.95 * (len(ordered) - 1))], 1),
        "checksum": checksum,
        "documents": report.documents,
        "kv_entries": report.kv_entries,
        "integrity_failures": stats.integrity_failures,
        "stale_detected": stats.stale_detected,
    }
    if audit_ms is not None:
        row["audit_sweep_ms"] = round(audit_ms, 1)
    return row


def write_results(blocks: dict) -> None:
    """Replace the named top-level blocks of ``BENCH_integrity.json``,
    keeping the ones the other test wrote."""
    results = (json.loads(RESULTS_PATH.read_text())
               if RESULTS_PATH.exists() else {})
    results.update(blocks)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _merkle_items(n: int) -> list[tuple[bytes, bytes]]:
    return [(leaf_key(b"d", f"doc{i}".encode()), f"body{i}".encode())
            for i in range(n)]


def _build(items) -> MerkleTree:
    tree = MerkleTree()
    for key, value in items:
        tree.update(key, value)
    tree.root()
    return tree


def run_merkle(n: int, trials: int) -> dict:
    """Paired trials at ``n`` leaves: rewrite one leaf on a live tree
    and read the root, prove that leaf, then build a second tree from
    the same leaf set — all three must agree."""
    items = _merkle_items(n)
    live = _build(items)
    update_ms, proof_ms, build_ms, ratios, steps = [], [], [], [], []
    for trial in range(trials):
        index = (trial * 7919) % n
        key, value = items[index][0], f"rewrite{trial}".encode()
        items[index] = (key, value)

        t0 = time.perf_counter()
        live.update(key, value)
        root = live.root()
        t1 = time.perf_counter()
        proof = live.proof(key)
        t2 = time.perf_counter()
        rebuilt = _build(items)
        t3 = time.perf_counter()

        assert rebuilt.root() == root
        assert verify_inclusion(root, key, value, proof)
        update_ms.append((t1 - t0) * 1000.0)
        proof_ms.append((t2 - t1) * 1000.0)
        build_ms.append((t3 - t2) * 1000.0)
        ratios.append((t3 - t2) / (t1 - t0))
        steps.append(len(proof))
    quartiles = statistics.quantiles(ratios, n=4)
    return {
        "leaves": n,
        "trials": trials,
        "update_root_ms": round(statistics.median(update_ms), 4),
        "proof_ms": round(statistics.median(proof_ms), 4),
        "build_ms": round(statistics.median(build_ms), 2),
        "build_over_update_root": round(statistics.median(ratios), 1),
        "ratio_iqr": [round(quartiles[0], 1), round(quartiles[2], 1)],
        "proof_steps_max": max(steps),
    }


def test_merkle_upkeep():
    print(f"\nEXP-MERKLE tree upkeep, median of {MERKLE_TRIALS} paired "
          f"trials")
    rows = {}
    for n, floor in MERKLE_FLOORS.items():
        row = rows[str(n)] = run_merkle(n, MERKLE_TRIALS)
        print(f"  {n:>6} leaves  update+root {row['update_root_ms']:.3f} ms"
              f"   proof {row['proof_ms']:.3f} ms"
              f"   build {row['build_ms']:.1f} ms"
              f"   ratio {row['build_over_update_root']:.0f}x"
              f" (floor {floor:.0f}x)")
    write_results({"merkle": rows})
    for n, floor in MERKLE_FLOORS.items():
        row = rows[str(n)]
        assert row["build_over_update_root"] >= floor, row
        # ceil(log2 n) + 2 steps at most.
        assert row["proof_steps_max"] <= (n - 1).bit_length() + 2, row


def test_integrity_overhead(registry):
    print(f"\nEXP-INTEGRITY find workload on "
          f"{WAN_ONE_WAY_MS:.0f} ms one-way WAN "
          f"({TIMED_OPS} timed ops, {SEED_DOCS} docs)")
    rows = {}
    for mode in MODES:
        rows[mode] = run_mode(registry, mode)
        extra = (f"   audit sweep {rows[mode]['audit_sweep_ms']:.0f} ms"
                 if "audit_sweep_ms" in rows[mode] else "")
        print(f"  {mode:<6} {rows[mode]['throughput_ops_s']:>7.2f} ops/s"
              f"   mean {rows[mode]['mean_ms']:>7.0f} ms"
              f"   p95 {rows[mode]['p95_ms']:>7.0f} ms{extra}")

    base = rows["off"]["throughput_ops_s"]
    overhead = {"fetch": round(
        100.0 * (1.0 - rows["fetch"]["throughput_ops_s"] / base), 2)}
    print(f"  overhead vs off: fetch {overhead['fetch']:+.1f}%")

    write_results({
        "config": {
            "wan_one_way_ms": WAN_ONE_WAY_MS,
            "seed_docs": SEED_DOCS,
            "timed_ops": TIMED_OPS,
            "mix": {"find": 0.8, "update": 0.2},
            "fetch_overhead_ceiling_pct": FETCH_OVERHEAD_CEILING,
        },
        "modes": rows,
        "overhead_pct": overhead,
    })
    print(f"results written to {RESULTS_PATH}")

    # Same answers, same zone shape, zero spurious detections.
    fetch, off = rows["fetch"], rows["off"]
    assert fetch["checksum"] == off["checksum"]
    assert fetch["documents"] == off["documents"]
    assert fetch["kv_entries"] == off["kv_entries"]
    assert fetch["integrity_failures"] == 0
    assert fetch["stale_detected"] == 0

    # Acceptance: proof-on-fetch <= 25% find-throughput cost.
    assert overhead["fetch"] <= FETCH_OVERHEAD_CEILING, overhead


def main(argv: list[str]) -> int:
    """Standalone entry point; ``--smoke`` shrinks the workload for CI."""
    import pytest

    if "--smoke" in argv:
        os.environ["DATABLINDER_INTEGRITY_BENCH_OPS"] = "15"
        global TIMED_OPS
        TIMED_OPS = 15
    return pytest.main(["-q", "-s", __file__])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
