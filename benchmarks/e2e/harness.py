"""The harness behind ``bench_e2e.py``: set-up, the untraced and traced
runs, reporting and the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import mean, median

from e2e import metrics, profile, runner, trace, workloads
from e2e.oracle import Oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
#: Set-ups per run; ``setup_s`` is their median (prime generation is
#: unseeded, so one set-up alone is a noisy reading).
SETUP_REPEATS = 3
SINGLE_CLIENT = ("cpu_mix_closed", "hot_read_zipf", "bulk_write")
#: Operations per alternating untraced/traced block of a traced run.
TRACE_BLOCK = 16


# -- set-up, census, post-run verification -----------------------------------


def set_up(workload) -> tuple[profile.Deployment, Oracle, float]:
    """Deploy + register the schema + seed the corpus; timed."""
    started = time.perf_counter()
    deployment = profile.deploy(workload.latency_ms, workload.schema())
    ids = deployment.entities().insert_many(
        [dict(document) for document in workload.corpus])
    elapsed = time.perf_counter() - started
    return deployment, Oracle(workload.corpus, ids), elapsed


def set_up_repeated(workload, repeats: int):
    """``repeats`` full set-ups; keeps the last, reports the median of
    their times, each scaled by the machine speed measured around it."""
    times = []
    for attempt in range(repeats):
        speed = [metrics.calibration_kernel() for _ in range(10)]
        deployment, oracle, elapsed = set_up(workload)
        speed += [metrics.calibration_kernel() for _ in range(10)]
        times.append(elapsed / metrics.speed_of(speed))
        if attempt < repeats - 1:
            deployment.close()
    return deployment, oracle, median(times)


def sampler(samples: list[float]):
    """``between`` hook of a closed loop: one calibration sample."""
    return lambda: samples.append(metrics.calibration_kernel())


def census(deployment: profile.Deployment) -> tuple[int, int]:
    """(document-store bytes, index bytes) summed over the cloud nodes."""
    doc_bytes = index_bytes = 0
    for name in deployment.cluster.names():
        kv, documents = deployment.cluster.zone(name).application_stores(
            profile.APPLICATION)
        doc_bytes += documents.size_in_bytes()
        index_bytes += kv.size_in_bytes()
    return doc_bytes, index_bytes


def verify_after(workload, deployment, oracle, rng) -> list[str]:
    """Post-run state checks against the oracle, WAN sleeps skipped.

    Returns the list of mismatches (empty = state is right).
    """
    from repro.errors import DocumentNotFound, RemoteError

    deployment.skip_wan()
    entities = deployment.entities()
    problems = []
    total = entities.count()
    if total != len(oracle.docs):
        problems.append(f"store holds {total} documents, oracle "
                        f"{len(oracle.docs)}")
    written = [slot for slot in oracle.docs if slot >= oracle.seeded]
    if workload.name == "wan_mix_open":
        probe = written  # every acknowledged insert must be readable
    else:
        probe = rng.sample(written, min(50, len(written)))
    for slot in probe:
        try:
            wrong = oracle.check_document(
                slot, entities.get(oracle.ids[slot]))
        except (DocumentNotFound, RemoteError) as exc:
            wrong = f"{type(exc).__name__}"
        if wrong:
            problems.append(f"slot {slot}: {wrong}")
    gone = [slot for slot in oracle.ids if slot not in oracle.docs]
    for slot in rng.sample(gone, min(20, len(gone))):
        try:
            entities.get(oracle.ids[slot])
            problems.append(f"deleted slot {slot} is still readable")
        except (DocumentNotFound, RemoteError):
            pass
    finds = [op for op in workload.ops if op.kind == "find_eq"]
    for op in rng.sample(finds, min(50, len(finds))):
        wrong = oracle.check(op, runner.invoke(entities, op, oracle.ids))
        if wrong:
            problems.append(f"final {op.field} find: {wrong}")
    return problems


# -- one untraced run ----------------------------------------------------------


def run_open_loop(workload, deployment, oracle) -> tuple[list, dict]:
    """The open-loop schedule through the async gateway; returns the
    checked outcomes and the runtime's admission counters."""
    gateway = deployment.gateway()
    outcomes = runner.run_open(workload.ops, runner.gateway_submitter(
        gateway, gateway.entities(workload.schema_name), oracle,
        profile.DEADLINE_S))
    gateway.drain()
    runner.check_open(workload.ops, outcomes, oracle)
    return outcomes, gateway.stats.snapshot()


def run_untraced(name: str, seed: int, seconds: float,
                 scale: float = 1.0, setups: int = SETUP_REPEATS) -> dict:
    workload = workloads.generate(name, seed, seconds, scale)
    deployment, oracle, setup_s = set_up_repeated(workload, setups)
    speed: list[float] = []
    try:
        if workload.loop == "open":
            outcomes, snapshot = run_open_loop(workload, deployment, oracle)
        else:
            outcomes = runner.run_closed(
                workload.ops, deployment.entities(), oracle, seconds,
                every=workload.calibrate_every, between=sampler(speed))
            snapshot = {}
        doc_bytes, index_bytes = census(deployment)
        stored_ratio = (doc_bytes + index_bytes) / oracle.user_bytes()
        problems = verify_after(workload, deployment, oracle,
                                random.Random(seed))
    finally:
        deployment.close()
    gated, detail = metrics.summarise(
        outcomes, setup_s, stored_ratio,
        metrics.apply_speed(outcomes, speed, workload.calibrate_every))
    detail.update(metrics.gateway_metrics(outcomes, snapshot))
    detail.update({
        "digest": workload.digest(),
        "stores.doc_bytes": doc_bytes,
        "stores.index_bytes": index_bytes,
        "verify_problems": problems,
    })
    wrong = sum(1 for o in outcomes if o.error.startswith("wrong"))
    failed = sum(1 for o in outcomes if o.error)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "correct": wrong == 0 and not problems,
        "attempted": len(outcomes), "failed": failed,
        "metrics": gated, "detail": detail,
    }


# -- the traced run ------------------------------------------------------------


def counters(deployment) -> dict:
    """The counters the layers already export, flattened."""
    from repro.net.latency import roll_up

    runtime = deployment.runtime
    net = roll_up(runtime.transport.labeled_stats())
    plan = deployment.blinder.planner_stats(deployment.schema.name)
    cache = runtime.cache_tier.snapshot()
    return {
        "frames": net.messages_sent, "bytes_sent": net.bytes_sent,
        "bytes_received": net.bytes_received,
        "dedup_evictions": net.dedup_evictions,
        "plan_hits": plan["cache_hits"], "plan_misses": plan["cache_misses"],
        "plan_compiles": plan["compiles"],
        "token_hits": cache["tokens"]["hits"],
        "token_misses": cache["tokens"]["misses"],
        "result_hits": cache["results"]["hits"],
        "result_misses": cache["results"]["misses"],
        "doc_hits": cache["documents"]["hits"],
        "doc_misses": cache["documents"]["misses"],
        "evictions": (cache["results"]["evictions"]
                      + cache["documents"]["evictions"]),
        "invalidations": (cache["results"]["invalidations"]
                          + cache["documents"]["invalidations"]),
    }


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def sequential_client(workload, deployment):
    """The one-client surface of the traced passes: sync ``Entities``,
    or the blocking gateway façade for the open-loop workload so the
    spans cover the async code path its timed run uses."""
    if workload.loop == "open":
        return deployment.blinder.sync_gateway(
            principal="bench", deadline_s=profile.DEADLINE_S,
            max_in_flight=profile.MAX_IN_FLIGHT,
        ).entities(workload.schema_name)
    return deployment.entities()


def run_traced(name: str, seed: int, seconds: float,
               scale: float = 1.0) -> dict:
    """Per-layer metrics: an untraced and a traced sequential pass over
    the same first operations (one client, no arrival schedule), each
    on a fresh deployment; the open-loop workload first replays its
    schedule untraced, where queueing actually occurs."""
    workload = workloads.generate(name, seed, seconds, scale)
    # one client, no schedule: the phases of an open loop interleaved
    ops = sorted(workload.ops, key=lambda op: op.due)

    # pass 0 (open loop only): gateway queueing under the real schedule
    if workload.loop == "open":
        deployment, oracle, _ = set_up(workload)
        try:
            queued, snapshot = run_open_loop(workload, deployment, oracle)
        finally:
            deployment.close()
    else:
        queued, snapshot = [], {}

    # passes A (untraced) and B (traced): the same operations, one
    # client, alternating blocks so machine noise hits both alike
    tracer = trace.Tracer()
    bare, bare_oracle, _ = set_up(workload)
    deployment, oracle, _ = set_up(workload)
    plain, traced = [], []
    speed: list[float] = []
    try:
        trace.instrument(deployment, tracer)
        bare_client = sequential_client(workload, bare)
        client = sequential_client(workload, deployment)
        tier = deployment.runtime.cache_tier
        before = counters(deployment)

        @contextmanager
        def op_span(index, op):
            hits = tier.results.hits + tier.documents.hits
            with tracer.op(index, op.cls) as root:
                yield root
            root.note["cache_hit"] = (
                tier.results.hits + tier.documents.hits > hits)

        deadline = time.perf_counter() + seconds
        while len(plain) < len(ops):
            left = (deadline - time.perf_counter()) / 2
            block = runner.run_closed(ops, bare_client, bare_oracle, left,
                                      start=len(plain), limit=TRACE_BLOCK)
            if not block:
                break
            traced += runner.run_closed(
                ops, client, oracle, 3600.0, op_span=op_span,
                start=len(plain), limit=len(block),
                every=workload.calibrate_every, between=sampler(speed))
            plain += block
        after = counters(deployment)
        doc_bytes, index_bytes = census(deployment)
        node_cv = trace.docs_per_node_cv(deployment)
    finally:
        bare.close()
        deployment.close()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{name}.jsonl")

    factor = metrics.apply_speed(traced, speed, workload.calibrate_every)
    table = trace.budget(tracer, factor)
    layers = trace.layer_metrics(tracer, table, profile.NODES, factor)
    delta = {key: after[key] - before[key] for key in after}
    n_ops = len(traced)
    writes = sum(1 for o in traced
                 if o.cls in ("insert", "update", "delete")) or 1
    everything = queued + plain + traced
    queued = queued or plain   # a closed loop's own issue/idle gaps
    false_alarms = sum(
        1 for o in everything
        if o.error in ("StaleStateError", "IntegrityError"))
    untraced_ms = mean(o.latency_ms for o in plain)
    traced_ms = mean(o.latency_ms for o in traced)
    hit_ms = [r.duration * 1000 / factor for r in tracer.roots
              if r.note["cache_hit"]]
    miss_ms = [r.duration * 1000 / factor for r in tracer.roots
               if not r.note["cache_hit"]]
    layers.update(metrics.gateway_metrics(queued, snapshot))
    layers.update({
        "core.plan_cache_hit_ratio": ratio(delta["plan_hits"],
                                           delta["plan_misses"]),
        "core.plan_compiles": delta["plan_compiles"],
        "crypto.token_cache_hit_ratio": ratio(delta["token_hits"],
                                              delta["token_misses"]),
        "net.frames_per_op": delta["frames"] / n_ops,
        "net.bytes_sent_per_op": delta["bytes_sent"] / n_ops,
        "net.bytes_received_per_op": delta["bytes_received"] / n_ops,
        "shard.docs_per_node_cv": node_cv,
        "integrity.false_alarms": false_alarms,
        "cache.result_hit_ratio": ratio(delta["result_hits"],
                                        delta["result_misses"]),
        "cache.document_hit_ratio": ratio(delta["doc_hits"],
                                          delta["doc_misses"]),
        "cache.evictions": delta["evictions"],
        "cache.invalidations_per_write": delta["invalidations"] / writes,
        "cloud.dedup_evictions": delta["dedup_evictions"],
        "stores.doc_bytes": doc_bytes,
        "stores.index_bytes": index_bytes,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0,
        "trace.budget_gap_pct": max(
            abs(entry["gap_pct"]) for entry in table.values()),
    })
    detail = {
        "budget": table,
        "cache.hit_p50_ms": median(hit_ms) if hit_ms else None,
        "cache.miss_p50_ms": median(miss_ms) if miss_ms else None,
        "cache.hit_n": len(hit_ms), "cache.miss_n": len(miss_ms),
        "gen_lag_valid": layers["gateway.gen_lag_p90_ms"] <= 100.0,
        "speed_factor": factor,
        "trace_file": str(OUT_DIR / f"trace-{name}.jsonl"),
        "spans": len(tracer.spans),
    }
    wrong = sum(1 for o in everything if o.error.startswith("wrong"))
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "correct": wrong == 0,
        "attempted": len(everything),
        "failed": sum(1 for o in everything if o.error),
        "metrics": layers, "detail": detail,
    }


def print_traced(result: dict, spec: dict) -> None:
    print(f"\n== {result['workload']}  TRACED  seed={result['seed']}  "
          f"spans={result['detail']['spans']}  "
          f"file={result['detail']['trace_file']}")
    print(metrics.render(result["metrics"], spec))
    detail = result["detail"]
    for key in ("cache.hit_p50_ms", "cache.miss_p50_ms"):
        value = detail[key]
        shown = "n/a" if value is None else f"{value:.4f}"
        count = detail[key.replace("_p50_ms", "_n")]
        print(f"  {key:<38} {shown:>12} ms  (n={count})")
    print("  time budget, mean ms per op (self times on the critical "
          "path):")
    header = "".join(f"{layer.split('.')[-1][:9]:>10}"
                     for layer in trace.LAYERS)
    print(f"    {'class':<10}{header}{'sum':>10}{'wall':>10}"
          f"{'gap%':>7}{'rtt':>6}{'n':>6}")
    for cls, entry in sorted(detail["budget"].items()):
        cells = "".join(f"{entry[layer]:>10.3f}" for layer in trace.LAYERS)
        print(f"    {cls:<10}{cells}{entry['sum_ms']:>10.3f}"
              f"{entry['wall_ms']:>10.3f}{entry['gap_pct']:>7.2f}"
              f"{entry['round_trips']:>6.2f}{entry['ops']:>6}")
    if not detail["gen_lag_valid"]:
        print("  ! generator ran more than 100 ms late (p90): invalid run")


# -- diagnostic modes (outside the timed contract) -----------------------------

SWEEP_RATES = (5.0, 10.0, 20.0, 40.0)
SWEEP_SECONDS = 20.0
PAPER_BLOCKS = 10
PAPER_BLOCK_OPS = 100


def run_sweep(seed: int) -> float:
    """Replay ``wan_mix_open`` at fixed rates; the highest one that
    meets the latency limit without a growing backlog."""
    print(f"\n== --sweep: wan_mix_open at {SWEEP_RATES} ops/s, "
          f"{SWEEP_SECONDS:.0f} s each")
    best = 0.0
    for rate in SWEEP_RATES:
        workload = workloads.open_mix_at(rate, seed, SWEEP_SECONDS)
        deployment, oracle, _ = set_up(workload)
        try:
            outcomes, _ = run_open_loop(workload, deployment, oracle)
        finally:
            deployment.close()
        def backlog(share: float) -> int:
            """Ops outstanding ``share`` of the way through their phase."""
            return sum(1 for op, o in zip(workload.ops, outcomes)
                       if op.due <= share * SWEEP_SECONDS / 2
                       < op.due + o.end - o.due)

        half, full = backlog(0.5), backlog(1.0)
        growing = full - half > 0.1 * rate * SWEEP_SECONDS / 2
        good = [o.latency_ms for o in outcomes if not o.error]
        fraction, value = metrics.highest_tail(good)
        ok = value <= metrics.SLO_MS and not growing
        if ok:
            best = max(best, rate)
        print(f"  {rate:>5.0f} ops/s  n={len(outcomes):<4} "
              f"failed={len(outcomes) - len(good):<3} "
              f"p50 {metrics.percentile(good, 0.5):8.1f} ms  "
              f"p{fraction * 100:.0f} {value:8.1f} ms  "
              f"backlog {half}->{full}"
              f"{' growing' if growing else ''}  "
              f"{'ok' if ok else 'over the limit'}")
    print(f"  gateway.max_rate_ok_ops_s {best:.0f} 1/s")
    return best


def run_overlap(seed: int, seconds: float) -> float:
    """Replay ``wan_mix_open`` as one phase, so finds overlap inserts:
    the share of operations the seed then fails with integrity false
    alarms, which the timed workload's two phases keep out."""
    workload = workloads.open_mix_at(workloads.OPEN_RATE_OPS_S, seed,
                                     seconds, phased=False)
    deployment, oracle, _ = set_up(workload)
    try:
        outcomes, _ = run_open_loop(workload, deployment, oracle)
    finally:
        deployment.close()
    _, detail = metrics.summarise(outcomes, 1.0, 1.0)
    alarms = sum(count for error, count in detail["errors"].items()
                 if error in ("StaleStateError", "IntegrityError"))
    where: dict[str, int] = {}
    for op, outcome in zip(workload.ops, outcomes):
        if outcome.error:
            key = f"{op.kind}({op.field})"
            where[key] = where.get(key, 0) + 1
    print(f"\n== --overlap: wan_mix_open in one phase, seed={seed}, "
          f"{len(outcomes)} ops")
    print(f"  failed_share {detail['failed_share']:.4f} share  "
          f"(errors: {detail['errors'] or '-'}; at: {where or '-'})")
    print(f"  integrity.false_alarms {alarms} count")
    for cls in ("insert", "find", "aggregate"):
        print(f"  {cls}_p50_ms {detail[f'{cls}_p50_ms']:.1f} ms  "
              f"(n={detail[f'{cls}_n']})")
    return detail["failed_share"]


def run_paper(seed: int) -> tuple[float, float, float]:
    """S_B (hard-coded tactics) vs S_C (middleware) at the seed-default
    pipeline: median paired overhead over alternating 100-op blocks.

    Reported, not gated — the effect (paper 1.4 %, EXP-F5 0.5 %) is
    smaller than the run-to-run spread.
    """
    from statistics import quantiles

    from repro.bench.scenarios import HardcodedApp, MiddlewareApp
    from repro.cloud.server import CloudZone
    from repro.net.transport import InProcTransport

    workload = workloads.generate(
        "cpu_mix_closed", seed, PAPER_BLOCKS * PAPER_BLOCK_OPS
        / workloads.CLOSED_MAX_RATE + 1)
    zones = [CloudZone(), CloudZone()]
    apps = [HardcodedApp(InProcTransport(zones[0].host)),
            MiddlewareApp(InProcTransport(zones[1].host))]
    for app in apps:
        for document in workload.corpus:
            app.insert(dict(document))

    def block(app, ops) -> float:
        started = time.perf_counter()
        for op in ops:
            if op.kind == "insert":
                app.insert(dict(op.docs[0]))
            elif op.kind == "find_eq":
                app.eq_search(op.field, op.value)
            else:
                app.average(op.field, *op.where)
        return time.perf_counter() - started

    overheads = []
    try:
        for index in range(PAPER_BLOCKS):
            ops = workload.ops[index * PAPER_BLOCK_OPS:
                               (index + 1) * PAPER_BLOCK_OPS]
            order = (0, 1) if index % 2 == 0 else (1, 0)
            times = {side: block(apps[side], ops) for side in order}
            overheads.append((times[1] / times[0] - 1.0) * 100.0)
    finally:
        for zone in zones:
            zone.close()
    q1, _, q3 = quantiles(overheads, n=4, method="inclusive")
    mid = median(overheads)
    print(f"\n== --paper: S_B vs S_C, {PAPER_BLOCKS} alternating blocks of "
          f"{PAPER_BLOCK_OPS} ops (paper 1.4 %, EXP-F5 0.5 %)")
    print(f"  core.sb_to_sc_overhead_pct {mid:.2f} %  "
          f"[q1 {q1:.2f}, q3 {q3:.2f}]  (n={len(overheads)} pairs)")
    return mid, q1, q3


# -- reporting -------------------------------------------------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit}


def print_run(result: dict, spec: dict) -> None:
    detail = result["detail"]
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']}  "
          f"n_attempted={result['attempted']}  failed={result['failed']}"
          f"  measured={detail['elapsed_s']:.2f}s"
          f"  speed_factor={detail['speed_factor']:.3f}")
    counts = {"class_p50_mean_ms": detail["n_ok"],
              "op_mean_ms": detail["n_ok"],
              "op_slow10_mean_ms": max(1, detail["n_ok"] // 10)}
    print(metrics.render(result["metrics"], spec, counts))
    shown = {k: v for k, v in detail.items()
             if k not in ("digest", "verify_problems", "elapsed_s",
                          "speed_factor", "n_ok", "n_attempted")}
    counts = {k: detail[k.split("_p")[0] + "_n"] for k in shown
              if k.endswith(("_p50_ms", "_p95_ms"))
              and k.split("_p")[0] + "_n" in detail}
    counts.update(op_p50_ms=detail["n_ok"], op_p90_ms=detail["n_ok"])
    print(metrics.render(shown, spec, counts))
    for problem in detail["verify_problems"][:5]:
        print(f"  ! verification: {problem}")


def exit_code(result: dict) -> int:
    if not result["correct"]:
        return 1
    if result["workload"] in SINGLE_CLIENT and result["failed"]:
        return 1
    return 0


def driver_line(result: dict, spec: dict, key: str) -> str:
    names = [entry["name"] for entry in spec[key]]
    units = {entry["name"]: entry["unit"] for entry in spec[key]}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": units[name]} for name in names},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_e2e.py",
        description="All-layers-on end-to-end benchmark (see README.md).")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--label", default="run")
    parser.add_argument("--quick", action="store_true",
                        help="every size / 10, no tail percentiles")
    parser.add_argument("--sweep", action="store_true",
                        help="diagnostic: highest wan_mix_open rate "
                             "within the latency limit")
    parser.add_argument("--paper", action="store_true",
                        help="diagnostic: S_B vs S_C middleware overhead")
    parser.add_argument("--overlap", action="store_true",
                        help="diagnostic: wan_mix_open with inserts and "
                             "finds overlapping (integrity false alarms)")
    args = parser.parse_args(argv)
    spec = metrics.load_spec()
    seconds = args.seconds or float(spec["run_seconds"])
    if args.sweep or args.paper or args.overlap:
        if args.sweep:
            run_sweep(args.seed)
        if args.paper:
            run_paper(args.seed)
        if args.overlap:
            run_overlap(args.seed, seconds)
        return 0

    scale = 1.0
    if args.quick:
        seconds, scale = seconds / 10.0, 0.1

    if args.workload and args.trace:
        result = run_traced(args.workload, args.seed, seconds, scale)
        print_traced(result, spec)
        print(driver_line(result, spec, "per_layer"))
        return exit_code(result)
    if args.workload:
        result = run_untraced(args.workload, args.seed, seconds, scale)
        print_run(result, spec)
        print(driver_line(result, spec, "end_to_end"))
        return exit_code(result)

    runs, status = [], 0
    for name in workloads.NAMES:
        for _ in range(args.repeats):
            result = run_untraced(name, args.seed, seconds, scale,
                                  setups=1 if args.quick else SETUP_REPEATS)
            print_run(result, spec)
            runs.append(result)
            status = max(status, exit_code(result))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.label}.json"
    path.write_text(json.dumps(
        {"environment": environment(), "seed": args.seed,
         "seconds": seconds, "runs": runs}, indent=1) + "\n")
    print(f"\nresult file: {path}")
    return status

