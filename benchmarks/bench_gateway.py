"""EXP-GATEWAY — concurrent users through the async gateway runtime.

Many simulated clients (64 / 256 / 1024) drive the §5.2 workload mix
over the 40 ms one-way gateway→cloud WAN link, three ways:

* **threadpool** — plain sync ``Entities`` behind a
  ``ThreadPoolExecutor()`` with Python's default sizing
  (``min(32, cores + 4)``, 5-6 workers on the testbed).  Every
  in-flight operation pins a worker thread for its full WAN round
  trips, so throughput is capped at ``workers / latency`` no matter how
  many clients arrive.
* **sync_facade** — the same blocking callers through
  :class:`~repro.gateway.runtime.SyncGateway`: each call is admitted
  on the gateway's event loop and runs on one of its
  ``max_in_flight + 4`` worker threads (``max_in_flight = clients``
  here).
* **async_native** — coroutine clients submitting straight into
  :class:`~repro.gateway.runtime.AsyncGatewayRuntime`; same workers,
  no thread per *client*.

All three modes run the identical pipeline (batched writes, fan-out,
prefetch, precomputed crypto kernels) and, below the entity façade, the
identical code: one synchronous engine over one synchronous transport
stack.  What differs is the number of workers that may sit in a WAN
wait at once (5-6 vs ``clients + 4``) and the admission in front of
them — the benchmark measures worker count and admission, not a
different wire path.  Every client issues about one operation
(``operations == clients``), so each scale is a burst: latency
percentiles mostly reflect how the burst was released (1024 client
threads start over ~1 s, 1024 coroutines at once).  Every runtime-mode
operation carries a deadline; the run asserts none expired (no
starvation under load).

Timed searches and aggregates target a pre-seeded corpus while timed
inserts use a disjoint patient cohort: Mitra's update protocol bumps its
gateway-side counter before the batched index entry reaches the cloud,
so a concurrent search on the *same* keyword would observe a gap.
Keyword-disjoint reads and writes keep the mix race-free without
serialising it.  Only ``subject`` is disjoint, though: a timed search
on ``status`` or ``code`` also returns whichever timed inserts of the
same burst have landed, so documents fetched and decrypted per search
— and with them ops/s — depend on how fast inserts land.  Two builds
are not doing equal work here (EXPERIMENTS.md, EXP-ONEPATH).

Results land in ``BENCH_gateway.json`` at the repo root.  Run standalone
with ``python benchmarks/bench_gateway.py --smoke`` for the reduced CI
profile.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.bench.loadgen import LoadResult, run_load
from repro.bench.metrics import MetricsRecorder
from repro.bench.workloads import (
    OP_AGGREGATE,
    OP_EQ_SEARCH,
    OP_INSERT,
    SEARCHABLE_FIELDS,
    Operation,
)
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, Eq
from repro.crypto.kernels.config import CryptoConfig
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.transport import InProcTransport
from repro.spi.descriptors import Aggregate

#: The paper's gateway→public-cloud link.
WAN_ONE_WAY_MS = 40.0
#: Generous per-operation deadline; the starvation check asserts no
#: operation expired, so it must sit far above honest queueing delay.
DEADLINE_S = 120.0
SEED = 2019

CLIENT_SCALES = tuple(
    int(n) for n in os.environ.get(
        "DATABLINDER_GATEWAY_BENCH_CLIENTS", "64,256,1024"
    ).split(",")
)
#: Async-vs-threadpool speedup floor, asserted at the largest scale
#: >= 256 present in the run (the acceptance setting).  The CI smoke
#: runs tiny scales where queueing never builds up, and lowers it.
SPEEDUP_FLOOR = float(
    os.environ.get("DATABLINDER_GATEWAY_BENCH_FLOOR", "4.0")
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_gateway.json"
)
RESULTS: dict = {}

PIPELINE = PipelineConfig(
    batch_writes=True, fanout_workers=4, prefetch=True,
    crypto=CryptoConfig(precompute=True),
)


def deploy(registry, application):
    from repro.cloud.server import CloudZone

    cloud = CloudZone(registry)
    transport = InProcTransport(
        cloud.host,
        NetworkModel(one_way_latency_ms=WAN_ONE_WAY_MS, sleep=True),
    )
    blinder = DataBlinder(application, transport, registry=registry,
                          verify_results=False, pipeline=PIPELINE)
    blinder.register_schema(benchmark_observation_schema())
    return blinder


def gateway_workload(operations, seed=SEED):
    """A seed corpus plus ``operations`` timed steps of the §5.2 mix.

    Searches and aggregates draw their keywords from the seed corpus
    only; timed inserts use a disjoint cohort (see the module docstring
    for why the Mitra keyword spaces must not overlap mid-flight).
    """
    rng = random.Random(seed)
    generator = MedicalDataGenerator(seed)
    search_cohort = [generator.patient() for _ in range(8)]
    insert_cohort = [generator.patient() for _ in range(8)]
    seed_docs = [
        generator.observation(rng.choice(search_cohort)).to_document()
        for _ in range(max(12, operations // 8))
    ]
    values = {
        field: [d[field] for d in seed_docs if d.get(field) is not None]
        for field in SEARCHABLE_FIELDS
    }
    subjects = [d["subject"] for d in seed_docs]
    timed = []
    for kind in rng.choices(
        [OP_INSERT, OP_EQ_SEARCH, OP_AGGREGATE],
        weights=[1, 1, 1], k=operations,
    ):
        if kind == OP_INSERT:
            timed.append(Operation(OP_INSERT, document=generator
                         .observation(rng.choice(insert_cohort))
                         .to_document()))
        elif kind == OP_EQ_SEARCH:
            field = rng.choice(SEARCHABLE_FIELDS)
            candidates = values[field]
            timed.append(Operation(
                OP_EQ_SEARCH, field=field,
                value=rng.choice(candidates) if candidates else "final",
            ))
        else:
            timed.append(Operation(
                OP_AGGREGATE, agg_field="value", where_field="subject",
                where_value=rng.choice(subjects),
            ))
    return seed_docs, timed


# -- the three concurrency modes ----------------------------------------------


class PooledGatewayApp:
    """Pre-refactor baseline: blocking operations on a default-sized
    thread pool.  ``ThreadPoolExecutor()`` is ``min(32, cores + 4)``
    workers — the sizing a sync service gets out of the box, which
    couples in-flight operations to threads."""

    name = "threadpool"

    def __init__(self, blinder: DataBlinder):
        self._entities = blinder.entities("observation")
        self._pool = ThreadPoolExecutor()

    @property
    def workers(self) -> int:
        return self._pool._max_workers

    def insert(self, document):
        return self._pool.submit(self._entities.insert, document).result()

    def eq_search(self, field, value):
        return self._pool.submit(self._entities.find,
                                 Eq(field, value)).result()

    def average(self, field, where_field, where_value):
        return self._pool.submit(
            self._entities.aggregate,
            AggregateQuery(Aggregate.AVG, field,
                           where=Eq(where_field, where_value)),
        ).result()

    def close(self):
        self._pool.shutdown(wait=False)


class FacadeGatewayApp:
    """The same blocking callers through the ``SyncGateway`` façade."""

    name = "sync_facade"

    def __init__(self, blinder: DataBlinder, users: int):
        self._gateway = blinder.sync_gateway(
            principal="bench", deadline_s=DEADLINE_S,
            max_in_flight=users, max_queue=4 * users,
        )
        self._entities = self._gateway.entities("observation")

    def insert(self, document):
        return self._entities.insert(document)

    def eq_search(self, field, value):
        return self._entities.find(Eq(field, value))

    def average(self, field, where_field, where_value):
        return self._entities.aggregate(
            AggregateQuery(Aggregate.AVG, field,
                           where=Eq(where_field, where_value))
        )

    def close(self):
        self._gateway.close()


def run_async_load(blinder: DataBlinder, operations, users: int,
                   name: str = "async_native") -> LoadResult:
    """Closed-loop coroutine clients over the gateway runtime.

    The coroutine twin of :func:`repro.bench.loadgen.run_load`: ``users``
    coroutine workers pull operations from a shared queue, submit each
    through :meth:`AsyncGatewayRuntime.submit` (admission, deadline,
    audit) and record its end-to-end latency."""
    runtime = blinder.async_runtime(
        max_in_flight=users, max_queue=4 * users,
        default_deadline_s=DEADLINE_S,
    )
    aentities = runtime.entities("observation")
    recorder = MetricsRecorder()
    errors: list[str] = []

    def make(operation):
        if operation.kind == OP_INSERT:
            return lambda: aentities.insert(dict(operation.document))
        if operation.kind == OP_EQ_SEARCH:
            return lambda: aentities.find(
                Eq(operation.field, operation.value)
            )
        return lambda: aentities.aggregate(AggregateQuery(
            Aggregate.AVG, operation.agg_field,
            where=Eq(operation.where_field, operation.where_value),
        ))

    async def user(queue: asyncio.Queue) -> None:
        while True:
            try:
                operation = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            started = time.perf_counter()
            try:
                await asyncio.wrap_future(runtime.submit(
                    make(operation), principal="bench",
                    op=operation.kind,
                ))
            except Exception as exc:  # noqa: BLE001 - collect, don't die
                errors.append(f"{operation.kind}: {exc}")
            else:
                recorder.record(operation.kind,
                                time.perf_counter() - started)

    async def main() -> None:
        queue: asyncio.Queue = asyncio.Queue()
        for operation in operations:
            queue.put_nowait(operation)
        await asyncio.gather(*[user(queue) for _ in range(users)])

    started = time.perf_counter()
    asyncio.run(main())
    elapsed = time.perf_counter() - started
    return LoadResult(report=recorder.report(name, elapsed=elapsed),
                      errors=errors)


# -- measurement --------------------------------------------------------------


def stats_dict(report):
    # One shared spelling for every BENCH_*.json (p50/p75/p95/p99).
    return report.per_operation["overall"].as_dict()


def measure_scale(registry, users):
    seed_docs, timed = gateway_workload(users)
    row = {}

    blinder = deploy(registry, f"bench-gw-pool-{users}")
    blinder.entities("observation").insert_many(
        [dict(d) for d in seed_docs]
    )
    app = PooledGatewayApp(blinder)
    result = run_load(app, timed, users=users)
    assert not result.errors, result.errors[:3]
    row["threadpool"] = stats_dict(result.report)
    row["threadpool"]["workers"] = app.workers
    app.close()

    blinder = deploy(registry, f"bench-gw-facade-{users}")
    blinder.entities("observation").insert_many(
        [dict(d) for d in seed_docs]
    )
    app = FacadeGatewayApp(blinder, users)
    result = run_load(app, timed, users=users)
    assert not result.errors, result.errors[:3]
    snapshot = blinder.async_runtime().stats.snapshot()
    app.close()
    assert snapshot["expired"] == 0, snapshot
    row["sync_facade"] = stats_dict(result.report)
    row["sync_facade"]["expired"] = snapshot["expired"]

    blinder = deploy(registry, f"bench-gw-async-{users}")
    blinder.entities("observation").insert_many(
        [dict(d) for d in seed_docs]
    )
    result = run_async_load(blinder, timed, users)
    assert not result.errors, result.errors[:3]
    runtime = blinder.async_runtime()
    snapshot = runtime.stats.snapshot()
    runtime.close()
    assert snapshot["expired"] == 0, snapshot
    assert snapshot["completed"] == len(timed)
    row["async_native"] = stats_dict(result.report)
    row["async_native"]["expired"] = snapshot["expired"]

    base = row["threadpool"]["throughput_ops_s"]
    row["speedup_async_vs_threadpool"] = round(
        row["async_native"]["throughput_ops_s"] / base, 2
    )
    row["speedup_facade_vs_threadpool"] = round(
        row["sync_facade"]["throughput_ops_s"] / base, 2
    )
    return row


def render_row(users, row):
    lines = [f"  {users} clients:"]
    for mode in ("threadpool", "sync_facade", "async_native"):
        s = row[mode]
        lines.append(
            f"    {mode:<12} {s['throughput_ops_s']:>8.1f} ops/s   "
            f"p50 {s['p50_ms']:>7.0f} ms   p95 {s['p95_ms']:>7.0f} ms   "
            f"p99 {s['p99_ms']:>7.0f} ms"
        )
    lines.append(
        f"    async {row['speedup_async_vs_threadpool']:.1f}x / facade "
        f"{row['speedup_facade_vs_threadpool']:.1f}x over threadpool"
    )
    return "\n".join(lines)


def test_concurrent_user_scaling(registry):
    """64/256/1024 clients, three concurrency models, one WAN."""
    print(f"\nEXP-GATEWAY mixed workload on "
          f"{WAN_ONE_WAY_MS:.0f} ms one-way WAN")
    scales = {}
    for users in CLIENT_SCALES:
        scales[str(users)] = measure_scale(registry, users)
        print(render_row(users, scales[str(users)]))

    RESULTS["scales"] = scales
    RESULTS["config"] = {
        "wan_one_way_ms": WAN_ONE_WAY_MS,
        "deadline_s": DEADLINE_S,
        "client_scales": list(CLIENT_SCALES),
        "mix": {"insert": 1 / 3, "eq_search": 1 / 3,
                "aggregate": 1 / 3},
        "speedup_floor": SPEEDUP_FLOOR,
        "pipeline": {
            "batch_writes": True, "fanout_workers": 4,
            "prefetch": True, "crypto_precompute": True,
        },
    }
    RESULTS_PATH.write_text(json.dumps(RESULTS, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")

    # Acceptance: at the headline scale the event-loop core beats the
    # thread-pool gateway by the floor factor, and the facade — same
    # blocking callers, new runtime — carries most of that win.
    headline = [u for u in CLIENT_SCALES if u >= 256]
    for users in headline or list(CLIENT_SCALES):
        row = scales[str(users)]
        assert row["speedup_async_vs_threadpool"] >= SPEEDUP_FLOOR, row
        assert (row["speedup_facade_vs_threadpool"]
                >= SPEEDUP_FLOOR * 0.75), row
    # More clients must not melt the loop: async throughput at the top
    # scale stays within 40% of the smallest scale's.
    first = scales[str(CLIENT_SCALES[0])]["async_native"]
    last = scales[str(CLIENT_SCALES[-1])]["async_native"]
    assert last["throughput_ops_s"] >= 0.6 * first["throughput_ops_s"]


def main(argv: list[str]) -> int:
    """Standalone entry point; ``--smoke`` shrinks the workload for CI."""
    import pytest

    if "--smoke" in argv:
        os.environ["DATABLINDER_GATEWAY_BENCH_CLIENTS"] = "8,16"
        os.environ["DATABLINDER_GATEWAY_BENCH_FLOOR"] = "0.0"
        global CLIENT_SCALES, SPEEDUP_FLOOR
        CLIENT_SCALES = (8, 16)
        SPEEDUP_FLOOR = 0.0
    return pytest.main(["-q", "-s", __file__])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
