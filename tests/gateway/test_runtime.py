"""The async gateway runtime: admission, deadlines, bounded in-flight
concurrency, audit wiring, ordered shutdown and the sync façade."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, Eq
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    RateLimitExceeded,
)
from repro.gateway.frontdoor import AuditLog, FrontDoor, RateLimiter
from repro.gateway.runtime import AsyncGatewayRuntime
from repro.net.latency import NetworkModel
from repro.net.transport import InProcTransport
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics


def build_blinder(name="rtapp", transport=None, registry=None):
    if transport is None:
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        transport = InProcTransport(CloudZone(registry).host)
    blinder = DataBlinder(name, transport, registry=registry)
    schema = Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
        note="string",
    )
    blinder.register_schema(schema)
    return blinder


@pytest.fixture()
def blinder():
    return build_blinder()


class TestSubmitAndResults:
    def test_operations_match_the_sync_api(self, blinder):
        entities = blinder.entities("obs")
        doc_id = entities.insert(
            {"status": "final", "value": 1.0, "note": "n"}
        )
        with AsyncGatewayRuntime(blinder) as runtime:
            aentities = runtime.entities("obs")
            found = runtime.submit(
                lambda: aentities.find(Eq("status", "final")),
                principal="alice", op="find", fields=["status"],
            ).result(10)
            assert [d["_id"] for d in found] == [doc_id]
            assert runtime.run(aentities.count(None)) == 1
            snap = runtime.stats.snapshot()
            assert snap["admitted"] == snap["completed"] == 2
            assert snap["failed"] == 0

    def test_operation_errors_propagate_and_count(self, blinder):
        with AsyncGatewayRuntime(blinder) as runtime:
            aentities = runtime.entities("obs")

            async def missing():
                return await aentities.get("no-such-id")

            with pytest.raises(Exception):
                runtime.submit(missing, op="get").result(10)
            assert runtime.stats.snapshot()["failed"] == 1


class TestBoundedInFlight:
    def test_concurrency_is_capped_by_the_semaphore(self, blinder):
        runtime = AsyncGatewayRuntime(blinder, max_in_flight=3)
        active = 0
        peak = 0
        lock = threading.Lock()

        async def op():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            await asyncio.sleep(0.03)
            with lock:
                active -= 1

        try:
            futures = [runtime.submit(op) for _ in range(12)]
            for f in futures:
                f.result(10)
            assert peak <= 3
            assert runtime.stats.snapshot()["peak_in_flight"] <= 3
            assert runtime.stats.snapshot()["completed"] == 12
        finally:
            runtime.close()

    def test_admission_queue_bound(self, blinder):
        runtime = AsyncGatewayRuntime(blinder, max_in_flight=1,
                                      max_queue=2)
        release = threading.Event()

        async def blocked():
            await asyncio.to_thread(release.wait, 5)

        try:
            futures = [runtime.submit(blocked) for _ in range(3)]
            with pytest.raises(AdmissionRejected):
                runtime.submit(blocked)
            assert runtime.stats.snapshot()["rejected"] == 1
            release.set()
            for f in futures:
                f.result(10)
        finally:
            release.set()
            runtime.close()


class TestDeadlines:
    def test_deadline_cancels_and_raises(self, blinder):
        audit = AuditLog()
        runtime = AsyncGatewayRuntime(
            blinder, front=FrontDoor(audit=audit)
        )

        async def slow():
            await asyncio.sleep(5)

        try:
            future = runtime.submit(slow, op="slow", principal="alice",
                                    deadline_s=0.05)
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                future.result(10)
            assert time.perf_counter() - started < 2.0
            assert runtime.stats.snapshot()["expired"] == 1
            (entry,) = [e for e in audit.records()
                        if e.outcome == "expired"]
            assert entry.principal == "alice" and entry.op == "slow"
        finally:
            runtime.close()

    def test_default_deadline_applies(self, blinder):
        runtime = AsyncGatewayRuntime(blinder,
                                      default_deadline_s=0.05)

        async def slow():
            await asyncio.sleep(5)

        try:
            with pytest.raises(DeadlineExceeded):
                runtime.submit(slow).result(10)
        finally:
            runtime.close()

    def test_fast_operation_beats_its_deadline(self, blinder):
        with AsyncGatewayRuntime(blinder) as runtime:
            aentities = runtime.entities("obs")
            assert runtime.submit(
                lambda: aentities.count(None), deadline_s=10.0
            ).result(10) == 0


class TestFrontDoorWiring:
    def test_rate_limited_submit_never_schedules(self, blinder):
        audit = AuditLog()
        front = FrontDoor(limiter=RateLimiter(rate=0.001, capacity=1.0),
                          audit=audit)
        runtime = AsyncGatewayRuntime(blinder, front=front)
        aentities = runtime.entities("obs")
        try:
            runtime.submit(lambda: aentities.count(None),
                           principal="alice", op="count").result(10)
            with pytest.raises(RateLimitExceeded) as info:
                runtime.submit(lambda: aentities.count(None),
                               principal="alice", op="count")
            assert info.value.retry_after_s > 0
            snap = runtime.stats.snapshot()
            assert snap["rate_limited"] == 1
            assert snap["admitted"] == 1
            assert audit.outcomes() == {"ok": 1, "rate_limited": 1}
        finally:
            runtime.close()

    def test_audit_captures_fields_and_latency(self, blinder):
        audit = AuditLog()
        runtime = AsyncGatewayRuntime(blinder,
                                      front=FrontDoor(audit=audit))
        aentities = runtime.entities("obs")
        try:
            runtime.submit(
                lambda: aentities.find(Eq("status", "x")),
                principal="alice", op="find", fields=["status"],
            ).result(10)
        finally:
            runtime.close()
        (entry,) = audit.records()
        assert entry.fields == ["status"]
        assert entry.latency_ms > 0
        assert entry.outcome == "ok"


class TestShutdown:
    def test_close_refuses_new_work_and_is_idempotent(self, blinder):
        runtime = AsyncGatewayRuntime(blinder)
        aentities = runtime.entities("obs")
        runtime.submit(lambda: aentities.count(None)).result(10)
        runtime.close()
        runtime.close()
        with pytest.raises(AdmissionRejected):
            runtime.submit(lambda: aentities.count(None))

    def test_close_waits_for_in_flight_operations(self, blinder):
        runtime = AsyncGatewayRuntime(blinder)
        done = threading.Event()

        async def op():
            await asyncio.sleep(0.1)
            done.set()

        future = runtime.submit(op)
        runtime.close(timeout=5.0)
        assert done.is_set()
        future.result(1)

    def test_close_before_first_submit(self, blinder):
        AsyncGatewayRuntime(blinder).close()

    def test_close_joins_the_worker_of_an_expired_write(self):
        """A deadline abandons the worker, which keeps writing: ordered
        shutdown must wait it out, or the store changes after close()."""
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        cloud = CloudZone(registry)
        network = NetworkModel(sleep=False)
        blinder = build_blinder(transport=InProcTransport(cloud.host,
                                                          network),
                                registry=registry)
        doc_id = blinder.entities("obs").insert(
            {"status": "final", "value": 1.0, "note": "n"}
        )
        network.one_way_latency_ms, network.sleep = 50.0, True
        runtime = AsyncGatewayRuntime(blinder)
        aentities = runtime.entities("obs")
        future = runtime.submit(
            lambda: aentities.update(doc_id, {"status": "amended"}),
            op="update", deadline_s=0.05,
        )
        with pytest.raises(DeadlineExceeded):
            future.result(10)
        runtime.close(timeout=30.0)
        settled = zone_fingerprint(cloud, "rtapp")
        time.sleep(1.0)
        assert zone_fingerprint(cloud, "rtapp") == settled
        network.sleep = False
        assert blinder.entities("obs").get(doc_id)["status"] == "amended"


class TestSyncFacade:
    def test_sync_gateway_matches_plain_entities(self, blinder):
        entities = blinder.entities("obs")
        ids = entities.insert_many([
            {"status": s, "value": float(i), "note": f"n{i}"}
            for i, s in enumerate(["final", "draft", "final"])
        ])
        gateway = blinder.sync_gateway(principal="alice")
        sync_entities = gateway.entities("obs")
        try:
            assert sync_entities.count() == entities.count() == 3
            assert (
                {d["_id"] for d in sync_entities.find(Eq("status",
                                                         "final"))}
                == {d["_id"] for d in entities.find(Eq("status",
                                                       "final"))}
            )
            assert (sync_entities.sum("value")
                    == entities.sum("value"))
            new_id = sync_entities.insert(
                {"status": "amended", "value": 9.0, "note": "x"}
            )
            assert entities.get(new_id)["status"] == "amended"
            sync_entities.update(ids[0], {"value": 5.0})
            assert entities.get(ids[0])["value"] == 5.0
            assert sync_entities.delete(new_id)
            assert sync_entities.find_one(Eq("status", "amended")) is None
        finally:
            gateway.close()

    def test_facade_flows_through_admission_and_audit(self, blinder):
        audit = AuditLog()
        runtime = blinder.async_runtime(front=FrontDoor(audit=audit))
        gateway = blinder.sync_gateway(principal="carol")
        sync_entities = gateway.entities("obs")
        try:
            sync_entities.insert(
                {"status": "final", "value": 1.0, "note": "n"}
            )
            sync_entities.count(Eq("status", "final"))
        finally:
            gateway.close()
        ops = [(e.principal, e.op, e.fields) for e in audit.records()]
        assert ops == [
            ("carol", "insert", ["note", "status", "value"]),
            ("carol", "count", ["status"]),
        ]
        assert runtime.stats.snapshot()["completed"] == 2

    def test_every_operation_audits_its_op_and_fields(self, blinder):
        """The (op, fields) an audit record carries, per façade method —
        recorded at the commit before ``SyncEntities`` became
        table-driven and pinned here."""
        blinder.register_schema(Schema.define(
            "aud",
            status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
            when=("int", FieldAnnotation.parse("C5", "I,EQ,RG",
                                               "min,max")),
            value=("float", FieldAnnotation.parse("C4", "I,EQ",
                                                  "sum,avg")),
            note="string",
        ))
        audit = AuditLog()
        blinder.async_runtime(front=FrontDoor(audit=audit))
        gateway = blinder.sync_gateway(principal="dora")
        aud = gateway.entities("aud")
        final = Eq("status", "final")
        try:
            doc_id = aud.insert({"_id": "d0", "status": "final",
                                 "when": 1, "value": 1.0, "note": "a"})
            aud.insert_many([
                {"status": "draft", "when": 2, "value": 2.0},
                {"status": "final", "note": "b", "when": 3, "value": 3.0},
            ])
            aud.get(doc_id)
            aud.update(doc_id, {"value": 4.0, "note": "c"})
            aud.find(final, limit=1)
            aud.find()
            aud.find_one(final)
            aud.find_ids(final)
            aud.count()
            aud.aggregate(AggregateQuery(Aggregate.SUM, "value", final))
            aud.average("value", where=final)
            aud.sum("value")
            aud.min("when", final)
            aud.max("when")
            aud.find_sorted("when", limit=2, descending=True)
            aud.text_search("b")
            aud.explain(final, limit=3)
            aud.explain(operation="count")
            aud.delete(doc_id)
        finally:
            gateway.close()
        assert [(e.op, e.fields) for e in audit.records()] == [
            ("insert", ["note", "status", "value", "when"]),
            ("insert_many", ["note", "status", "value", "when"]),
            ("get", []),
            ("update", ["note", "value"]),
            ("find", ["status"]),
            ("find", []),
            ("find_one", ["status"]),
            ("find_ids", ["status"]),
            ("count", []),
            ("aggregate", ["status", "value"]),
            ("aggregate", ["status", "value"]),
            ("aggregate", ["value"]),
            ("aggregate", ["status", "when"]),
            ("aggregate", ["when"]),
            ("find_sorted", ["when"]),
            ("text_search", []),
            ("explain", ["status"]),
            ("explain", []),
            ("delete", []),
        ]
        assert audit.outcomes() == {"ok": 19}

    def test_concurrent_facade_callers_share_the_loop(self, blinder):
        gateway = blinder.sync_gateway()
        sync_entities = gateway.entities("obs")
        errors = []

        def worker(i):
            try:
                sync_entities.insert(
                    {"status": f"s{i % 3}", "value": float(i),
                     "note": f"n{i}"}
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert not errors
            assert sync_entities.count() == 8
        finally:
            gateway.close()
