"""The per-operation timing sink: the router's ``Shard:`` legs and the
kernels' ``Crypto:`` rows land in the running operation's planner stats,
work the engine hands to its pool records there too, and a timing taken
outside an operation is dropped instead of kept for whoever runs next."""

from __future__ import annotations

import threading

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import And, Eq
from repro.core.schema import FieldAnnotation, Schema
from repro.errors import IntegrityError
from repro.gateway.frontdoor import AuditLog, FrontDoor
from repro.net.batch import PipelineConfig
from repro.net.resilience import ResilienceConfig
from repro.net.transport import InProcTransport
from repro.obs import timing


def schema(name: str, paillier: bool = False) -> Schema:
    fields = {
        "status": ("string", FieldAnnotation.parse("C4", "I,EQ")),
        "kind": ("string", FieldAnnotation.parse("C4", "I,EQ")),
        "note": "string",
    }
    if paillier:
        fields["value"] = ("float", FieldAnnotation.parse("C4", "I", "sum"))
    return Schema.define(name, **fields)


def document(i: int, paillier: bool = False) -> dict:
    doc = {"status": f"s{i % 3}", "kind": "k", "note": f"note {i}"}
    if paillier:
        doc["value"] = float(i)
    return doc


@pytest.fixture()
def zone(registry):
    """The production profile over four nodes, two schemas: ``a``
    (with a Paillier field) and ``b``."""
    resilience = ResilienceConfig()
    cluster = CloudCluster(4, registry=registry, resilience=resilience)
    blinder = DataBlinder(
        "sinkapp", cluster.nodes(), registry=registry,
        pipeline=PipelineConfig.production(), resilience=resilience,
    )
    blinder.register_schema(schema("a", paillier=True))
    blinder.register_schema(schema("b"))
    yield blinder
    blinder.runtime.transport.close()
    cluster.close()


def shard_calls(blinder, name: str) -> int:
    timings = blinder.planner_stats(name)["node_timings"]
    return sum(cost["calls"] for kind, cost in timings.items()
               if kind.startswith("Shard:"))


def crypto_calls(blinder, name: str) -> dict[str, int]:
    timings = blinder.planner_stats(name)["node_timings"]
    return {kind: cost["calls"] for kind, cost in timings.items()
            if kind.startswith("Crypto:") and kind != "Crypto:insert"}


def rows_of_one_count(blinder, value: str) -> int:
    """``Shard:`` rows one uncached count on ``b`` books."""
    before = shard_calls(blinder, "b")
    blinder.entities("b").count(Eq("status", value))
    return shard_calls(blinder, "b") - before


class TestOutsideAnOperation:
    def test_audits_add_no_rows_to_any_schema(self, zone):
        zone.entities("b").insert_many([document(i) for i in range(12)])
        rows_of_one_count(zone, "s0")  # the first read syncs the ledger
        own = rows_of_one_count(zone, "s1")
        assert own > 0
        stats = {name: zone.planner_stats(name)["node_timings"]
                 for name in ("a", "b")}
        for _ in range(10):
            zone.integrity_audit()
        assert {name: zone.planner_stats(name)["node_timings"]
                for name in ("a", "b")} == stats
        assert rows_of_one_count(zone, "s2") == own

    def test_a_thread_of_audits_leaves_nothing_for_its_next_read(
            self, zone):
        zone.entities("b").insert_many([document(i) for i in range(12)])
        rows_of_one_count(zone, "s0")
        own = rows_of_one_count(zone, "s1")
        seen = {}

        def audits_then_a_read():
            for _ in range(200):
                zone.integrity_audit()
            seen["rows"] = rows_of_one_count(zone, "s2")

        worker = threading.Thread(target=audits_then_a_read)
        worker.start()
        worker.join(60)
        assert not worker.is_alive()
        assert seen["rows"] == own

    def test_a_timing_with_no_sink_is_dropped(self):
        rows = []
        timing.record_timing("Shard:n0", 1.0)
        with timing.timing_sink(lambda kind, s: rows.append((kind, s))):
            timing.record_timing("Shard:n1", 0.5)
        timing.record_timing("Shard:n2", 1.0)
        assert rows == [("Shard:n1", 0.5)]


class TestKernelRowsStayWithTheirSchema:
    def test_interleaved_bulk_inserts(self, zone):
        """Both inserts have booked a kernel timing before either
        finishes; each schema still sees exactly its own rows."""
        solo = {}
        for name, paillier in (("a", True), ("b", False)):
            zone.entities(name).insert_many(
                [document(i, paillier) for i in range(6)])
            solo[name] = crypto_calls(zone, name)
        assert "Crypto:paillier_encrypt" in solo["a"]
        assert "Crypto:paillier_encrypt" not in solo["b"]

        kernels = zone.runtime.kernels
        record = kernels.record
        barrier = threading.Barrier(2, timeout=30)
        met = threading.local()

        def record_then_meet(name, seconds):
            record(name, seconds)
            if not getattr(met, "done", False):
                met.done = True
                barrier.wait()

        kernels.record = record_then_meet
        errors = []

        def insert(name, paillier):
            try:
                zone.entities(name).insert_many(
                    [document(i, paillier) for i in range(6, 12)])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=insert, args=("a", True)),
                   threading.Thread(target=insert, args=("b", False))]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            del kernels.record
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for name in ("a", "b"):
            assert crypto_calls(zone, name) == {
                kind: 2 * calls for kind, calls in solo[name].items()}


class TestPoolThreadsRecordIntoTheOperation:
    def test_fanned_out_prefetching_find(self, zone):
        entities = zone.entities("b")
        entities.insert_many([document(i) for i in range(150)])
        booked = []
        stats = zone._executor("b").stats
        record_node = stats.record_node

        def record_with_thread(kind, seconds):
            booked.append((kind, threading.current_thread().name))
            record_node(kind, seconds)

        stats.record_node = record_with_thread
        try:
            found = entities.find(And([Eq("kind", "k"),
                                       Eq("status", "s0")]))
        finally:
            del stats.record_node
        assert len(found) == 50
        on_pool = {kind for kind, thread in booked
                   if thread.startswith("fanout-")}
        assert any(kind.startswith("IndexLookup:") for kind in on_pool)
        assert any(kind.startswith("Shard:") for kind in on_pool)


class TestPrefetchedChunkOutcome:
    def test_a_failed_second_chunk_is_audited_failed(self, registry):
        """The second 64-document chunk is fetched and verified on the
        prefetch pool; its failure reaches the operation's audit
        record."""
        zone = CloudZone(registry)
        blinder = DataBlinder(
            "auditapp", InProcTransport(zone.host), registry=registry,
            pipeline=PipelineConfig.production(),
        )
        blinder.register_schema(schema("b"))
        ids = sorted(blinder.entities("b").insert_many(
            [document(i) for i in range(100)]))
        # Out of band: the zone's integrity tracker never sees it.
        _, documents = zone.application_stores("auditapp")
        documents._documents[ids[80]]["plain"]["note"] = "tampered"
        audit = AuditLog()
        gateway = blinder.sync_gateway(principal="p",
                                       front=FrontDoor(audit=audit))
        try:
            with pytest.raises(IntegrityError):
                gateway.entities("b").find()
        finally:
            gateway.close()
        (record,) = [r for r in audit.records() if r.op == "find"]
        assert record.outcome == "error"
        assert record.verification == "failed"
