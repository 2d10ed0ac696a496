"""The write's ack keeps the freshness ledger in sync.

Every write frame the verifier ships carries an ``integrity/<app>
report`` slot narrowed to the ``docs`` tree; the ledger folds it in only
when the HSM write counter proves no other write ran since the last
sync.  Then a verified read right after this gateway's own write costs
no report round, while a write from another gateway, overlapping
writes, a leg that did not answer and a mid-reshard frame all fall back
to the lazy re-sync — without a false alarm — and a forged ack raises on
the write it rode.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.errors import DocumentNotFound, IntegrityError, StaleStateError
from repro.fhir.model import observation_schema
from repro.integrity import IntegrityConfig
from repro.keys.hsm import SimulatedHsm
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.rpc import MUTATING_METHODS, Response
from repro.net.transport import InProcTransport, TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "ackapp"


def fresh_registry() -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


def make_doc(i: int) -> dict:
    return {
        "id": f"f{i}",
        "identifier": i,
        "status": "final" if i % 2 == 0 else "amended",
        "code": "glucose" if i % 3 == 0 else "insulin",
        "subject": f"Patient {i}",
        "effective": 1000 + i,
        "issued": 2000 + i,
        "performer": "Dr",
        "value": float(i),
        "interpretation": "",
    }


def is_ack(request) -> bool:
    return (request.service == f"integrity/{APP}"
            and request.method == "report")


class Gate(TransportLayer):
    """The link under one gateway's verifier.  Once armed it holds the
    next write frame (``writes``) or report round (``reports``) after
    the gateway sent it and before it reaches the zone, until the test
    releases it; ``forge`` rewrites the next ack's report in place, and
    only a frame that carries an ack consumes it (lone reads are frames
    too)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed: str | None = None
        self.held = threading.Event()
        self.release = threading.Event()
        self.forge = None

    def _hold(self, kind: str) -> None:
        if self.armed == kind:
            self.armed = None
            self.held.set()
            assert self.release.wait(timeout=30)

    def call_batch(self, requests):
        if any(r.method in MUTATING_METHODS for r in requests):
            self._hold("writes")
        elif any(map(is_ack, requests)):
            self._hold("reports")
        responses = self._inner.call_batch(requests)
        for index, request in enumerate(requests):
            if self.forge is not None and is_ack(request):
                forge, self.forge = self.forge, None
                report = dict(responses[index].result)
                forge(report)
                responses[index] = Response(ok=True, result=report)
        return responses


def gateway(transport, registry, hsm=None, batch_writes=True):
    blinder = DataBlinder(
        APP, transport, registry=registry,
        keystore=KeyStore(APP, hsm=hsm) if hsm is not None else None,
        pipeline=PipelineConfig(integrity=IntegrityConfig(),
                                batch_writes=batch_writes),
    )
    blinder.register_schema(observation_schema())
    return blinder


def inproc_gateway(batch_writes=True):
    registry = fresh_registry()
    gate = Gate(InProcTransport(CloudZone(registry).host))
    return gateway(gate, registry, batch_writes=batch_writes), gate


def cluster_gateway(nodes=4, replication=1, batch_writes=True):
    registry = fresh_registry()
    cluster = CloudCluster(nodes, registry=registry)
    router = ShardedTransport(cluster.nodes(),
                              ShardConfig(replication=replication))
    return gateway(router, registry, batch_writes=batch_writes), cluster


def verifier(blinder):
    return blinder.runtime.verifier


def own_writes_then_reads(blinder, count=6) -> int:
    """Report rounds pulled by reads that each follow one of this
    gateway's own updates or deletes (the ledger synced first)."""
    observations = blinder.entities("observation")
    ids = observations.insert_many([make_doc(i) for i in range(count)])
    for doc_id in ids:
        observations.get(doc_id)
    before = verifier(blinder).resyncs
    for offset, doc_id in enumerate(ids[:-1]):
        observations.update(doc_id, {"value": 500.0 + offset})
        assert observations.get(doc_id)["value"] == 500.0 + offset
    assert observations.delete(ids[-1])
    with pytest.raises(DocumentNotFound):
        observations.get(ids[-1])
    assert sorted(d["value"] for d in observations.find()) == [
        500.0 + offset for offset in range(count - 1)]
    return verifier(blinder).resyncs - before


class TestOwnWriteNeedsNoReportRound:
    @pytest.mark.parametrize("batch_writes", [False, True])
    def test_single_endpoint(self, batch_writes):
        blinder, _ = inproc_gateway(batch_writes=batch_writes)
        assert own_writes_then_reads(blinder) == 0
        assert verifier(blinder).acked > 0

    @pytest.mark.parametrize("batch_writes", [False, True])
    def test_sharded_zone(self, batch_writes):
        blinder, cluster = cluster_gateway(batch_writes=batch_writes)
        try:
            assert own_writes_then_reads(blinder) == 0
            assert verifier(blinder).own_stats().integrity_failures == 0
        finally:
            cluster.close()

    def test_replicated_zone_acks_every_replica_leg(self):
        blinder, cluster = cluster_gateway(replication=2)
        try:
            assert own_writes_then_reads(blinder, count=10) == 0
            stats = verifier(blinder).own_stats()
            assert (stats.integrity_failures, stats.stale_detected) == (0, 0)
        finally:
            cluster.close()

    def test_first_write_of_a_fresh_gateway_is_not_trusted(self):
        # Never synced: the ack is dropped, the first read syncs.
        blinder, _ = inproc_gateway()
        observations = blinder.entities("observation")
        [doc_id] = observations.insert_many([make_doc(0)])
        assert verifier(blinder).resyncs == 0
        assert observations.get(doc_id)["identifier"] == 0
        assert verifier(blinder).resyncs == 1


class TestAnotherWriterForcesTheSync:
    def test_other_gateway_write_is_caught(self):
        registry = fresh_registry()
        cloud = CloudZone(registry)
        hsm = SimulatedHsm()
        a, b = (gateway(InProcTransport(cloud.host), registry, hsm)
                for _ in range(2))
        ids = a.entities("observation").insert_many(
            [make_doc(i) for i in range(3)])
        a.entities("observation").get(ids[0])
        a.entities("observation").update(ids[0], {"value": 7.0})
        before = verifier(a).resyncs
        assert a.entities("observation").get(ids[0])["value"] == 7.0
        assert verifier(a).resyncs == before

        b.entities("observation").update(ids[0], {"value": 99.0})
        # A's next write overlaps no other, but B's moved the counter
        # since A's last sync: its ack proves nothing about B's.
        a.entities("observation").insert(make_doc(5))

        assert a.entities("observation").get(ids[0])["value"] == 99.0
        assert verifier(a).resyncs == before + 1
        # Synced again: A's own next write is acked.
        a.entities("observation").update(ids[1], {"value": 8.0})
        assert a.entities("observation").get(ids[1])["value"] == 8.0
        assert verifier(a).resyncs == before + 1


def run(target) -> tuple[threading.Thread, list]:
    errors: list[BaseException] = []

    def body():
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    return thread, errors


def wait_until(predicate) -> None:
    deadline = time.monotonic() + 30
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)


class TestOverlappingWrites:
    def test_acks_out_of_order_are_dropped_and_the_read_resyncs(self):
        blinder, gate = inproc_gateway()
        observations = blinder.entities("observation")
        ids = observations.insert_many([make_doc(i) for i in range(4)])
        observations.get(ids[0])
        before = verifier(blinder).resyncs

        gate.armed = "writes"
        first, first_errors = run(
            lambda: observations.insert(make_doc(10)))
        assert gate.held.wait(timeout=30)
        # The second write starts after the first left and returns
        # before it: its ack arrives first.
        second = observations.insert(make_doc(11))
        gate.release.set()
        first.join(timeout=30)
        assert first_errors == []
        assert verifier(blinder).resyncs == before

        assert observations.get(second)["identifier"] == 11
        assert verifier(blinder).resyncs == before + 1
        assert observations.count() == 6
        stats = verifier(blinder).own_stats()
        assert (stats.integrity_failures, stats.stale_detected) == (0, 0)

    def test_ack_older_than_an_overlapping_report_round_is_dropped(self):
        """A forced report round (``audit``) pulls while this gateway's
        write is out, and another gateway's write, sent before the last
        sync, lands after the write's ack was taken: the round's reports
        are newer than the ack, so folding the ack after the round would
        read as a rollback."""
        registry = fresh_registry()
        cloud = CloudZone(registry)
        hsm = SimulatedHsm()
        gate_a = Gate(InProcTransport(cloud.host))
        gate_b = Gate(InProcTransport(cloud.host))
        a = gateway(gate_a, registry, hsm)
        b = gateway(gate_b, registry, hsm)
        ids = a.entities("observation").insert_many(
            [make_doc(i) for i in range(3)])

        gate_b.armed = "writes"
        other, other_errors = run(lambda: b.entities("observation").update(
            ids[0], {"value": 99.0}))
        assert gate_b.held.wait(timeout=30)
        verifier(a).coherence_stamp()  # synced, B's write still out
        gate_a.armed = "reports"
        audit, audit_errors = run(verifier(a).audit)
        assert gate_a.held.wait(timeout=30)
        counter = verifier(a).write_counter()
        write, write_errors = run(
            lambda: a.entities("observation").insert(make_doc(7)))
        # The write's reply is back (both advances done); its ack waits
        # for the report round to finish.
        wait_until(lambda: verifier(a).write_counter() == counter + 2)
        gate_b.release.set()
        other.join(timeout=30)
        gate_a.release.set()
        for thread in (audit, write):
            thread.join(timeout=30)
        assert other_errors == audit_errors == write_errors == []
        assert verifier(a).acked == 1
        assert a.entities("observation").get(ids[0])["value"] == 99.0
        stats = verifier(a).own_stats()
        assert (stats.integrity_failures, stats.stale_detected) == (0, 0)

    def test_free_running_writers_raise_no_false_alarm(self):
        blinder, _ = inproc_gateway()
        observations = blinder.entities("observation")
        ids = observations.insert_many([make_doc(i) for i in range(8)])
        observations.get(ids[0])

        def writer(offset):
            def body():
                for step in range(6):
                    doc_id = ids[offset + 4 * (step % 2)]
                    observations.update(doc_id, {"value": float(step)})
            return body

        threads = [run(writer(offset)) for offset in range(4)]
        for thread, _ in threads:
            thread.join(timeout=60)
        assert [errors for _, errors in threads] == [[]] * 4
        # Each writer's last two updates set 4.0 and 5.0.
        assert [observations.get(d)["value"] for d in ids] == [4.0] * 4 + [
            5.0] * 4
        stats = verifier(blinder).own_stats()
        assert (stats.integrity_failures, stats.stale_detected) == (0, 0)


class TestForgedAcks:
    def synced(self):
        blinder, gate = inproc_gateway()
        observations = blinder.entities("observation")
        ids = observations.insert_many([make_doc(i) for i in range(3)])
        observations.get(ids[0])
        return blinder, gate, observations, ids

    def test_regressed_seq_raises_stale_state_on_the_write(self):
        blinder, gate, observations, ids = self.synced()
        gate.forge = lambda report: report.update(seq=0)
        with pytest.raises(StaleStateError):
            observations.update(ids[0], {"value": 1.0})
        assert verifier(blinder).own_stats().stale_detected == 1

    def test_same_seq_new_root_raises_integrity_error(self):
        blinder, gate, observations, ids = self.synced()
        entry = verifier(blinder).ledger.expect("endpoint", "docs")

        def forge(report):
            report["seq"] = entry.seq
            report["trees"] = {"docs": {**report["trees"]["docs"],
                                        "root": "ab" * 32}}

        gate.forge = forge
        with pytest.raises(IntegrityError) as raised:
            observations.update(ids[0], {"value": 1.0})
        assert not isinstance(raised.value, StaleStateError)
        assert verifier(blinder).own_stats().integrity_failures == 1


class TestResharding:
    def test_forwarding_frames_fall_back_without_false_alarms(self):
        blinder, cluster = cluster_gateway(nodes=3)
        router = blinder.runtime.transport
        while not isinstance(router, ShardedTransport):
            router = router.inner
        try:
            observations = blinder.entities("observation")
            ids = observations.insert_many(
                [make_doc(i) for i in range(12)])
            for doc_id in ids:
                observations.get(doc_id)
            router.begin_join(*cluster.add_zone("zone-3"))
            assert router.forwarding_active()
            before = verifier(blinder).resyncs
            # The document write is loose mid-reshard: its ack does not
            # ride, and the read after it re-syncs.
            observations.update(ids[0], {"value": 50.0})
            assert observations.get(ids[0])["value"] == 50.0
            assert verifier(blinder).resyncs == before + 1
            assert observations.delete(ids[1])
            with pytest.raises(DocumentNotFound):
                observations.get(ids[1])
            stats = verifier(blinder).own_stats()
            assert (stats.integrity_failures, stats.stale_detected) == (0, 0)
        finally:
            router.finish_migration()
            cluster.close()
