"""Integrity chaos suite: tamper/rollback injection, verified reads.

The acceptance criteria for the integrity subsystem: with proof-on-fetch
verification on, **every** injected tamper/rollback delivery surfaces as
a typed :class:`~repro.errors.IntegrityError` /
:class:`~repro.errors.StaleStateError` (100% detection), and a
fault-free run of the same seed raises nothing (zero false positives)
while producing correct results.  The seed comes from
``DATABLINDER_CHAOS_SEED``; a failing run dumps its fault schedule to
``DATABLINDER_CHAOS_ARTIFACTS`` for reproduction — same protocol as the
transport chaos suite.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.errors import (
    IntegrityError,
    RetryExhausted,
    StaleStateError,
    TransportFault,
)
from repro.fhir.model import benchmark_observation_schema, observation_schema
from repro.integrity import IntegrityConfig
from repro.net.batch import PipelineConfig
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.tcp import TcpRpcServer, TcpTransport
from repro.net.transport import InProcTransport, Transport, TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.rebalance import Resharder
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

APP = "integrityapp"

CHAOS_SEED = int(os.environ.get("DATABLINDER_CHAOS_SEED", "1337"))

#: The acceptance schedule: 15% tampered deliveries, 10% rolled back.
PLAN = FaultPlan(tamper=0.15, rollback=0.10)

FETCH = PipelineConfig(integrity=IntegrityConfig())


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


@contextmanager
def chaos_deployment(kind: str, plan: FaultPlan, seed: int):
    registry = fresh_registry()
    cloud = CloudZone(registry)
    server = None
    if kind == "tcp":
        server = TcpRpcServer(cloud.host)
        server.serve_in_background()
        inner: Transport = TcpTransport(server.endpoint)
    else:
        inner = InProcTransport(cloud.host)
    faulty = FaultInjectingTransport(inner, plan, seed=seed)
    try:
        yield cloud, faulty, registry
    finally:
        faulty.close()
        if server is not None:
            server.shutdown()
            server.server_close()


@contextmanager
def schedule_artifact(faulty: FaultInjectingTransport, label: str):
    try:
        yield
    except BaseException:
        directory = os.environ.get("DATABLINDER_CHAOS_ARTIFACTS")
        if directory:
            path = Path(directory)
            path.mkdir(parents=True, exist_ok=True)
            (path / f"{label}-seed{faulty.seed}.json").write_text(
                faulty.schedule_json()
            )
        raise


def scenario_ops(observations, ids: list[str]) -> list:
    """The guarded read/update matrix: every op is one thunk.

    Updates interleave between the two read passes so the second pass
    has superseded envelopes for the rollback injector to replay.
    """
    ops = []
    for doc_id in ids:
        ops.append(lambda d=doc_id: observations.get(d))
    for offset, doc_id in enumerate(ids[: len(ids) // 2]):
        ops.append(
            lambda d=doc_id, v=float(100 + offset):
            observations.update(d, {"value": v})
        )
    for doc_id in ids + ids:
        ops.append(lambda d=doc_id: observations.get(d))
    return ops


def run_guarded(ops) -> tuple[int, int, list]:
    """Run every op, counting typed integrity detections."""
    detected = stale = 0
    outcomes = []
    for op in ops:
        try:
            outcomes.append(op())
        except StaleStateError:
            detected += 1
            stale += 1
            outcomes.append(None)
        except IntegrityError:
            detected += 1
            outcomes.append(None)
    return detected, stale, outcomes


class TestChaosDetection:
    @pytest.mark.parametrize("kind", ["inproc", "tcp"])
    def test_every_injected_fault_is_detected(self, kind):
        with chaos_deployment(kind, PLAN, CHAOS_SEED) as (
            _, faulty, registry
        ):
            with schedule_artifact(faulty, f"integrity-{kind}"):
                blinder = DataBlinder(APP, faulty, registry=registry,
                                      pipeline=FETCH)
                blinder.register_schema(observation_schema())
                observations = blinder.entities("observation")
                # Writes are never tampered (only proven reads are
                # eligible), so the corpus lands intact.
                ids = [observations.insert(make_doc(i)) for i in range(10)]

                detected, stale, _ = run_guarded(
                    scenario_ops(observations, ids)
                )
                applied = faulty.fault_count("tamper", "rollback")
                assert applied > 0, "schedule fired no integrity fault"
                # 100% detection: every applied fault surfaced as a
                # typed error, and nothing else did.
                assert detected == applied
                stats = blinder.runtime.transport.stats()
                assert stats.integrity_failures + stats.stale_detected \
                    == applied
                assert stats.stale_detected == stale

    def test_fault_free_run_has_zero_false_positives(self):
        with chaos_deployment("inproc", FaultPlan(), CHAOS_SEED) as (
            _, faulty, registry
        ):
            blinder = DataBlinder(APP, faulty, registry=registry,
                                  pipeline=FETCH)
            blinder.register_schema(observation_schema())
            observations = blinder.entities("observation")
            ids = [observations.insert(make_doc(i)) for i in range(10)]

            detected, stale, outcomes = run_guarded(
                scenario_ops(observations, ids)
            )
            assert detected == 0 and stale == 0
            assert faulty.fault_count() == 0
            stats = blinder.runtime.transport.stats()
            assert stats.integrity_failures == 0
            assert stats.stale_detected == 0
            # Verified results are correct, not just unexceptional.
            second_pass = outcomes[-len(ids):]
            assert [doc["identifier"] for doc in second_pass] \
                == list(range(10))
            assert [doc["value"] for doc in second_pass[:5]] \
                == [100.0, 101.0, 102.0, 103.0, 104.0]


class TestTypedErrors:
    def test_tampered_delivery_raises_integrity_error(self):
        with chaos_deployment("inproc", FaultPlan(tamper=1.0),
                              CHAOS_SEED) as (_, faulty, registry):
            blinder = DataBlinder(APP, faulty, registry=registry,
                                  pipeline=FETCH)
            blinder.register_schema(observation_schema())
            observations = blinder.entities("observation")
            doc_id = observations.insert(make_doc(0))
            with pytest.raises(IntegrityError):
                observations.get(doc_id)
            assert faulty.fault_count("tamper") >= 1

    def test_rolled_back_delivery_raises_stale_state_error(self):
        with chaos_deployment("inproc", FaultPlan(rollback=1.0),
                              CHAOS_SEED) as (_, faulty, registry):
            blinder = DataBlinder(APP, faulty, registry=registry,
                                  pipeline=FETCH)
            blinder.register_schema(observation_schema())
            observations = blinder.entities("observation")
            doc_id = observations.insert(make_doc(0))
            # First read captures the envelope the injector will replay;
            # it is identical to the live reply, so it passes.
            assert observations.get(doc_id)["identifier"] == 0
            observations.update(doc_id, {"value": 99.0})
            # The replayed pre-update envelope is valid but retired.
            with pytest.raises(StaleStateError):
                observations.get(doc_id)
            assert faulty.fault_count("rollback") >= 1


class TestColocatedFindReplies:
    """A co-located find's reply is a protected read: the documents it
    carries are proven like a ``get_many``'s.  The §5.2 schema puts
    ``status`` and ``code`` on DET, so these finds take one round."""

    @staticmethod
    def _deploy(faulty, registry):
        blinder = DataBlinder(APP, faulty, registry=registry,
                              pipeline=FETCH)
        blinder.register_schema(benchmark_observation_schema())
        return blinder.entities("observation")

    @staticmethod
    def _composite_events(faulty, kind: str) -> list:
        return [event for event in faulty.events() if event.kind == kind
                and event.target.endswith(".lookup_fetch_proven")]

    def test_tampered_reply_raises_integrity_error(self):
        with chaos_deployment("inproc", FaultPlan(tamper=1.0),
                              CHAOS_SEED) as (_, faulty, registry):
            observations = self._deploy(faulty, registry)
            observations.insert(make_doc(0))
            with pytest.raises(IntegrityError) as raised:
                observations.find(Eq("status", "final"))
            assert not isinstance(raised.value, StaleStateError)
            assert self._composite_events(faulty, "tamper")

    def test_replayed_reply_raises_stale_state_error(self):
        with chaos_deployment("inproc", FaultPlan(rollback=1.0),
                              CHAOS_SEED) as (_, faulty, registry):
            observations = self._deploy(faulty, registry)
            doc_id = observations.insert(make_doc(0))
            # The first reply is captured; replaying it now changes
            # nothing, so it passes.
            assert [d["identifier"] for d in
                    observations.find(Eq("status", "final"))] == [0]
            observations.update(doc_id, {"value": 99.0})
            with pytest.raises(StaleStateError):
                observations.find(Eq("status", "final"))
            assert self._composite_events(faulty, "rollback")

    def test_every_injected_fault_on_a_find_is_detected(self):
        with chaos_deployment("inproc", PLAN, CHAOS_SEED) as (
            _, faulty, registry
        ):
            with schedule_artifact(faulty, "integrity-colocated"):
                observations = self._deploy(faulty, registry)
                ids = [observations.insert(make_doc(i))
                       for i in range(10)]
                queries = [Eq("status", "final"), Eq("code", "glucose"),
                           Eq("status", "amended")]
                ops = [lambda q=q: observations.find(q) for q in queries]
                for offset, doc_id in enumerate(ids[:5]):
                    ops.append(
                        lambda d=doc_id, v=float(200 + offset):
                        observations.update(d, {"value": v})
                    )
                    ops.extend(lambda q=q: observations.find(q)
                               for q in queries)
                detected, stale, _ = run_guarded(ops)
                applied = faulty.fault_count("tamper", "rollback")
                assert self._composite_events(faulty, "tamper") \
                    or self._composite_events(faulty, "rollback")
                assert detected == applied


class TestAuditPass:
    def test_audit_catches_out_of_band_tampering(self):
        registry = fresh_registry()
        cloud = CloudZone(registry)
        blinder = DataBlinder(
            APP, InProcTransport(cloud.host), registry=registry,
            pipeline=FETCH,
        )
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(4)]
        clean = blinder.integrity_audit()
        assert clean["roots_checked"] > 0

        # The snapshot adversary writes to "MongoDB" directly: no
        # mutation observer fires, the incremental report still matches
        # the ledger — only root recomputation can tell.
        store = cloud._documents[APP]
        store._documents[ids[0]]["schema"] = "forged"
        with pytest.raises(IntegrityError):
            blinder.integrity_audit()


class TestIntegrityIsReadSideOnly:
    @staticmethod
    def _workload(pipeline: PipelineConfig) -> tuple[CloudZone,
                                                     DataBlinder, list]:
        registry = fresh_registry()
        cloud = CloudZone(registry)
        blinder = DataBlinder(APP, InProcTransport(cloud.host),
                              registry=registry, pipeline=pipeline)
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(6)]
        observations.update(ids[1], {"value": 50.0})
        observations.delete(ids[5])
        return cloud, blinder, ids

    def test_verified_reads_and_audit_leave_the_zone_untouched(self):
        """Verification never writes: fingerprint before a fully
        verified read pass plus an audit equals the one after."""
        cloud, blinder, ids = self._workload(FETCH)
        before = zone_fingerprint(cloud, APP)
        observations = blinder.entities("observation")
        for doc_id in ids[:5]:
            observations.get(doc_id)
        observations.find_ids(Eq("status", "final"))
        blinder.integrity_audit()
        assert zone_fingerprint(cloud, APP) == before

    def test_integrity_adds_no_stored_state(self):
        """The same workload leaves structurally identical zones with
        integrity on or off: trackers are pure bookkeeping over the
        stores, never entries inside them.  (Byte-level fingerprints
        cannot be compared across deployments — each generates fresh
        encryption keys — so this checks the store shapes.)"""
        from repro.analysis.snapshot import SnapshotAdversary

        with_integrity, _, _ = self._workload(FETCH)
        without, _, _ = self._workload(PipelineConfig())
        on = SnapshotAdversary(with_integrity, APP).report()
        off = SnapshotAdversary(without, APP).report()
        assert on.documents == off.documents
        assert on.kv_entries == off.kv_entries


class LoseReport(TransportLayer):
    """A shard link that loses ``losses`` lone report frames in a row
    (None: every one), starting at its ``countdown``-th from now (0:
    none)."""

    countdown = 0
    losses: int | None = None

    def call_batch(self, requests):
        if (self.countdown and len(requests) == 1
                and requests[0].method == "report"):
            if self.countdown > 1:
                self.countdown -= 1
            elif self.losses is None or self.losses > 0:
                if self.losses is not None:
                    self.losses -= 1
                raise TransportFault("injected fault: report frame lost")
        return self._inner.call_batch(requests)


class TestReshardingInvariance:
    def _deploy(self, pipeline: PipelineConfig, link=None):
        registry = fresh_registry()
        cluster = CloudCluster(3, registry=registry)
        nodes = cluster.nodes()
        if link is not None:
            nodes[0] = (nodes[0][0], link(nodes[0][1]))
        router = ShardedTransport(nodes, ShardConfig(parallel_fanout=False))
        blinder = DataBlinder(APP, router, registry=registry,
                              pipeline=pipeline)
        blinder.register_schema(observation_schema())
        return cluster, router, blinder

    def _verify_all(self, observations, ids: list[str]) -> None:
        for i, doc_id in enumerate(ids):
            assert observations.get(doc_id)["identifier"] == i

    def test_join_and_leave_preserve_the_cluster_digest(self):
        cluster, router, blinder = self._deploy(FETCH)
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(16)]
        self._verify_all(observations, ids)

        report = Resharder(router, chunk_size=8).add_node(
            *cluster.add_zone("zone-3")
        )
        assert report.integrity_verified is True
        # Proven reads stay live on the new topology: the ledger
        # re-syncs to the post-migration roots on the next fetch.
        self._verify_all(observations, ids)

        report = Resharder(router, chunk_size=8).remove_node("zone-2")
        assert report.integrity_verified is True
        self._verify_all(observations, ids)

    @pytest.mark.parametrize("lost", [1, 2], ids=["before", "after"])
    def test_a_lost_report_fails_the_move_not_the_check(self, lost):
        """A report the resharder cannot pull on any retry raises its
        link error: it neither skips the digest check (the snapshot
        before the move) nor reads as lost entries (the snapshot after
        it)."""
        cluster, router, blinder = self._deploy(FETCH, LoseReport)
        observations = blinder.entities("observation")
        for i in range(8):
            observations.insert(make_doc(i))
        router.node_transport(router.node_names()[0]).countdown = lost
        with pytest.raises(RetryExhausted) as raised:
            Resharder(router, chunk_size=8).add_node(
                *cluster.add_zone("zone-3"))
        assert isinstance(raised.value.last_error, TransportFault)

    @pytest.mark.parametrize("lost", [1, 2], ids=["before", "after"])
    def test_one_lost_report_is_retried(self, lost):
        """A report is a read: one lost frame is re-sent, the move
        completes and its digest check passes."""
        cluster, router, blinder = self._deploy(FETCH, LoseReport)
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(8)]
        link = router.node_transport(router.node_names()[0])
        link.countdown, link.losses = lost, 1
        report = Resharder(router, chunk_size=8).add_node(
            *cluster.add_zone("zone-3"))
        assert link.losses == 0
        assert report.integrity_verified is True
        self._verify_all(observations, ids)

    def test_without_integrity_the_check_is_skipped_not_failed(self):
        cluster, router, blinder = self._deploy(PipelineConfig())
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(8)]
        report = Resharder(router, chunk_size=8).add_node(
            *cluster.add_zone("zone-3")
        )
        assert report.integrity_verified is False
        self._verify_all(observations, ids)


class TestChaosWithCache:
    """The read cache can never mask what verification would catch.

    The same acceptance schedule as :class:`TestChaosDetection`, with
    the gateway read-cache tier forced on.  A hit with no write since
    the last ledger sync is validated locally against the HSM write
    counter and sends nothing; every read that does reach the cloud —
    proven fetches and the re-sync reports a moved counter triggers —
    rides the *faulty* transport, so tampered or rolled-back deliveries
    still surface as typed errors, 100% of the time, at the first read
    that reaches the cloud.  The paper's Observation schema itself
    carries a C1 ``performer`` field, which the admission floor
    refuses; the chaos leg runs on a C2 variant so the plaintext levels
    actually serve hits under fire.
    """

    @staticmethod
    def _cached_schema():
        from repro.core.schema import Schema, FieldAnnotation

        return Schema.define(
            "observation",
            id="string",
            identifier="int",
            status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
            code=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
            subject=("string", FieldAnnotation.parse("C2", "I,EQ")),
            effective=("int", FieldAnnotation.parse("C5", "I,EQ,BL,RG")),
            issued=("int", FieldAnnotation.parse("C5", "I,EQ,BL,RG")),
            performer=("string", FieldAnnotation.parse("C2", "I")),
            value=("float", FieldAnnotation.parse("C3", "I,EQ,BL",
                                                  "avg")),
            interpretation="string",
        )

    @classmethod
    def _deploy(cls, faulty, registry):
        from repro.cache import CacheConfig

        blinder = DataBlinder(
            APP, faulty, registry=registry,
            pipeline=PipelineConfig(integrity=IntegrityConfig(),
                                    cache=CacheConfig()),
        )
        blinder.register_schema(cls._cached_schema())
        return blinder

    def test_every_injected_fault_is_detected_with_caching_on(self):
        with chaos_deployment("inproc", PLAN, CHAOS_SEED) as (
            _, faulty, registry
        ):
            with schedule_artifact(faulty, "integrity-cache"):
                blinder = self._deploy(faulty, registry)
                observations = blinder.entities("observation")
                ids = [observations.insert(make_doc(i))
                       for i in range(10)]

                detected, stale, _ = run_guarded(
                    scenario_ops(observations, ids)
                )
                applied = faulty.fault_count("tamper", "rollback")
                assert applied > 0, "schedule fired no integrity fault"
                assert detected == applied
                stats = blinder.runtime.transport.stats()
                assert stats.integrity_failures + stats.stale_detected \
                    == applied
                assert stats.stale_detected == stale

    def test_fault_free_cached_run_is_quiet_correct_and_warm(self):
        with chaos_deployment("inproc", FaultPlan(), CHAOS_SEED) as (
            _, faulty, registry
        ):
            blinder = self._deploy(faulty, registry)
            observations = blinder.entities("observation")
            ids = [observations.insert(make_doc(i)) for i in range(10)]

            detected, stale, outcomes = run_guarded(
                scenario_ops(observations, ids)
            )
            assert detected == 0 and stale == 0
            assert faulty.fault_count() == 0
            # Same correctness bar as the uncached run: the second read
            # pass sees every interleaved update.
            second_pass = outcomes[-len(ids):]
            assert [doc["identifier"] for doc in second_pass] \
                == list(range(10))
            assert [doc["value"] for doc in second_pass[:5]] \
                == [100.0, 101.0, 102.0, 103.0, 104.0]
            # And the cache was live, not inert: the repeat pass served
            # validated document hits.
            snapshot = blinder.runtime.cache_tier.snapshot()
            assert snapshot["documents"]["hits"] > 0

    def test_rollback_under_local_hits_raises_at_the_first_cloud_read(self):
        """Hits validated locally send nothing, so they cannot see the
        zone roll back; the first read that reaches the cloud does."""
        with chaos_deployment("inproc", FaultPlan(rollback=1.0),
                              CHAOS_SEED) as (_, faulty, registry):
            blinder = self._deploy(faulty, registry)
            observations = blinder.entities("observation")
            rolled, cached = (observations.insert(make_doc(i))
                              for i in range(2))
            # The injector captures this envelope: identical to the live
            # reply, so nothing is replayed yet.
            assert observations.get(rolled)["identifier"] == 0
            observations.update(rolled, {"value": 99.0})
            assert observations.get(cached)["identifier"] == 1
            frames = faulty.stats().messages_sent
            for _ in range(3):
                assert observations.get(cached)["identifier"] == 1
            assert faulty.stats().messages_sent == frames  # all local
            assert faulty.fault_count("rollback") == 0
            # The update dropped ``rolled`` from the cache: this read
            # reaches the cloud, which replays the pre-update envelope.
            with pytest.raises(StaleStateError):
                observations.get(rolled)
            assert faulty.fault_count("rollback") == 1
            assert blinder.runtime.transport.stats().stale_detected == 1
