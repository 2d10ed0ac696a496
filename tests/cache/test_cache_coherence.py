"""Cross-gateway cache coherence under the freshness ledger.

Two gateways share one untrusted zone and one HSM (same derived keys).
With integrity configured, every write either gateway makes advances
the HSM's write counter before it leaves and again after its reply
returns; a cached entry is served only while the coherence stamp is
unchanged, and the ledger re-syncs only when that counter moved — so a
write through the *other* gateway turns the hit into a miss and the
repeat query re-executes against the live zone (zero stale reads, by
protocol rather than by TTL luck), while a hit with no write in between
costs no wire round at all.
"""

from __future__ import annotations

import threading

from repro.cache import CacheConfig
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.integrity import IntegrityConfig
from repro.keys.hsm import SimulatedHsm
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.rpc import MUTATING_METHODS
from repro.net.transport import InProcTransport
from repro.tactics import register_builtin_tactics

from tests.cache.test_cache_tier import CountingTransport, obs_schema

APP = "coherence"


class ReportCountingTransport(CountingTransport):
    """Also counts the ledger re-syncs (``integrity/<app>.report``)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.reports = 0

    def _note_requests(self, pairs) -> None:
        with self._lock:
            self.reports += sum(
                1 for service, method in pairs
                if service == f"integrity/{APP}" and method == "report"
            )

    def call_batch(self, requests):
        self._note_requests([(r.service, r.method) for r in requests])
        return super().call_batch(requests)


class GatedTransport(ReportCountingTransport):
    """Once armed, holds the next write frame after the gateway sent it
    and before it reaches the zone, until the test releases it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = False
        self.held = threading.Event()
        self.release = threading.Event()

    def _hold(self, requests) -> None:
        if self.armed and any(r.method in MUTATING_METHODS
                              for r in requests):
            self.armed = False
            self.held.set()
            assert self.release.wait(timeout=30)

    def call_batch(self, requests):
        self._hold(requests)
        return super().call_batch(requests)


def gateway(cloud, registry, hsm, cache=True, batch_writes=False):
    """One gateway of ``APP`` over ``cloud``, keys and counter in ``hsm``."""
    transport = GatedTransport(InProcTransport(cloud.host))
    blinder = DataBlinder(
        APP, transport, registry=registry,
        keystore=KeyStore(APP, hsm=hsm),
        pipeline=PipelineConfig(
            integrity=IntegrityConfig(),
            cache=CacheConfig() if cache else None,
            batch_writes=batch_writes,
        ),
    )
    blinder.register_schema(obs_schema())
    return blinder, transport


def twin_gateways(cache=True, batch_writes=False):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    hsm = SimulatedHsm()
    pairs = [gateway(cloud, registry, hsm, cache, batch_writes)
             for _ in range(2)]
    return [g for g, _ in pairs], [t for _, t in pairs], cloud


def make_doc(i: int) -> dict:
    return {
        "status": "final", "patient": f"p{i}", "effective": i,
        "value": float(i), "note": f"n{i}",
    }


class TestCrossGatewayCoherence:
    def test_remote_write_invalidates_cached_result(self):
        (a, b), _, _ = twin_gateways()
        ids = a.entities("obs").insert_many(
            [make_doc(i) for i in range(6)]
        )
        predicate = Eq("status", "final")
        first = a.entities("obs").find(predicate)
        assert len(first) == 6
        # Warm hit: the stamp matched, the cached result was served.
        assert a.entities("obs").find(predicate) == first
        tier = a.runtime.cache_tier
        assert tier.coherence_validations >= 1

        b.entities("obs").update(ids[0], {"value": 555.0})

        refreshed = a.entities("obs").find(predicate)
        changed = [d for d in refreshed if d["_id"] == ids[0]]
        assert changed and changed[0]["value"] == 555.0
        assert tier.stamp_mismatches >= 1

    def test_remote_write_invalidates_cached_document(self):
        (a, b), _, _ = twin_gateways()
        ids = a.entities("obs").insert_many(
            [make_doc(i) for i in range(3)]
        )
        target = ids[0]
        assert a.entities("obs").get(target)["value"] == 0.0
        assert a.entities("obs").get(target)["value"] == 0.0  # cached
        b.entities("obs").update(target, {"value": 9.5})
        assert a.entities("obs").get(target)["value"] == 9.5

    def test_remote_insert_is_visible_to_cached_count(self):
        (a, b), _, _ = twin_gateways()
        a.entities("obs").insert_many([make_doc(i) for i in range(4)])
        predicate = Eq("status", "final")
        assert a.entities("obs").count(predicate) == 4
        assert a.entities("obs").count(predicate) == 4
        b.entities("obs").insert(make_doc(99))
        assert a.entities("obs").count(predicate) == 5

    def test_validated_hit_is_cheaper_than_re_execution(self):
        (a, _b), (ta, _tb), _ = twin_gateways()
        entities = a.entities("obs")
        entities.insert_many([make_doc(i) for i in range(12)])
        predicate = Eq("status", "final")
        ta.reset()
        entities.find(predicate)
        cold = ta.calls
        ta.reset()
        entities.find(predicate)
        warm = ta.calls
        # No write since the last sync: the HSM write counter validates
        # the hit locally, with no wire round at all.
        assert warm == 0 < cold


class TestTheWriteCounter:
    """The HSM write counter decides when a hit needs the wire."""

    def test_remote_write_costs_the_next_hit_one_report_round(self):
        (a, b), (ta, _), _ = twin_gateways()
        ids = a.entities("obs").insert_many(
            [make_doc(i) for i in range(4)]
        )
        predicate = Eq("status", "final")
        a.entities("obs").find(predicate)
        before = ta.reports
        a.entities("obs").find(predicate)
        assert ta.reports == before  # validated locally

        b.entities("obs").update(ids[0], {"value": 555.0})

        refreshed = a.entities("obs").find(predicate)
        assert ta.reports == before + 1
        changed = [d for d in refreshed if d["_id"] == ids[0]]
        assert changed and changed[0]["value"] == 555.0
        # Local: the warm hit, and the re-executed find's document scope
        # (the result check had just re-synced).  Re-synced: that check.
        validations = a.runtime.cache_tier.snapshot()["coherence"][
            "validations"]
        assert validations == {"local": 2, "resynced": 1}
        text = a.explain("obs", predicate)
        assert ("Cache coherence: 2 validated locally, "
                "1 after a ledger re-sync") in text

    def test_sync_overlapping_an_in_flight_write_is_superseded(self):
        """B's write frame is held after B sent it and before the zone
        applied it while A syncs: A records the counter B advanced on
        send, with pre-write reports.  B's reply-side advance moves the
        counter again, so A's first read after the release sees the
        write — a counter advanced only on send would leave A serving
        its cached pre-write result."""
        (a, b), (ta, tb), _ = twin_gateways(batch_writes=True)
        ids = a.entities("obs").insert_many(
            [make_doc(i) for i in range(4)]
        )
        predicate = Eq("status", "final")
        a.entities("obs").find(predicate)

        tb.armed = True
        writer = threading.Thread(target=lambda: b.entities("obs").update(
            ids[0], {"value": 555.0}))
        writer.start()
        try:
            assert tb.held.wait(timeout=30)
            before = ta.reports
            during = a.entities("obs").find(predicate)
            assert ta.reports == before + 1  # A synced mid-write
            assert [d["value"] for d in during
                    if d["_id"] == ids[0]] == [0.0]
        finally:
            tb.release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        after = a.entities("obs").find(predicate)
        assert [d["value"] for d in after if d["_id"] == ids[0]] == [555.0]

    def test_restarted_gateway_syncs_before_its_first_hit(self):
        (a, b), _, cloud = twin_gateways()
        a.entities("obs").insert_many([make_doc(i) for i in range(4)])
        predicate = Eq("status", "final")
        assert a.entities("obs").count(predicate) == 4
        b.entities("obs").insert(make_doc(9))

        # A fresh gateway over the same zone and HSM: the counter has
        # long moved, but this ledger never synced.
        restarted, transport = gateway(cloud, a.registry, a.keystore.hsm)
        entities = restarted.entities("obs")
        assert transport.reports == 0
        assert entities.count(predicate) == 5
        assert transport.reports == 1
        calls = transport.calls
        assert entities.count(predicate) == 5  # the first hit
        assert (transport.reports, transport.calls) == (1, calls)
        assert restarted.runtime.verifier.resyncs == 1


def secret_obs_schema() -> Schema:
    """``obs`` plus one C1 field: below the cache's admission floor."""
    return Schema.define(
        "obs",
        performer=("string", FieldAnnotation.parse("C1", "I")),
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
    )


class TestUncacheableReadsSkipTheResultCache:
    """A plaintext result on a non-admitted schema is never stored, so
    reading it must not buy a fill token (one ledger re-sync) first."""

    def reports_for_aggregate_after_insert(self, schema, extra,
                                           cache) -> int:
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        transport = ReportCountingTransport(
            InProcTransport(CloudZone(registry).host)
        )
        blinder = DataBlinder(
            APP, transport, registry=registry,
            pipeline=PipelineConfig(
                integrity=IntegrityConfig(),
                cache=CacheConfig() if cache else None,
            ),
        )
        blinder.register_schema(schema)
        entities = blinder.entities("obs")
        entities.insert({"status": "final", "value": 2.0, **extra})
        entities.insert({"status": "final", "value": 4.0, **extra})
        before = transport.reports
        assert entities.average("value") == 3.0
        return transport.reports - before

    def test_non_admitted_schema_pays_no_extra_resync(self):
        secret = {"performer": "dr"}
        cached = self.reports_for_aggregate_after_insert(
            secret_obs_schema(), secret, cache=True)
        uncached = self.reports_for_aggregate_after_insert(
            secret_obs_schema(), secret, cache=False)
        assert cached == uncached == 0

    def test_admitted_schema_still_stamps_its_fill(self):
        admitted = {"patient": "p", "effective": 1, "note": "n"}
        assert self.reports_for_aggregate_after_insert(
            obs_schema(), admitted, cache=True) == 1
