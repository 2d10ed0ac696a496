"""Cross-gateway cache coherence under the freshness ledger.

Two gateways share one untrusted zone and one HSM (same derived keys).
With integrity configured, a cached entry is served only after a forced
ledger re-sync shows the coherence stamp unchanged — so a write through
the *other* gateway turns the hit into a miss and the repeat query
re-executes against the live zone: zero stale reads, by protocol rather
than by TTL luck.
"""

from __future__ import annotations

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
from repro.net.transport import InProcTransport
from repro.tactics import register_builtin_tactics

from tests.cache.test_cache_tier import CountingTransport, obs_schema

APP = "coherence"


def twin_gateways(cache=True):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    hsm = SimulatedHsm()
    pipeline = PipelineConfig(
        integrity=IntegrityConfig(),
        cache=CacheConfig() if cache else None,
    )
    gateways = []
    transports = []
    for _ in range(2):
        transport = CountingTransport(InProcTransport(cloud.host))
        blinder = DataBlinder(
            APP, transport, registry=registry,
            keystore=KeyStore(APP, hsm=hsm), pipeline=pipeline,
        )
        blinder.register_schema(obs_schema())
        gateways.append(blinder)
        transports.append(transport)
    return gateways, transports, cloud


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
        # A validated hit is a single ledger re-sync, not a scatter:
        # strictly fewer wire rounds than the cold execution.
        assert 1 <= warm < cold


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

    def call(self, service, method, **kwargs):
        self._note_requests([(service, method)])
        return super().call(service, method, **kwargs)

    def call_request(self, request):
        self._note_requests([(request.service, request.method)])
        return super().call_request(request)

    def call_batch(self, requests):
        self._note_requests([(r.service, r.method) for r in requests])
        return super().call_batch(requests)


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
