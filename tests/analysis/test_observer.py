"""Persistent-adversary observation: forward privacy on the wire."""

import pytest

from repro.analysis.observer import ObservedTransport
from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.schema import FieldAnnotation, Schema
from repro.fhir.model import observation_schema
from repro.gateway.service import GatewayRuntime
from repro.integrity.config import IntegrityConfig
from repro.net.batch import PipelineConfig
from repro.net.resilience import ResilienceConfig
from repro.net.rpc import Request
from repro.net.transport import InProcTransport
from repro.shard.config import ShardConfig
from repro.shard.rebalance import Resharder
from repro.shard.router import ShardedTransport


@pytest.fixture()
def observed(registry):
    cloud = CloudZone(registry)
    transport = ObservedTransport(InProcTransport(cloud.host))
    runtime = GatewayRuntime("obsapp", transport, registry)
    return transport, runtime


def search(gateway, value):
    return gateway.resolve_eq(gateway.eq_query(value))


class TestQueryLinkability:
    def test_repeated_searches_are_linkable(self, observed):
        """Equal Mitra queries resend the same addresses once the
        keyword memo is gone (a re-``setup()``, as a gateway restart
        does) — the standard query-equality leakage of the persistent
        model."""
        transport, runtime = observed
        mitra = runtime.tactic("d.f", "mitra")
        mitra.insert("d1", "kw")
        mitra.setup()
        search(mitra, "kw")
        mitra.setup()
        search(mitra, "kw")
        assert transport.transcript.linkable_query_pairs("/mitra") >= 1

    def test_warm_repeat_sends_no_address(self, observed):
        """Within one memo lifetime a repeat with no write since sends
        no Mitra query at all, so there is no pair to link.  The first
        search starts cold (after a restart) and sends the one address."""
        transport, runtime = observed
        mitra = runtime.tactic("d.f", "mitra")
        mitra.insert("d1", "kw")
        mitra.setup()
        assert search(mitra, "kw") == {"d1"}
        assert search(mitra, "kw") == {"d1"}
        transcript = transport.transcript
        assert len(transcript.queries("/mitra")) == 1
        assert transcript.linkable_query_pairs("/mitra") == 0

    def test_repeated_find_fetches_the_same_documents(self, registry):
        """Query equality stays visible through the access pattern: from
        a cold memo (a restart after the writes), a repeated
        Mitra-filtered find sends no address, but its document fetch
        names the same ids as the first."""
        transport = ObservedTransport(InProcTransport(
            CloudZone(registry).host))
        blinder = DataBlinder("obsapp", transport, registry=registry)
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        for i in range(6):
            observations.insert({"identifier": i, "status": "final",
                                 "subject": f"p{i % 2}", "value": 1.0})
        blinder.runtime.tactic("observation.subject", "mitra").setup()
        transcript = transport.transcript

        def fetched() -> tuple[int, frozenset[str]]:
            mark = transport.last_sequence
            assert len(observations.find(Eq("subject", "p0"))) == 3
            calls = [c for c in transcript.calls if c.sequence > mark]
            return (sum(c.service.endswith("/mitra") for c in calls),
                    frozenset().union(*(c.identifiers for c in calls
                                         if c.service.startswith("docs/"))))

        (first_lookups, first_ids) = fetched()
        (second_lookups, second_ids) = fetched()
        assert (first_lookups, second_lookups) == (1, 0)
        assert len(first_ids) == 3 and second_ids == first_ids

    def test_distinct_keywords_are_not_linkable(self, observed):
        transport, runtime = observed
        mitra = runtime.tactic("d.f", "mitra")
        mitra.insert("d1", "alpha")
        mitra.insert("d2", "beta")
        search(mitra, "alpha")
        search(mitra, "beta")
        assert transport.transcript.linkable_query_pairs("/mitra") == 0


class TestForwardPrivacyObserved:
    @pytest.mark.parametrize("tactic", ["mitra", "sophos"])
    def test_forward_private_updates_are_unpredictable(self, observed,
                                                       tactic):
        """After watching inserts AND a search, the adversary's
        accumulated artifacts say nothing about the next insert."""
        transport, runtime = observed
        gateway = runtime.tactic("d.f", tactic)
        gateway.insert("d1", "kw")
        gateway.insert("d2", "kw")
        search(gateway, "kw")
        checkpoint = transport.last_sequence
        gateway.insert("d3", "kw")  # post-search update
        collisions = (
            transport.transcript.update_artifacts_predictable_from(
                f"/{tactic}", checkpoint
            )
        )
        assert collisions == 0

    def test_stateless_sse_updates_are_linkable(self, observed):
        """The stateless extension's documented trade: the keyword tag
        repeats across updates, so post-search inserts collide with
        observed artifacts."""
        transport, runtime = observed
        gateway = runtime.tactic("d.f", "sse-stateless")
        gateway.insert("d1", "kw")
        search(gateway, "kw")
        checkpoint = transport.last_sequence
        gateway.insert("d2", "kw")
        collisions = (
            transport.transcript.update_artifacts_predictable_from(
                "/sse-stateless", checkpoint
            )
        )
        assert collisions >= 1

    def test_bulk_insert_entries_count_as_updates(self, observed):
        """A bulk Mitra insert sends its entries in one ``insert_many``
        slot, and the statistic checks their addresses.  Fresh counters
        give no collision; with the counters rolled back, the next bulk
        insert reissues the two addresses the search sent, and the
        statistic sees both."""
        transport, runtime = observed
        mitra = runtime.tactic("d.f", "mitra")
        transcript = transport.transcript
        mitra.index_many([("d1", "kw"), ("d2", "kw")])
        assert search(mitra, "kw") == {"d1", "d2"}
        checkpoint = transport.last_sequence
        mitra.index_many([("d3", "kw"), ("d4", "kw")])
        assert [c.method for c in transcript.updates("/mitra")
                if c.sequence > checkpoint] == ["insert_many"]
        assert transcript.update_artifacts_predictable_from(
            "/mitra", checkpoint) == 0

        local_kv = mitra.ctx.local_kv
        for name in local_kv.counter_names():
            local_kv.counter_set(name, 0)
        checkpoint = transport.last_sequence
        mitra.index_many([("d5", "kw"), ("d6", "kw")])
        assert transcript.update_artifacts_predictable_from(
            "/mitra", checkpoint) == 2

    def test_new_search_reaches_post_search_inserts(self, observed):
        """Forward privacy hides future inserts from *old* tokens; a
        fresh search still finds everything."""
        transport, runtime = observed
        gateway = runtime.tactic("d.f", "sophos")
        gateway.insert("d1", "kw")
        assert search(gateway, "kw") == {"d1"}
        gateway.insert("d2", "kw")
        assert search(gateway, "kw") == {"d1", "d2"}


class TestTranscriptMechanics:
    def test_transcript_records_sequence_and_services(self, observed):
        transport, runtime = observed
        det = runtime.tactic("d.f", "det")
        det.insert("d1", "v")
        calls = transport.transcript.for_service("/det")
        assert calls
        assert all(c.service.endswith("/det") for c in calls)
        sequences = [c.sequence for c in transport.transcript.calls]
        assert sequences == sorted(sequences)

    def test_stats_pass_through(self, observed):
        transport, runtime = observed
        det = runtime.tactic("d.f", "det")
        det.insert("d1", "v")
        assert transport.stats().messages_sent > 0


class TestWiretapOverShardedZone:
    """The wiretap is a transparent layer: it records, it never changes
    what crosses the wire or hides the router's hooks."""

    def test_forwards_frames_and_hooks_unchanged(self, registry):
        cluster = CloudCluster(4, registry=registry)
        router = ShardedTransport(cluster.nodes(), ShardConfig())
        observed = ObservedTransport(router)
        blinder = DataBlinder(
            "obsapp", observed, registry=registry,
            pipeline=PipelineConfig(batch_writes=True),
            resilience=ResilienceConfig(),
        )
        blinder.register_schema(Schema.define(
            "rec",
            status=("string", FieldAnnotation.parse("C4", "I,EQ")),
            note="string",
        ))
        Resharder(router).add_node(*cluster.add_zone("zone-4"))

        assert blinder.runtime.router is router
        assert blinder.runtime.topology_epoch() == router.topology_epoch() > 1
        shard_labels = {label for label in router.labeled_stats()
                        if label.startswith("shard:")}
        assert len(shard_labels) == 5
        assert shard_labels <= set(observed.labeled_stats())
        (listed,) = observed.call_batch([Request("admin", "list_services",
                                                 {})])
        assert "docs/obsapp" in listed.result
        assert observed.transcript.calls[-1].service == "admin"

        frames = []
        call_batch = router.call_batch
        router.call_batch = lambda requests: (
            frames.append(list(requests)) or call_batch(requests)
        )
        before = observed.last_sequence
        blinder.entities("rec").insert({"status": "a", "note": "n"})
        (frame,) = frames  # the batched insert crossed as one frame ...
        assert len(frame) > 1
        assert all(request.idem for request in frame)  # ... keys intact
        # ... and the transcript still lists every sub-call.
        seen = observed.transcript.calls[before:]
        assert [(call.service, call.method) for call in seen] == [
            (request.service, request.method) for request in frame
        ]
        cluster.close()

    def test_transcript_holds_the_report_rounds(self, registry):
        """The verifier's report and audit rounds are frames like any
        other, so the wiretap above the router records them."""
        cluster = CloudCluster(4, registry=registry)
        observed = ObservedTransport(
            ShardedTransport(cluster.nodes(), ShardConfig()))
        blinder = DataBlinder(
            "obsapp", observed, registry=registry,
            pipeline=PipelineConfig(integrity=IntegrityConfig()),
        )
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        observations.insert({"status": "final", "code": "glucose",
                             "subject": "Patient 1", "value": 1.0})
        assert len(observations.find_ids(Eq("status", "final"))) == 1
        blinder.integrity_audit()
        rounds = [call.method for call in observed.transcript.calls
                  if call.service == "integrity/obsapp"]
        assert rounds.count("report") >= 2
        assert rounds.count("audit_report") == 1
        cluster.close()
