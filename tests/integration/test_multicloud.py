"""Multi-cloud deployment: documents and indexes on different providers."""

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.errors import TransportError
from repro.fhir.model import benchmark_observation_schema, observation_schema
from repro.net.multicloud import (
    MultiCloudTransport,
    prefix_rule,
    split_documents_and_indexes,
)
from repro.net.transport import InProcTransport


def make_doc(i, **overrides):
    doc = {
        "id": f"f{i}", "identifier": i, "status": "final",
        "code": "glucose", "subject": "Split Pat", "effective": 1000 + i,
        "issued": 2000 + i, "performer": "Dr", "value": float(i),
        "interpretation": "",
    }
    doc.update(overrides)
    return doc


@pytest.fixture()
def split_deployment(registry):
    provider_a = CloudZone(registry)   # documents
    provider_b = CloudZone(registry)   # indexes
    transport = split_documents_and_indexes(
        InProcTransport(provider_a.host), InProcTransport(provider_b.host)
    )
    blinder = DataBlinder("splitapp", transport, registry=registry)
    blinder.register_schema(observation_schema())
    return blinder, provider_a, provider_b


class TestSplitDeployment:
    def test_full_functionality_across_providers(self, split_deployment):
        blinder, _, _ = split_deployment
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(4)]
        assert observations.count() == 4
        assert observations.find_ids(Eq("status", "final")) == set(ids)
        assert observations.find_ids(Eq("subject", "Split Pat")) == set(ids)
        assert observations.average("value") == pytest.approx(1.5)
        observations.update(ids[0], {"value": 9.0})
        assert observations.average("value") == pytest.approx(3.75)
        assert observations.delete(ids[1])
        assert observations.count() == 3

    def test_colocated_find_across_providers(self, registry):
        """A DET find compiles to one co-located round, but here the
        index and the documents live with different providers: the
        index provider answers the lookup, the document provider serves
        ``get_many`` and never sees the token."""
        provider_a, provider_b = CloudZone(registry), CloudZone(registry)
        seen: list[tuple[str, str]] = []
        documents = InProcTransport(provider_a.host)
        call_request = documents.call_request
        documents.call_request = lambda request: (
            seen.append((request.service, request.method))
            or call_request(request))
        blinder = DataBlinder("splitapp", split_documents_and_indexes(
            documents, InProcTransport(provider_b.host)), registry=registry)
        blinder.register_schema(benchmark_observation_schema())
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i, status=("final", "x")[i % 2]))
               for i in range(4)]
        seen.clear()
        found = observations.find(Eq("status", "final"))
        assert sorted(d["_id"] for d in found) == sorted(ids[0::2])
        assert seen == [("docs/splitapp", "get_many")]

    def test_document_provider_holds_no_indexes(self, split_deployment):
        blinder, provider_a, provider_b = split_deployment
        observations = blinder.entities("observation")
        observations.insert(make_doc(1))

        kv_a, docs_a = provider_a.application_stores("splitapp")
        kv_b, docs_b = provider_b.application_stores("splitapp")
        # Provider A: documents only, zero index entries.
        assert len(docs_a) == 1
        stats_a = kv_a.stats()
        assert stats_a["map_entries"] == 0
        assert stats_a["sets"] == 0
        # Provider B: indexes only, zero documents.
        assert len(docs_b) == 0
        stats_b = kv_b.stats()
        assert stats_b["map_entries"] + stats_b["set_members"] > 0

    def test_index_provider_alone_cannot_run_snapshot_attacks_on_bodies(
            self, split_deployment):
        """The index provider sees tokens but no ciphertext objects; the
        document provider sees ciphertexts but no tokens — the combined
        snapshot the attacks need requires collusion."""
        blinder, provider_a, provider_b = split_deployment
        observations = blinder.entities("observation")
        observations.insert(make_doc(1))

        from repro.analysis.snapshot import SnapshotAdversary

        adversary_b = SnapshotAdversary(provider_b, "splitapp")
        histogram = adversary_b.det_token_histogram("effective")
        assert histogram  # the index provider does see DET structure...
        assert adversary_b.report().documents == 0  # ...but no documents

        adversary_a = SnapshotAdversary(provider_a, "splitapp")
        assert adversary_a.det_token_histogram("effective") == {}
        assert adversary_a.report().documents == 1


class TestRouter:
    def test_unroutable_service_rejected(self, registry):
        zone = CloudZone(registry)
        transport = MultiCloudTransport([
            (prefix_rule("docs/"), InProcTransport(zone.host)),
        ])
        with pytest.raises(TransportError):
            transport.call("tactic/a/f/det", "setup")

    def test_empty_routes_rejected(self):
        with pytest.raises(TransportError):
            MultiCloudTransport([])

    def test_stats_merge_providers(self, split_deployment):
        blinder, _, _ = split_deployment
        observations = blinder.entities("observation")
        observations.insert(make_doc(1))
        stats = blinder.runtime.transport.stats()
        assert stats.messages_sent > 5
        assert stats.bytes_sent > 0

    def test_first_matching_rule_wins(self, registry):
        zone_a, zone_b = CloudZone(registry), CloudZone(registry)
        ta, tb = InProcTransport(zone_a.host), InProcTransport(zone_b.host)
        transport = MultiCloudTransport([
            (prefix_rule("docs/special"), ta),
            (prefix_rule("docs/"), tb),
            (lambda s: True, tb),
        ])
        transport.call("admin", "provision_application",
                       application="special")
        transport.call("admin", "provision_application", application="x")
        transport.call("docs/special", "insert", document={
            "_id": "d", "schema": "s", "body": b"", "plain": {},
        })
        _, docs_a = zone_a.application_stores("special")
        _, docs_b = zone_b.application_stores("special")
        assert len(docs_a) == 1 and len(docs_b) == 0
