"""End-to-end: the full healthcare use case through the public API."""

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, Eq, Range
from repro.core.registry import TacticRegistry
from repro.errors import DocumentNotFound, RemoteError
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import (
    medication_dispense_schema,
    observation_schema,
)
from repro.net.transport import InProcTransport
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics


def deploy(blinder):
    blinder.register_schema(observation_schema())
    blinder.register_schema(medication_dispense_schema())
    generator = MedicalDataGenerator(2019)
    dataset = generator.dataset(patients=8, observations_per_patient=6,
                                dispenses_per_patient=4)
    observations = blinder.entities("observation")
    dispenses = blinder.entities("medication_dispense")
    for observation in dataset.observations:
        observations.insert(observation.to_document())
    for dispense in dataset.dispenses:
        dispenses.insert(dispense.to_document())
    return blinder, dataset


@pytest.fixture()
def deployed(blinder):
    return deploy(blinder)


class TestMotivatingQueries:
    """The paper's three motivating healthcare queries (§1)."""

    @pytest.fixture(scope="class")
    def deployed(self):
        """One deployment for these read-only queries.  It builds its
        own registry, cloud and blinder: the shared ``blinder`` fixture
        is per test."""
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        transport = InProcTransport(CloudZone(registry).host)
        return deploy(DataBlinder("testapp", transport, registry=registry))

    def test_boolean_search(self, deployed):
        """Find patients with a particular condition admitted at a
        particular time — a boolean cross-field search."""
        blinder, dataset = deployed
        observations = blinder.entities("observation")
        target = dataset.observations[0]
        results = observations.find(
            Eq("code", target.code) & Eq("status", target.status)
        )
        expected = {
            o.id for o in dataset.observations
            if o.code == target.code and o.status == target.status
        }
        assert {r["id"] for r in results} == expected

    def test_aggregate_average(self, deployed):
        """Calculate the average measurement value of a patient."""
        blinder, dataset = deployed
        observations = blinder.entities("observation")
        subject = dataset.observations[0].subject
        expected_values = [o.value for o in dataset.observations
                           if o.subject == subject]
        measured = observations.average("value",
                                        where=Eq("subject", subject))
        assert measured == pytest.approx(
            sum(expected_values) / len(expected_values), rel=1e-6
        )

    def test_aggregated_search(self, deployed):
        """Number of times nurses refilled a medication for a patient."""
        blinder, dataset = deployed
        dispenses = blinder.entities("medication_dispense")
        target = dataset.dispenses[0]
        predicate = (Eq("patient", target.patient)
                     & Eq("medication", target.medication))
        count = dispenses.aggregate(
            AggregateQuery(Aggregate.COUNT, "quantity", where=predicate)
        )
        expected = sum(
            1 for d in dataset.dispenses
            if d.patient == target.patient
            and d.medication == target.medication
        )
        assert count == expected

    def test_quantity_sum(self, deployed):
        blinder, dataset = deployed
        dispenses = blinder.entities("medication_dispense")
        target = dataset.dispenses[0].medication
        expected = sum(d.quantity for d in dataset.dispenses
                       if d.medication == target)
        assert dispenses.sum(
            "quantity", where=Eq("medication", target)
        ) == pytest.approx(expected)

    def test_date_range_query(self, deployed):
        blinder, dataset = deployed
        observations = blinder.entities("observation")
        times = sorted(o.effective for o in dataset.observations)
        low, high = times[len(times) // 4], times[3 * len(times) // 4]
        results = observations.find(Range("effective", low, high))
        expected = {o.id for o in dataset.observations
                    if low <= o.effective <= high}
        assert {r["id"] for r in results} == expected


class TestLifecycles:
    def test_full_document_lifecycle(self, deployed):
        blinder, _ = deployed
        observations = blinder.entities("observation")
        doc_id = observations.insert({
            "id": "fx", "identifier": 999, "status": "registered",
            "code": "bmi", "subject": "Lifecycle Test",
            "effective": 1500000000, "issued": 1500003600,
            "performer": "Dr. Smith", "value": 22.5,
            "interpretation": "normal",
        })
        assert observations.get(doc_id)["value"] == 22.5

        observations.update(doc_id, {"status": "final", "value": 23.0})
        found = observations.find(
            Eq("subject", "Lifecycle Test") & Eq("status", "final")
        )
        assert len(found) == 1 and found[0]["value"] == 23.0

        assert observations.delete(doc_id)
        with pytest.raises((DocumentNotFound, RemoteError)):
            observations.get(doc_id)

    def test_schemas_are_isolated(self, deployed):
        blinder, dataset = deployed
        observations = blinder.entities("observation")
        dispenses = blinder.entities("medication_dispense")
        # Both schemas have a `performer` field; ensure no cross-talk.
        target = dataset.dispenses[0].performer
        dispense_hits = dispenses.find(Eq("performer", target))
        assert all("medication" in d for d in dispense_hits)
        assert observations.count() == len(dataset.observations)


class TestUntrustedZoneSeesNoPlaintext:
    def test_cloud_stores_contain_no_sensitive_values(self, blinder,
                                                      cloud):
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        secret_subject = "Extremely Unique Patient Name 42"
        observations.insert({
            "id": "f1", "identifier": 1, "status": "final",
            "code": "glucose", "subject": secret_subject,
            "effective": 1359966610, "issued": 1362407410,
            "performer": "Secret Performer 99", "value": 6.3,
            "interpretation": "high",
        })
        kv, documents = cloud.application_stores("testapp")
        blob = bytearray()
        for key in kv.keys():
            blob += key + (kv.get(key) or b"")
        for name, bucket in kv._maps.items():
            blob += name
            for k, v in bucket.items():
                blob += k + v
        for name, members in kv._sets.items():
            blob += name + b"".join(members)
        import json

        for document in documents.iter_documents():
            blob += json.dumps(
                {k: v for k, v in document.items() if k != "body"},
                default=str,
            ).encode()
            blob += document["body"]
        assert secret_subject.encode() not in bytes(blob)
        assert b"Secret Performer 99" not in bytes(blob)
        assert b"glucose" not in bytes(blob)

    def test_queries_send_no_plaintext(self, blinder, transport, cloud):
        """Trapdoors, not values, cross the zone boundary for SSE fields."""
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        observations.insert({
            "id": "f1", "identifier": 1, "status": "final",
            "code": "glucose", "subject": "Wiretap Target",
            "effective": 1, "issued": 2, "performer": "P", "value": 1.0,
            "interpretation": "",
        })
        # Capture frames by wrapping the transport's host dispatch.
        captured = []
        original = transport._host.dispatch

        def spy(request):
            captured.append(repr(request.kwargs))
            return original(request)

        transport._host.dispatch = spy
        try:
            observations.find(Eq("subject", "Wiretap Target"))
        finally:
            transport._host.dispatch = original
        assert captured
        assert not any("Wiretap Target" in frame for frame in captured)
