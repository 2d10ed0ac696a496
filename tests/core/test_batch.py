"""Bulk insertion through the Entities interface."""

import pytest

from repro.core.query import Eq
from repro.errors import SchemaValidationError
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import observation_schema


@pytest.fixture()
def entities(blinder):
    blinder.register_schema(observation_schema())
    return blinder.entities("observation")


class TestInsertMany:
    def test_bulk_equivalent_to_singles(self, entities):
        generator = MedicalDataGenerator(3)
        documents = [o.to_document() for o in
                     generator.observations(12, cohort_size=4)]
        ids = entities.insert_many(documents)
        assert len(ids) == 12
        assert len(set(ids)) == 12
        assert entities.count() == 12
        # Everything is searchable and decryptable.
        subject = documents[0]["subject"]
        expected = {
            doc_id for doc_id, doc in zip(ids, documents)
            if doc["subject"] == subject
        }
        assert entities.find_ids(Eq("subject", subject)) == expected
        assert entities.get(ids[0])["value"] == documents[0]["value"]

    def test_bulk_uses_one_docstore_round_trip(self, blinder, transport):
        blinder.register_schema(observation_schema())
        entities = blinder.entities("observation")
        generator = MedicalDataGenerator(4)
        documents = [o.to_document() for o in
                     generator.observations(5, cohort_size=2)]

        before = transport.stats().messages_sent
        entities.insert_many(documents)
        batched = transport.stats().messages_sent - before

        before = transport.stats().messages_sent
        for document in [o.to_document() for o in
                         generator.observations(5, cohort_size=2)]:
            entities.insert(document)
        singles = transport.stats().messages_sent - before

        # Singles send, per document, one slot per tactic service and
        # one document-store RPC.  The bulk insert sends one slot per
        # service with a batch finish, BIEX's five per-document term
        # writes and one document-store RPC.
        services = singles // 5 - 1
        assert batched == (services - 1) + 5 + 1

    def test_validation_failure_aborts_storage(self, entities):
        bad = [{"id": "x", "value": "not-a-float"}]
        with pytest.raises(SchemaValidationError):
            entities.insert_many(bad)
        assert entities.count() == 0

    def test_empty_batch(self, entities):
        assert entities.insert_many([]) == []

    def test_aggregates_over_bulk(self, entities):
        generator = MedicalDataGenerator(5)
        documents = [o.to_document() for o in
                     generator.observations(10, cohort_size=3)]
        entities.insert_many(documents)
        expected = sum(d["value"] for d in documents) / len(documents)
        assert entities.average("value") == pytest.approx(expected,
                                                          rel=1e-6)
