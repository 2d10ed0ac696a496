"""Full-text search over non-sensitive fields (the Elasticsearch role)."""

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.schema import FieldAnnotation, Schema
from repro.keys.keystore import KeyStore
from repro.net.transport import InProcTransport
from repro.stores.kv import KeyValueStore


def note_schema(name: str = "note") -> Schema:
    return Schema.define(
        name,
        title="string",                  # plaintext: text-searchable
        summary="string",                # plaintext: text-searchable
        author=("string", FieldAnnotation.parse("C2", "I,EQ")),
        body=("string", FieldAnnotation.parse("C1", "I")),
    )


@pytest.fixture()
def notes(blinder):
    blinder.register_schema(note_schema())
    entities = blinder.entities("note")
    entities.insert({
        "title": "Quarterly budget review",
        "summary": "expenses exceeded the projected budget",
        "author": "alice", "body": "secret deliberations",
    })
    entities.insert({
        "title": "Security incident report",
        "summary": "credential stuffing attack on the login endpoint",
        "author": "bob", "body": "secret indicators of compromise",
    })
    entities.insert({
        "title": "Budget planning kickoff",
        "summary": "next year planning for the security budget",
        "author": "alice", "body": "secret allocations",
    })
    return entities


class TestTextSearch:
    def test_ranked_search(self, notes):
        results = notes.text_search("budget")
        assert len(results) == 2 or len(results) == 3
        assert all("budget" in (r["title"] + r["summary"]).lower()
                   for r in results)

    def test_results_are_decrypted_documents(self, notes):
        results = notes.text_search("incident")
        assert len(results) == 1
        # Sensitive fields come back decrypted via the body.
        assert results[0]["author"] == "bob"
        assert results[0]["body"].startswith("secret")

    def test_conjunctive_mode(self, notes):
        results = notes.text_search("security budget", require_all=True)
        assert len(results) == 1
        assert results[0]["title"] == "Budget planning kickoff"

    def test_limit(self, notes):
        assert len(notes.text_search("budget", limit=1)) == 1

    def test_no_match(self, notes):
        assert notes.text_search("unicorns") == []

    def test_sensitive_fields_are_not_text_indexed(self, notes, cloud):
        """The word 'secret' only occurs in a C1-protected field; text
        search must not find it — it never reached the index."""
        assert notes.text_search("secret") == []
        assert notes.text_search("deliberations") == []

    def test_index_follows_updates_and_deletes(self, notes):
        doc = notes.text_search("incident")[0]
        notes.update(doc["_id"], {"title": "Postmortem writeup"})
        assert notes.text_search("incident") == []   # old title gone
        assert notes.text_search("stuffing") != []   # summary remains
        assert notes.text_search("postmortem")[0]["_id"] == doc["_id"]
        notes.delete(doc["_id"])
        assert notes.text_search("postmortem") == []
        assert notes.text_search("stuffing") == []

    def test_limit_counts_only_this_schemas_hits(self, blinder, notes):
        """Another schema's better-ranked hits do not eat the limit."""
        blinder.register_schema(note_schema("memo"))
        memos = blinder.entities("memo")
        memos.insert_many([
            {"title": f"memo {i}", "summary": "budget",
             "author": "carol", "body": "x"}
            for i in range(12)
        ])
        results = memos.text_search("budget", limit=5)
        assert len(results) == 5
        assert all(r["title"].startswith("memo") for r in results)
        assert len(notes.text_search("budget", limit=5)) == 2

    def test_reads_through_the_document_stream(self, blinder, notes):
        notes.text_search("incident")
        timings = blinder.planner_stats("note")["node_timings"]
        assert timings["FetchDocs:docs"]["calls"] == 1


class TestTextIndexAcrossRestarts:
    def test_cloud_restart_keeps_documents_searchable(self, registry,
                                                       tmp_path):
        keystore = KeyStore("textapp")
        cloud = CloudZone(registry, data_dir=tmp_path / "cloud")
        blinder = DataBlinder(
            "textapp", InProcTransport(cloud.host), registry=registry,
            keystore=keystore, local_kv=KeyValueStore(tmp_path / "kv"),
        )
        blinder.register_schema(note_schema())
        doc_id = blinder.entities("note").insert({
            "title": "Quarterly budget review", "summary": "expenses",
            "author": "alice", "body": "secret",
        })
        cloud.close()
        blinder.runtime.local_kv.close()

        cloud2 = CloudZone(registry, data_dir=tmp_path / "cloud")
        blinder2 = DataBlinder(
            "textapp", InProcTransport(cloud2.host), registry=registry,
            keystore=keystore, local_kv=KeyValueStore(tmp_path / "kv"),
        )
        blinder2.restore_schema("note")
        notes = blinder2.entities("note")
        assert notes.count() == 1
        assert [r["_id"] for r in notes.text_search("budget")] == [doc_id]
        cloud2.close()
