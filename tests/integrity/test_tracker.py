"""Cloud-side tracker tests: incremental vs recomputed roots, domains,
counter canonicalisation, WAL seq seeding, and the tactic SPI digest."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.fhir.model import observation_schema
from repro.integrity import IntegrityConfig
from repro.integrity.merkle import verify_inclusion
from repro.integrity.tracker import (
    IntegrityTracker,
    _doc_leaf,
    digest_of_namespace_dump,
    tree_for_key,
)
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport
from repro.stores.docstore import DocumentStore
from repro.stores.kv import KeyValueStore
from repro.tactics import register_builtin_tactics

APP = "trackapp"


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


def integrity_deployment() -> tuple[CloudZone, DataBlinder]:
    registry = fresh_registry()
    cloud = CloudZone(registry)
    blinder = DataBlinder(
        APP, InProcTransport(cloud.host), registry=registry,
        pipeline=PipelineConfig(integrity=IntegrityConfig()),
    )
    blinder.register_schema(observation_schema())
    return cloud, blinder


class TestTreeForKey:
    def test_tactic_keys_map_to_their_provisioned_domain(self):
        key = b"tactic/app/status/dete/postings/x"
        assert tree_for_key(key) == "tactic/app/status/dete"

    def test_short_tactic_prefix_falls_back_to_kv(self):
        assert tree_for_key(b"tactic/app") == "kv"

    def test_other_keys_are_kv(self):
        assert tree_for_key(b"whatever/else") == "kv"


class TestIncrementalVsRecomputed:
    def test_report_matches_audit_report_after_live_traffic(self):
        """The incremental trees never drift from the raw stores."""
        cloud, blinder = integrity_deployment()
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(8)]
        observations.update(ids[2], {"value": 42.0})
        observations.delete(ids[7])
        observations.find_ids(Eq("status", "final"))

        tracker = cloud.integrity_tracker(APP)
        live = tracker.report()
        recomputed = tracker.audit_report()
        assert live["seq"] == recomputed["seq"]
        assert live["trees"] == recomputed["trees"]
        assert live["trees"]["docs"]["leaves"] == 7

    def test_docs_only_report_leaves_the_other_trees_marked(self):
        """The write ack's narrowed report re-hashes only ``docs``; the
        tactic trees the same writes touched still reach the next full
        report."""
        cloud, blinder = integrity_deployment()
        observations = blinder.entities("observation")
        for i in range(4):
            observations.insert(make_doc(i))
        tracker = cloud.integrity_tracker(APP)
        narrowed = tracker.report(trees=["docs"])
        recomputed = tracker.audit_report()
        docs = recomputed["trees"]["docs"]
        assert narrowed == {"seq": recomputed["seq"], "trees": {
            "docs": {"root": docs["root"], "digest": docs["digest"]}}}
        assert tracker.report()["trees"] == recomputed["trees"]

    def test_rebuilt_tracker_reproduces_the_roots(self):
        """A tracker re-attached to existing stores (restart) rebuilds
        the exact same per-domain state from the raw stores."""
        cloud, blinder = integrity_deployment()
        observations = blinder.entities("observation")
        for i in range(5):
            observations.insert(make_doc(i))
        original = cloud.integrity_tracker(APP)
        kv, documents = cloud.application_stores(APP)
        rebuilt = IntegrityTracker(kv, documents)
        assert rebuilt.report()["trees"] == original.report()["trees"]


#: Two tactic namespaces plus the catch-all, so scripts spread over
#: several trees and ``move`` has somewhere to relocate a namespace to.
_NAMES = st.sampled_from([
    b"tactic/a/f/t/" + suffix for suffix in (b"x", b"y", b"z")
] + [b"tactic/a/g/u/x", b"tactic/a/g/u/y", b"plain/x", b"plain/y"])
_SMALL = st.binary(min_size=1, max_size=2)
_DOC_IDS = st.sampled_from([f"d{i}" for i in range(20)])

_SCRIPT = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _NAMES, _SMALL),
        st.tuples(st.just("del"), _NAMES),
        st.tuples(st.just("mput"), _NAMES, _SMALL, _SMALL),
        st.tuples(st.just("mdel"), _NAMES, _SMALL),
        st.tuples(st.just("sadd"), _NAMES, _SMALL),
        st.tuples(st.just("srem"), _NAMES, _SMALL),
        st.tuples(st.just("incr"), _NAMES, st.integers(-2, 2)),
        st.tuples(st.just("cset"), _NAMES, st.integers(0, 2)),
        st.tuples(st.just("doc"), _DOC_IDS, st.integers(0, 3)),
        st.tuples(st.just("undoc"), _DOC_IDS),
        st.tuples(st.just("move")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("report")),
    ),
    max_size=60,
)


def _apply(kv: KeyValueStore, documents: DocumentStore, step: tuple) -> None:
    op, args = step[0], step[1:]
    if op == "put":
        kv.put(*args)
    elif op == "del":
        kv.delete(*args)
    elif op == "mput":
        kv.map_put(*args)
    elif op == "mdel":
        kv.map_delete(*args)
    elif op == "sadd":
        kv.set_add(*args)
    elif op == "srem":
        kv.set_remove(*args)
    elif op == "incr":
        kv.counter_increment(*args)
    elif op == "cset":
        kv.counter_set(*args)
    elif op == "doc":
        doc_id, version = args
        document = {"_id": doc_id, "body": f"v{version}"}
        if documents.contains(doc_id):
            documents.replace(document)
        else:
            documents.insert(document)
    elif op == "undoc":
        documents.delete(*args)
    elif op == "move":
        # What resharding does to a tactic namespace: dump, drop
        # (counters reset to 0, not deleted), load it back.
        dump = kv.namespace_dump(b"tactic/a/f/t/")
        kv.namespace_drop(b"tactic/a/f/t/")
        kv.namespace_load(dump)
    elif op == "flush":
        kv.flush_all()


def _occupied(report: dict) -> dict:
    """A live tracker keeps reporting a tree it has emptied; a raw-state
    scan never meets it.  Compare the trees that hold something."""
    return {
        "seq": report["seq"],
        "trees": {name: entry for name, entry in report["trees"].items()
                  if entry["leaves"] or name == "docs"},
    }


class TestRandomMutationScripts:
    @given(script=_SCRIPT)
    @settings(max_examples=40, deadline=None)
    def test_report_never_drifts_from_the_raw_stores(self, script):
        """Incremental roots (and the entries ``report()`` caches
        between calls) equal the roots recomputed from raw state, and
        a tracker rebuilt from the same stores agrees."""
        kv, documents = KeyValueStore(), DocumentStore()
        tracker = IntegrityTracker(kv, documents)
        for step in script:
            if step[0] == "report":
                assert _occupied(tracker.report()) == tracker.audit_report()
            else:
                _apply(kv, documents, step)
        live = tracker.report()
        assert live == tracker.report()
        assert _occupied(live) == tracker.audit_report()
        rebuilt = IntegrityTracker(kv, documents).report()
        assert rebuilt["trees"] == _occupied(live)["trees"]

    def test_returned_reports_are_not_aliased_to_the_cache(self):
        kv, documents = KeyValueStore(), DocumentStore()
        tracker = IntegrityTracker(kv, documents)
        kv.put(b"k", b"v")
        first = tracker.report()
        first["trees"]["kv"]["root"] = "clobbered"
        assert tracker.report()["trees"]["kv"]["root"] != "clobbered"


class TestProveDocuments:
    def test_one_root_and_seq_for_the_whole_batch(self):
        kv, documents = KeyValueStore(), DocumentStore()
        tracker = IntegrityTracker(kv, documents)
        stored = [{"_id": f"d{i}", "body": "x" * i} for i in range(40)]
        for document in stored:
            documents.insert(document)
        envelopes = tracker.prove_documents(
            [(document["_id"], document) for document in stored]
        )
        root = tracker.report()["trees"]["docs"]["root"]
        assert [e["_id"] for e in envelopes] == [d["_id"] for d in stored]
        for envelope, document in zip(envelopes, stored):
            assert envelope == tracker.prove_document(document["_id"],
                                                      document)
            assert (envelope["root"], envelope["seq"]) == (root, tracker.seq)
            key, value = _doc_leaf(document)
            assert verify_inclusion(root, key, value, envelope["proof"])
        assert tracker.prove_documents([]) == []


class TestTacticStateDigest:
    def test_state_digest_matches_the_tracker_tree(self):
        """Every provisioned tactic attests the same digest the tracker
        maintains for its domain (empty namespaces digest to zero)."""
        cloud, blinder = integrity_deployment()
        observations = blinder.entities("observation")
        for i in range(6):
            observations.insert(make_doc(i))
        trees = cloud.integrity_tracker(APP).report()["trees"]
        tactic_services = [
            name for name in cloud.host.service_names()
            if name.startswith("tactic/")
        ]
        assert tactic_services
        checked = 0
        for name in tactic_services:
            digest = cloud.host.get(name).state_digest()
            expected = trees.get(name, {}).get("digest", "0" * 64)
            assert digest == expected, name
            if int(digest, 16) != 0:
                checked += 1
        assert checked > 0  # at least one tactic holds index state


class TestCounterCanonicalisation:
    def test_counter_zero_equals_absent(self):
        """``namespace_drop`` resets counters to 0; the tracker must
        treat that as leaf-absent or resharding would change digests."""
        kv, documents = KeyValueStore(), DocumentStore()
        tracker = IntegrityTracker(kv, documents)
        baseline = tracker.report()["trees"].get("kv", {}).get(
            "digest", "0" * 64
        )
        kv.counter_increment(b"hits", 3)
        assert tracker.report()["trees"]["kv"]["digest"] != baseline
        kv.counter_set(b"hits", 0)
        assert tracker.report()["trees"]["kv"].get(
            "digest", "0" * 64
        ) == baseline
        # And the recomputed (raw-scan) path agrees.
        audit = tracker.audit_report()["trees"]
        assert audit.get("kv", {}).get("digest", "0" * 64) == baseline

    def test_namespace_dump_digest_canonicalises_zero_too(self):
        kv = KeyValueStore()
        kv.counter_increment(b"tactic/a/f/t/count", 2)
        kv.counter_set(b"tactic/a/f/t/count", 0)
        dump = kv.namespace_dump(b"tactic/a/f/t/")
        assert int(digest_of_namespace_dump(dump), 16) == 0


class TestSequenceWatermark:
    def test_every_mutation_bumps_the_sequence(self):
        kv, documents = KeyValueStore(), DocumentStore()
        tracker = IntegrityTracker(kv, documents)
        start = tracker.seq
        kv.put(b"k", b"v")
        kv.map_put(b"m", b"f", b"v")
        kv.set_add(b"s", b"m")
        kv.counter_increment(b"c")
        documents.insert({"_id": "d1", "body": "x"})
        documents.delete("d1")
        assert tracker.seq == start + 6

    def test_in_memory_stores_start_at_zero(self):
        tracker = IntegrityTracker(KeyValueStore(), DocumentStore())
        assert tracker.seq == 0

    def test_seq_seeds_from_the_wal_watermark(self, tmp_path):
        """A tracker attached to recovered persistent stores resumes at
        (not below) the sequence the gateway last saw — a restore from
        an old snapshot cannot silently reach the current watermark."""
        store = KeyValueStore(tmp_path / "kv")
        for i in range(4):
            store.put(f"k{i}".encode(), b"v")
        store.close()

        recovered = KeyValueStore(tmp_path / "kv")
        tracker = IntegrityTracker(recovered, DocumentStore())
        assert tracker.seq == recovered.wal_sequence()
        assert tracker.seq >= 4
        root_before = tracker.report()["trees"]["kv"]["root"]
        recovered.put(b"k-new", b"v")
        after = tracker.report()
        assert after["seq"] == tracker.seq
        assert after["trees"]["kv"]["root"] != root_before


class TestProofEnvelope:
    def test_prove_document_envelope_shape(self):
        cloud, blinder = integrity_deployment()
        observations = blinder.entities("observation")
        doc_id = observations.insert(make_doc(0))
        tracker = cloud.integrity_tracker(APP)
        _, documents = cloud.application_stores(APP)
        stored = documents.get(doc_id)
        envelope = tracker.prove_document(doc_id, stored)
        assert envelope["_id"] == doc_id
        assert envelope["document"] == stored
        assert envelope["root"] == tracker.report()["trees"]["docs"]["root"]
        assert envelope["seq"] == tracker.seq
        assert envelope["proof"] is not None
