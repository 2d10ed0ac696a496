"""Freshness ledger unit tests: trust-on-write, rollback classification."""

from __future__ import annotations

import pytest

from repro.errors import IntegrityError, StaleStateError
from repro.integrity.merkle import digest_root, merge_digests
from repro.integrity.verify import VerifyingTransport
from repro.integrity.watermark import FreshnessLedger
from repro.net.latency import NetworkStats
from repro.net.rpc import Response
from repro.net.transport import Transport


def report(seq: int, **trees: tuple[str, int]) -> dict:
    return {
        "seq": seq,
        "trees": {
            name: {"root": root, "digest": f"{digest:064x}"}
            for name, (root, digest) in trees.items()
        },
    }


class TestAcceptReport:
    def test_first_report_establishes_the_watermark(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(3, docs=("r1", 10)))
        entry = ledger.expect("shard:a", "docs")
        assert entry.seq == 3
        assert entry.root == "r1"
        assert entry.digest == 10

    def test_advancing_seq_with_new_root_is_a_write_taking_effect(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(3, docs=("r1", 10)))
        ledger.accept_report("shard:a", report(5, docs=("r2", 11)))
        assert ledger.expect("shard:a", "docs").root == "r2"

    def test_same_report_is_idempotent(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(3, docs=("r1", 10)))
        ledger.accept_report("shard:a", report(3, docs=("r1", 10)))
        assert ledger.expect("shard:a", "docs").seq == 3

    def test_sequence_regression_is_stale(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(5, docs=("r2", 11)))
        with pytest.raises(StaleStateError):
            ledger.accept_report("shard:a", report(4, docs=("r1", 10)))

    def test_root_change_without_seq_advance_is_tampering(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(5, docs=("r2", 11)))
        with pytest.raises(IntegrityError):
            ledger.accept_report("shard:a", report(5, docs=("rX", 11)))

    def test_labels_and_trees_views(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(1, docs=("r1", 1)))
        ledger.accept_report("shard:b", report(2, kv=("r2", 2)))
        assert ledger.labels() == ["shard:a", "shard:b"]
        assert ledger.trees() == ["docs", "kv"]


#: Report shapes a hostile or broken shard can send, each of which
#: escaped as an untyped ValueError / KeyError / AttributeError.
MALFORMED = {
    "seq-not-a-number": {"seq": "x"},
    "digest-not-hex": {"seq": 1, "trees": {"docs": {"root": "r",
                                                     "digest": "zz"}}},
    "tree-without-root": {"seq": 1, "trees": {"docs": {"digest": "0a"}}},
    "trees-a-list": {"seq": 1, "trees": ["docs"]},
    "report-a-string": "not a report",
}


class StaticReports(Transport):
    """Answers every report round with ``report``."""

    def __init__(self, report):
        self.report = report

    def call_batch(self, requests):
        for request in requests:
            assert request.method == "report", f"unexpected {request}"
        return [Response(ok=True, result=self.report) for _ in requests]

    def stats(self):
        return NetworkStats()


class TestMalformedReports:
    @pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED)
    def test_is_an_integrity_error_and_changes_nothing(self, bad):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(3, docs=("r1", 10)))
        with pytest.raises(IntegrityError):
            ledger.accept_report("shard:a", bad)
        assert ledger.snapshot() == {
            "shard:a:docs": {"seq": 3, "root": "r1", "retired": 0}}

    @pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED)
    def test_is_counted_by_the_verifier(self, bad):
        verifier = VerifyingTransport(StaticReports(bad), "app")
        with pytest.raises(IntegrityError):
            verifier.coherence_stamp()
        assert verifier.own_stats().integrity_failures == 1
        assert verifier.resyncs == 0


class TestClassify:
    def test_current_root_matches_some_shard(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(1, docs=("r1", 1)))
        ledger.accept_report("shard:b", report(1, docs=("r2", 2)))
        assert ledger.classify("docs", "r1", 1) == "current"
        assert ledger.classify("docs", "r2", 1) == "current"

    def test_retired_root_is_stale(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(1, docs=("old", 1)))
        ledger.accept_report("shard:a", report(2, docs=("new", 2)))
        assert ledger.classify("docs", "new", 2) == "current"
        assert ledger.classify("docs", "old", 1) == "stale"

    def test_never_seen_root_is_unknown(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(1, docs=("r1", 1)))
        assert ledger.classify("docs", "forged", 1) == "unknown"
        assert ledger.classify("other-tree", "r1", 1) == "unknown"

    def test_history_zero_forgets_retired_roots(self):
        ledger = FreshnessLedger(history=0)
        ledger.accept_report("shard:a", report(1, docs=("old", 1)))
        ledger.accept_report("shard:a", report(2, docs=("new", 2)))
        # Without retired-root memory a replay is indistinguishable
        # from tampering — detected either way, just coarser.
        assert ledger.classify("docs", "old", 1) == "unknown"

    def test_history_bound_evicts_oldest(self):
        ledger = FreshnessLedger(history=2)
        for seq, root in enumerate(["r0", "r1", "r2", "r3"], start=1):
            ledger.accept_report("shard:a", report(seq, docs=(root, seq)))
        assert ledger.classify("docs", "r0", 1) == "unknown"  # evicted
        assert ledger.classify("docs", "r2", 3) == "stale"


class TestClusterViews:
    def test_cluster_digest_sums_shards(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(1, docs=("r1", 10)))
        ledger.accept_report("shard:b", report(1, docs=("r2", 32)))
        ledger.accept_report("shard:b", report(1, kv=("r3", 5)))
        assert ledger.cluster_digest("docs") == merge_digests([10, 32])
        assert ledger.cluster_digest("kv") == 5
        assert ledger.cluster_root("docs") == digest_root(42)

    def test_snapshot_shape(self):
        ledger = FreshnessLedger()
        ledger.accept_report("shard:a", report(1, docs=("old", 1)))
        ledger.accept_report("shard:a", report(2, docs=("new", 2)))
        view = ledger.snapshot()
        assert view == {
            "shard:a:docs": {"seq": 2, "root": "new", "retired": 1}
        }
