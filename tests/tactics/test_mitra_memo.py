"""Mitra's keyword memo: a repeated search sends only what was appended.

The gateway keeps each keyword's surviving ids up to the counter it
folded.  Every search must still equal a plaintext oracle, a repeat with
no write in between sends no Mitra query, a search after ``k`` writes
sends exactly the ``k`` new addresses, and the memo never serves an
answer its counter cannot vouch for.  Each case runs on a one-node zone
and on a four-node sharded zone; the seeded interleavings follow
``DATABLINDER_CHAOS_SEED`` (CI runs several).
"""

from __future__ import annotations

import os
import sys
import threading

import pytest
from hypothesis import seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.analysis.observer import ObservedTransport
from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.registry import TacticRegistry
from repro.errors import TacticError
from repro.gateway.service import GatewayRuntime
from repro.net.transport import InProcTransport
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

CHAOS_SEED = int(os.environ.get("DATABLINDER_CHAOS_SEED", "1337"))
KEYWORDS = ("alpha", "beta", "gamma")
DOCS = tuple(f"d{i}" for i in range(6))


class Deployment:
    """A Mitra gateway over a wiretapped one-node or four-node zone."""

    def __init__(self, nodes: int):
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        self.cluster = None
        if nodes == 1:
            inner = InProcTransport(CloudZone(registry).host)
        else:
            self.cluster = CloudCluster(nodes, registry=registry)
            inner = ShardedTransport(self.cluster.nodes(), ShardConfig())
        self.transport = ObservedTransport(inner)
        self.runtime = GatewayRuntime("memo", self.transport, registry)
        self.mitra = self.runtime.tactic("d.f", "mitra")

    def search(self, keyword: str) -> set[str]:
        return self.mitra.resolve_eq(self.mitra.eq_query(keyword))

    def sent(self, run) -> tuple[object, list[frozenset[bytes]]]:
        """``run()``'s result, and the addresses of each Mitra query it
        sent."""
        mark = self.transport.last_sequence
        result = run()
        sent = [call.artifacts
                for call in self.transport.transcript.queries("/mitra")
                if call.sequence > mark]
        return result, sent

    def counter_names(self) -> list[bytes]:
        return self.mitra.ctx.local_kv.counter_names()

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()


@pytest.fixture(params=[1, 4], ids=["zone", "sharded"])
def deployment(request):
    deployed = Deployment(request.param)
    yield deployed
    deployed.close()


@seed(CHAOS_SEED)
class MemoMachine(RuleBasedStateMachine):
    """Interleaved writes and searches on three keywords, against a
    plaintext oracle and an exact count of the addresses each search
    sends."""

    nodes = 1

    def __init__(self):
        super().__init__()
        self.deployed = Deployment(self.nodes)
        self.live: dict[str, str] = {}  # doc -> keyword
        self.appended = dict.fromkeys(KEYWORDS, 0)
        self.searched_at: dict[str, int] = {}
        self.queried: set[bytes] = set()

    @initialize()
    def start_cold(self):
        assert self.deployed.counter_names() == []

    def _append(self, keyword: str) -> None:
        self.appended[keyword] += 1

    @precondition(lambda self: len(self.live) < len(DOCS))
    @rule(data=st.data(), keyword=st.sampled_from(KEYWORDS))
    def insert(self, data, keyword):
        doc = data.draw(st.sampled_from(
            [doc for doc in DOCS if doc not in self.live]))
        self.deployed.mitra.insert(doc, keyword)
        self.live[doc] = keyword
        self._append(keyword)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        doc = data.draw(st.sampled_from(sorted(self.live)))
        keyword = self.live.pop(doc)
        self.deployed.mitra.delete(doc, keyword)
        self._append(keyword)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), keyword=st.sampled_from(KEYWORDS))
    def update(self, data, keyword):
        doc = data.draw(st.sampled_from(sorted(self.live)))
        old = self.live[doc]
        self.deployed.mitra.update(doc, old, keyword)
        self.live[doc] = keyword
        self._append(old)
        self._append(keyword)

    @rule(keyword=st.sampled_from(KEYWORDS))
    def search(self, keyword):
        ids, sent = self.deployed.sent(lambda: self.deployed.search(keyword))
        assert ids == {doc for doc, kw in self.live.items() if kw == keyword}
        appended = self.appended[keyword]
        if keyword not in self.searched_at:
            assert [len(addresses) for addresses in sent] == [appended]
        else:
            fresh = appended - self.searched_at[keyword]
            assert [len(addresses) for addresses in sent] == (
                [fresh] if fresh else [])
        for addresses in sent:
            assert addresses.isdisjoint(self.queried)
            self.queried |= addresses
        self.searched_at[keyword] = appended

    def teardown(self):
        self.deployed.close()


class ShardedMemoMachine(MemoMachine):
    nodes = 4


MACHINE_SETTINGS = settings(max_examples=25, stateful_step_count=30,
                            deadline=None)
TestMemoInterleavings = MemoMachine.TestCase
TestMemoInterleavings.settings = MACHINE_SETTINGS
TestShardedMemoInterleavings = ShardedMemoMachine.TestCase
TestShardedMemoInterleavings.settings = MACHINE_SETTINGS


class TestFramesPerSearch:
    def test_a_repeat_sends_no_mitra_frame(self, deployment):
        deployment.mitra.insert("d1", "kw")
        deployment.mitra.insert("d2", "kw")
        first, sent = deployment.sent(lambda: deployment.search("kw"))
        assert first == {"d1", "d2"} and [len(a) for a in sent] == [2]
        frames = deployment.transport.stats().messages_sent
        again, sent = deployment.sent(lambda: deployment.search("kw"))
        assert again == first and sent == []
        assert deployment.transport.stats().messages_sent == frames

    def test_k_writes_send_the_k_new_addresses(self, deployment):
        mitra = deployment.mitra
        for doc in ("d1", "d2", "d3"):
            mitra.insert(doc, "kw")
        _, (old,) = deployment.sent(lambda: deployment.search("kw"))
        mitra.delete("d2", "kw")
        mitra.update("d3", "kw", "other")
        mitra.insert("d4", "kw")
        ids, (new,) = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1", "d4"}
        assert len(new) == 3 and new.isdisjoint(old)


class TestNeverStale:
    def test_a_counter_below_the_memo_falls_back_to_a_full_fetch(
            self, deployment):
        """A restored ``local_kv`` (counter rolled back below the memo)
        is answered from the entries its counter names, as a cold
        gateway would answer it."""
        mitra = deployment.mitra
        for doc in ("d1", "d2", "d3"):
            mitra.insert(doc, "kw")
        assert deployment.search("kw") == {"d1", "d2", "d3"}
        (name,) = deployment.counter_names()
        mitra.ctx.local_kv.counter_set(name, 1)
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1"} and [len(a) for a in sent] == [1]
        mitra.setup()
        assert deployment.search("kw") == ids

    def test_resetup_and_key_rotation_start_cold(self, deployment):
        mitra = deployment.mitra
        kernels = deployment.runtime.kernels
        mitra.insert("d1", "kw")
        deployment.search("kw")
        assert kernels.token_cache_stats()["entries"] == 1
        mitra.setup()
        assert kernels.token_cache_stats()["entries"] == 0
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1"} and [len(a) for a in sent] == [1]

        deployment.runtime.keystore.rotate_root()
        mitra.setup()
        assert kernels.token_cache_stats()["entries"] == 0
        mitra.insert("d2", "kw")  # under the rotated key
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d2"} and [len(a) for a in sent] == [1]

    def test_a_lost_entry_in_the_new_range_still_raises(self, deployment):
        """A reserved but unwritten address past the memo raises, and
        the failed fold is not remembered."""
        mitra = deployment.mitra
        mitra.insert("d1", "kw")
        assert deployment.search("kw") == {"d1"}
        (name,) = deployment.counter_names()
        mitra.ctx.local_kv.counter_increment(name)
        for _ in range(2):
            with pytest.raises(TacticError, match="lost a Mitra index"):
                deployment.search("kw")
        mitra.insert("d2", "kw")
        with pytest.raises(TacticError, match="lost a Mitra index"):
            deployment.search("kw")

    def test_a_short_reply_raises_and_is_not_remembered(self, deployment):
        mitra = deployment.mitra
        mitra.insert("d1", "kw")
        mitra.insert("d2", "kw")
        raw = mitra.eq_query("kw")
        raw["masked"] = raw["masked"][:1]
        with pytest.raises(TacticError, match="lost a Mitra index"):
            mitra.resolve_eq(raw)
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1", "d2"} and [len(a) for a in sent] == [2]


class TestConcurrentSearches:
    def test_a_late_fold_is_exact_for_the_count_it_read(self, deployment):
        """A search that read the counter before a write and resolves
        after a newer one stored its fold answers for its own count,
        and the next search still reaches every entry."""
        mitra = deployment.mitra
        mitra.insert("d1", "kw")
        late = mitra.eq_query("kw")
        mitra.insert("d2", "kw")
        newer: list[set[str]] = []
        thread = threading.Thread(
            target=lambda: newer.append(deployment.search("kw")))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert newer == [{"d1", "d2"}]
        assert mitra.resolve_eq(late) == {"d1"}
        mitra.delete("d1", "kw")
        assert deployment.search("kw") == {"d2"}

    def test_threads_never_store_a_fold_behind_their_count(self,
                                                           deployment):
        """One writer appends while three threads search the same
        keyword.  A search may meet a reserved but unwritten address
        (the known reservation race, which raises); every search that
        answers equals the oracle at the counter it read, and so does
        the fold the memo keeps."""
        mitra = deployment.mitra
        writes = [("insert", f"d{i}") for i in range(12)]
        writes += [("delete", f"d{i}") for i in range(0, 12, 3)]
        prefix = [frozenset()]
        for op, doc in writes:
            prefix.append(prefix[-1] | {doc} if op == "insert"
                          else prefix[-1] - {doc})
        answers: list[tuple[int, set[str]]] = []
        errors: list[BaseException] = []

        def write() -> None:
            for op, doc in writes:
                getattr(mitra, op)(doc, "kw")

        def read() -> None:
            try:
                for _ in range(25):
                    raw = mitra.eq_query("kw")
                    try:
                        answers.append((raw["count"], mitra.resolve_eq(raw)))
                    except TacticError as exc:
                        assert "lost a Mitra index" in str(exc)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers
        for count, ids in answers:
            assert ids == prefix[count]
        assert deployment.search("kw") == prefix[-1]
        (name,) = deployment.counter_names()
        count, ids = mitra._memo.get(name)
        assert ids == prefix[count]
