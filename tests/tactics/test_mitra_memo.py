"""Mitra's keyword memo: a search sends only what this gateway has not
folded.

The gateway keeps each keyword's surviving ids up to the counter it
folded.  Searches fold what they fetch, and each of the gateway's own
entries is folded once the cloud has acknowledged its frame.  Every
search must still equal a plaintext oracle, a search after this
gateway's own writes sends no Mitra query, a search after ``k`` entries
of another writer sends exactly those ``k`` addresses, and the memo
never serves an answer its counter cannot vouch for nor a write the
cloud did not acknowledge.  Each case runs on a one-node zone and on a
four-node sharded zone; the seeded interleavings follow
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
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.crypto.kernels.config import TOKEN_CACHE_CAPACITY
from repro.crypto.kernels.executor import LruCache
from repro.errors import TacticError, TransportFault
from repro.fhir.model import observation_schema
from repro.gateway.service import GatewayRuntime
from repro.net.batch import PipelineConfig
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.transport import InProcTransport, TransportLayer
from repro.obs.wire import merged
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

CHAOS_SEED = int(os.environ.get("DATABLINDER_CHAOS_SEED", "1337"))
KEYWORDS = ("alpha", "beta", "gamma")
DOCS = tuple(f"d{i}" for i in range(6))


def builtin_registry() -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


class DropArmed(TransportLayer):
    """Drops every frame through a fault injector while ``armed``."""

    armed = False

    def call_batch(self, requests):
        if self.armed:
            return FaultInjectingTransport(
                self.inner, FaultPlan(drop=1.0)).call_batch(requests)
        return self.inner.call_batch(requests)


class Deployment:
    """A Mitra gateway over a wiretapped one-node or four-node zone,
    unbatched unless ``batched``."""

    def __init__(self, nodes: int, batched: bool = False):
        registry = builtin_registry()
        self.cluster = None
        if nodes == 1:
            inner = InProcTransport(CloudZone(registry).host)
        else:
            self.cluster = CloudCluster(nodes, registry=registry)
            inner = ShardedTransport(self.cluster.nodes(), ShardConfig())
        self.link = DropArmed(inner)
        self.transport = ObservedTransport(self.link)
        self.runtime = GatewayRuntime(
            "memo", self.transport, registry,
            pipeline=PipelineConfig(batch_writes=batched))
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

    def second_writer(self):
        """Another gateway half of the same Mitra instance: the same
        keys and counter store, its own memo.  This half folds none of
        its entries, as it would not fold another gateway's."""
        other = type(self.mitra)(self.mitra.ctx)
        other.setup()
        return other

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


@pytest.fixture(params=[1, 4], ids=["zone", "sharded"])
def batched(request):
    deployed = Deployment(request.param, batched=True)
    yield deployed
    deployed.close()


@seed(CHAOS_SEED)
class MemoMachine(RuleBasedStateMachine):
    """Interleaved writes by this gateway and by a second writer,
    restarts and searches on three keywords, against a plaintext oracle
    and an exact count of the addresses each search sends."""

    nodes = 1

    def __init__(self):
        super().__init__()
        self.deployed = Deployment(self.nodes)
        self.writers = {"own": self.deployed.mitra,
                        "other": self.deployed.second_writer()}
        self.live: dict[str, str] = {}  # doc -> keyword
        self.appended = dict.fromkeys(KEYWORDS, 0)
        #: The count this gateway's memo holds per keyword (absent: none).
        self.memo_at: dict[str, int] = {}
        self.queried: set[bytes] = set()

    @initialize()
    def start_cold(self):
        assert self.deployed.counter_names() == []

    def _append(self, keyword: str, writer: str) -> None:
        """One entry on ``keyword``: an own entry continues the memo
        when it is the memo's next (or the keyword's first)."""
        self.appended[keyword] += 1
        count = self.appended[keyword]
        if writer == "own" and (self.memo_at.get(keyword) or 0) == count - 1:
            self.memo_at[keyword] = count

    @precondition(lambda self: len(self.live) < len(DOCS))
    @rule(data=st.data(), keyword=st.sampled_from(KEYWORDS),
          writer=st.sampled_from(["own", "other"]))
    def insert(self, data, keyword, writer):
        doc = data.draw(st.sampled_from(
            [doc for doc in DOCS if doc not in self.live]))
        self.writers[writer].insert(doc, keyword)
        self.live[doc] = keyword
        self._append(keyword, writer)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), writer=st.sampled_from(["own", "other"]))
    def delete(self, data, writer):
        doc = data.draw(st.sampled_from(sorted(self.live)))
        keyword = self.live.pop(doc)
        self.writers[writer].delete(doc, keyword)
        self._append(keyword, writer)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), keyword=st.sampled_from(KEYWORDS),
          writer=st.sampled_from(["own", "other"]))
    def update(self, data, keyword, writer):
        doc = data.draw(st.sampled_from(sorted(self.live)))
        old = self.live[doc]
        self.writers[writer].update(doc, old, keyword)
        self.live[doc] = keyword
        self._append(old, writer)
        self._append(keyword, writer)

    @rule()
    def restart(self):
        """A re-``setup()`` drops the memo, as a gateway restart does."""
        self.deployed.mitra.setup()
        self.memo_at.clear()
        self.queried.clear()

    @rule(keyword=st.sampled_from(KEYWORDS))
    def search(self, keyword):
        self._search(keyword)

    def _search(self, keyword: str) -> list[frozenset[bytes]]:
        ids, sent = self.deployed.sent(lambda: self.deployed.search(keyword))
        assert ids == {doc for doc, kw in self.live.items() if kw == keyword}
        appended = self.appended[keyword]
        held = self.memo_at.get(keyword)
        if held is None:
            assert [len(addresses) for addresses in sent] == [appended]
        else:
            fresh = appended - held
            assert [len(addresses) for addresses in sent] == (
                [fresh] if fresh else [])
        for addresses in sent:
            assert addresses.isdisjoint(self.queried)
            self.queried |= addresses
        self.memo_at[keyword] = appended
        return sent

    @precondition(lambda self: len(self.live) < len(DOCS))
    @rule(data=st.data(), keyword=st.sampled_from(KEYWORDS))
    def own_write_then_search(self, data, keyword):
        """With the memo current (or the keyword unwritten), a search
        right after this gateway's own write sends nothing."""
        current = self.memo_at.get(keyword, 0) == self.appended[keyword]
        self.insert(data, keyword, "own")
        sent = self._search(keyword)
        if current:
            assert sent == []

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
        deployment.mitra.setup()  # a restart: the first search is cold
        first, sent = deployment.sent(lambda: deployment.search("kw"))
        assert first == {"d1", "d2"} and [len(a) for a in sent] == [2]
        frames = deployment.transport.stats().messages_sent
        again, sent = deployment.sent(lambda: deployment.search("kw"))
        assert again == first and sent == []
        assert deployment.transport.stats().messages_sent == frames

    def test_k_writes_send_the_k_new_addresses(self, deployment):
        """``k`` entries of a second writer sharing the counter store
        and keys are the ones this gateway did not fold: a search sends
        exactly their addresses."""
        mitra, other = deployment.mitra, deployment.second_writer()
        for doc in ("d1", "d2", "d3"):
            mitra.insert(doc, "kw")
        mitra.setup()
        _, (old,) = deployment.sent(lambda: deployment.search("kw"))
        other.delete("d2", "kw")
        other.update("d3", "kw", "other")
        other.insert("d4", "kw")
        ids, (new,) = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1", "d4"}
        assert len(new) == 3 and new.isdisjoint(old)

    @pytest.mark.parametrize("write", ["insert", "index_many", "update",
                                       "delete"])
    def test_own_writes_send_nothing(self, deployment, write):
        """Every write path folds its acknowledged entries: the search
        right after it sends no Mitra query, on either keyword."""
        mitra = deployment.mitra
        mitra.index_many([("d1", "kw"), ("d2", "kw"), ("d3", "other")])
        expected = {"kw": {"d1", "d2"}, "other": {"d3"}}
        if write == "insert":
            mitra.insert("d4", "kw")
            expected["kw"].add("d4")
        elif write == "index_many":
            mitra.index_many([("d4", "kw"), ("d5", "other"), ("d6", "kw")])
            expected = {"kw": {"d1", "d2", "d4", "d6"},
                        "other": {"d3", "d5"}}
        elif write == "update":
            mitra.update("d3", "other", "kw")
            expected = {"kw": {"d1", "d2", "d3"}, "other": set()}
        else:
            mitra.delete("d1", "kw")
            expected["kw"].discard("d1")
        for keyword, oracle in expected.items():
            ids, sent = deployment.sent(lambda: deployment.search(keyword))
            assert ids == oracle and sent == []

    def test_batched_own_writes_fold_on_the_frame_ack(self, batched):
        collector = batched.runtime.batch_collector
        mitra = batched.mitra
        with collector.collect():
            mitra.insert("d1", "kw")
            mitra.insert("d2", "kw")
            assert len(mitra._memo) == 0  # queued, not yet acknowledged
        ids, sent = batched.sent(lambda: batched.search("kw"))
        assert ids == {"d1", "d2"} and sent == []


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
        # The search's fold replaced the memo it found ahead of the
        # counter, so an own write at the reused address continues it.
        mitra.insert("d5", "kw")
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1", "d5"} and sent == []
        mitra.setup()
        assert deployment.search("kw") == ids

    def test_resetup_and_key_rotation_start_cold(self, deployment):
        """The memo is key-scoped: a re-``setup()`` drops it, and the
        counters persist, so a later own write (``n > 1``) never folds
        onto nothing.  A rotated key starts a fresh counter, whose first
        entry folds."""
        mitra = deployment.mitra
        kernels = deployment.runtime.kernels
        mitra.insert("d1", "kw")
        assert kernels.token_cache_stats()["entries"] == 1
        mitra.setup()
        assert kernels.token_cache_stats()["entries"] == 0
        mitra.insert("d2", "kw")
        assert kernels.token_cache_stats()["entries"] == 0
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1", "d2"} and [len(a) for a in sent] == [2]

        deployment.runtime.keystore.rotate_root()
        mitra.setup()
        assert kernels.token_cache_stats()["entries"] == 0
        mitra.insert("d3", "kw")  # under the rotated key
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d3"} and sent == []
        mitra.setup()
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d3"} and [len(a) for a in sent] == [1]

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
        mitra.setup()
        raw = mitra.eq_query("kw")
        raw["masked"] = raw["masked"][:1]
        with pytest.raises(TacticError, match="lost a Mitra index"):
            mitra.resolve_eq(raw)
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1", "d2"} and [len(a) for a in sent] == [2]


class TestWriteThroughInvariants:
    @pytest.mark.parametrize("write", ["insert", "index_many", "delete"])
    def test_a_failed_write_frame_leaves_the_memo_behind(self, deployment,
                                                         write):
        """A dropped write frame reserved its counter but never reached
        the cloud: the memo stays behind, so the next search fetches the
        lost address and raises, never answering with the failed id."""
        mitra = deployment.mitra
        mitra.insert("d1", "kw")
        deployment.link.armed = True
        with pytest.raises(TransportFault):
            if write == "insert":
                mitra.insert("d2", "kw")
            elif write == "index_many":
                mitra.index_many([("d2", "kw"), ("d3", "kw")])
            else:
                mitra.delete("d1", "kw")
        deployment.link.armed = False
        (name,) = deployment.counter_names()
        held = mitra._memo.get(name)
        assert held is None or held == (1, frozenset({"d1"}))
        with pytest.raises(TacticError, match="lost a Mitra index"):
            deployment.search("kw")

    def test_a_failed_batched_frame_drops_its_acks(self, batched):
        collector = batched.runtime.batch_collector
        mitra = batched.mitra
        mitra.insert("d1", "kw")
        batched.link.armed = True
        with pytest.raises(TransportFault):
            with collector.collect():
                mitra.insert("d2", "kw")
                mitra.delete("d1", "kw")
        batched.link.armed = False
        with pytest.raises(TacticError, match="lost a Mitra index"):
            batched.search("kw")
        # A scope that raises drops its acks even when its frame lands.
        with pytest.raises(RuntimeError):
            with collector.collect():
                mitra.insert("d3", "other")
                raise RuntimeError("the operation failed after its write")
        ids, sent = batched.sent(lambda: batched.search("other"))
        assert ids == {"d3"} and [len(a) for a in sent] == [1]
        # So does a scope whose mid-scope flush failed, even when the
        # operation catches the failure and exits normally.
        with collector.collect():
            mitra.insert("d4", "third")
            batched.link.armed = True
            with pytest.raises(TransportFault):
                batched.runtime.docs("delete", doc_id="d4")
            batched.link.armed = False
        with pytest.raises(TacticError, match="lost a Mitra index"):
            batched.search("third")

    def test_one_atomic_update_per_keyword_per_frame(self, deployment):
        """The write-through costs one memo update per keyword a frame
        touches, not one per entry, and it books no token-cache hit or
        miss."""
        mitra = deployment.mitra
        kernels = deployment.runtime.kernels

        class Counting(LruCache):
            updates = 0

            def update(self, key, fn):
                Counting.updates += 1
                super().update(key, fn)

        mitra._memo = Counting(TOKEN_CACHE_CAPACITY)
        before = kernels.token_cache_stats()
        mitra.index_many([(f"d{i}", KEYWORDS[i % 3]) for i in range(30)])
        assert Counting.updates == 3
        mitra.insert("d30", "alpha")
        mitra.update("d0", "alpha", "beta")
        assert Counting.updates == 6
        after = kernels.token_cache_stats()
        assert (after["hits"], after["misses"]) == (before["hits"],
                                                     before["misses"])
        ids, sent = deployment.sent(lambda: deployment.search("alpha"))
        assert ids == {f"d{i}" for i in range(3, 30, 3)} | {"d30"}
        assert sent == []

    def test_the_memo_holds_at_most_the_token_cache_capacity(self):
        """Bounded at ``TOKEN_CACHE_CAPACITY`` keywords: the least
        recently used keyword's memo goes, its next own write (``n >
        1``) folds onto nothing, and its search is cold and exact."""
        deployment = Deployment(1)
        mitra = deployment.mitra
        keywords = [f"k{i}" for i in range(TOKEN_CACHE_CAPACITY + 8)]
        mitra.index_many([(f"d{i}", kw) for i, kw in enumerate(keywords)])
        assert len(mitra._memo) == TOKEN_CACHE_CAPACITY
        held = mitra._memo._entries
        evicted = [i for i, kw in enumerate(keywords)
                   if mitra._counter_key(mitra._keyword(kw)) not in held]
        assert len(evicted) == 8
        gone, kept = keywords[evicted[0]], next(
            i for i in range(len(keywords)) if i not in evicted)
        mitra.insert("extra", gone)
        ids, sent = deployment.sent(lambda: deployment.search(gone))
        assert ids == {f"d{evicted[0]}", "extra"}
        assert [len(a) for a in sent] == [2]
        ids, sent = deployment.sent(
            lambda: deployment.search(keywords[kept]))
        assert ids == {f"d{kept}"} and sent == []


class TestConcurrentSearches:
    def test_a_late_fold_is_exact_for_the_count_it_read(self, deployment):
        """A search that read the counter before a write and resolves
        after a newer one stored its fold answers for its own count,
        and the next search still reaches every entry."""
        mitra = deployment.mitra
        mitra.insert("d1", "kw")
        mitra.setup()  # cold, so the late search fetches entry 1
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
        # Compare-and-put: the late fold did not move the memo back.
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d1", "d2"} and sent == []
        mitra.delete("d1", "kw")
        ids, sent = deployment.sent(lambda: deployment.search("kw"))
        assert ids == {"d2"} and sent == []

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


class TestConcurrentWriters:
    def test_acks_out_of_counter_order_fold_only_a_gapless_prefix(
            self, batched):
        """Entry 2's frame is acknowledged before entry 1's: its fold
        would leave a gap, so it folds nothing, and entry 1's ack then
        folds entry 1 alone.  The next search fetches entry 2 only."""
        collector, mitra = batched.runtime.batch_collector, batched.mitra
        reserved, release = threading.Event(), threading.Event()

        def first_writer() -> None:
            with collector.collect():
                mitra.insert("d1", "kw")
                reserved.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=first_writer)
        thread.start()
        assert reserved.wait(timeout=30)
        with collector.collect():
            mitra.insert("d2", "kw")
        assert len(mitra._memo) == 0
        release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        (name,) = batched.counter_names()
        assert mitra._memo.get(name) == (1, frozenset({"d1"}))
        ids, sent = batched.sent(lambda: batched.search("kw"))
        assert ids == {"d1", "d2"} and [len(a) for a in sent] == [1]

    def test_two_writer_threads_never_memoise_an_unfolded_count(
            self, batched):
        """Two writers insert distinct documents on one keyword in
        batched frames while two threads search it.  With inserts only,
        the oracle at count ``c`` is the ``c`` documents of entries
        ``1..c``: every answer has exactly ``count`` ids and the answers
        nest in counter order, and so does the memo."""
        collector, mitra = batched.runtime.batch_collector, batched.mitra
        docs = {writer: [f"{writer}{i}" for i in range(16)]
                for writer in ("a", "b")}
        answers: list[tuple[int, frozenset[str]]] = []
        errors: list[BaseException] = []

        def write(writer: str) -> None:
            try:
                mine = docs[writer]
                for i in range(0, len(mine), 2):
                    with collector.collect():
                        mitra.insert(mine[i], "kw")
                        mitra.insert(mine[i + 1], "kw")
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        def read() -> None:
            try:
                for _ in range(20):
                    raw = mitra.eq_query("kw")
                    try:
                        ids = mitra.resolve_eq(raw)
                    except TacticError as exc:
                        assert "lost a Mitra index" in str(exc)
                    else:
                        answers.append((raw["count"], frozenset(ids)))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in docs]
        threads += [threading.Thread(target=read) for _ in range(2)]
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
        everything = frozenset(docs["a"] + docs["b"])
        (name,) = batched.counter_names()
        answers.append(mitra._memo.get(name))
        answers.append((len(everything),
                        frozenset(batched.search("kw"))))
        chain = sorted(answers, key=lambda answer: answer[0])
        for count, ids in chain:
            assert len(ids) == count and ids <= everything
        for (_, smaller), (_, larger) in zip(chain, chain[1:]):
            assert smaller <= larger
        assert chain[-1][1] == everything
        mitra.setup()
        assert batched.search("kw") == everything


class TestProductionWriteThrough:
    """The same through the entities API on
    ``PipelineConfig.production()``: each write operation is one batched
    frame, and its Mitra entries fold when that frame is acknowledged,
    so a find or an aggregate on ``subject`` (the Mitra field) right
    after this gateway's own write sends no Mitra query."""

    @pytest.fixture(params=[1, 4], ids=["zone", "sharded"])
    def deployed(self, request):
        registry = builtin_registry()
        cluster = CloudCluster(request.param, registry=registry)
        links = [(name, DropArmed(link)) for name, link in cluster.nodes()]
        blinder = DataBlinder("writethrough", links, registry=registry,
                              pipeline=PipelineConfig.production())
        blinder.register_schema(observation_schema())
        yield blinder, [link for _, link in links]
        cluster.close()

    @staticmethod
    def mitra_queries(blinder) -> int:
        cells = merged(blinder.runtime.transport.wire_cells().values())
        return sum(cell.slots for (service, method), cell in cells.items()
                   if service.endswith("/mitra") and method == "eq_query")

    def test_own_writes_then_find_and_aggregate_send_nothing(self,
                                                             deployed):
        blinder, _ = deployed
        observations = blinder.entities("observation")
        docs = {f"o{i}": {"_id": f"o{i}", "identifier": i,
                          "status": "final", "subject": f"p{i % 3}",
                          "value": float(i)} for i in range(12)}
        observations.insert_many([dict(doc) for doc in docs.values()])

        def check(subject: str) -> None:
            before = self.mitra_queries(blinder)
            found = observations.find(Eq("subject", subject))
            oracle = sorted(d["_id"] for d in docs.values()
                            if d["subject"] == subject)
            assert sorted(d["_id"] for d in found) == oracle
            values = [docs[doc_id]["value"] for doc_id in oracle]
            assert observations.average(
                "value", where=Eq("subject", subject)) == pytest.approx(
                    sum(values) / len(values))
            assert self.mitra_queries(blinder) == before

        check("p1")
        observations.insert({"_id": "o12", "identifier": 12,
                             "status": "final", "subject": "p1",
                             "value": 12.0})
        docs["o12"] = observations.get("o12")
        check("p1")
        observations.update("o4", {"subject": "p2"})
        docs["o4"]["subject"] = "p2"
        check("p1")
        check("p2")
        assert observations.delete("o7")
        del docs["o7"]
        check("p1")

    def test_a_dropped_write_frame_raises_as_before(self, deployed):
        blinder, links = deployed
        observations = blinder.entities("observation")
        observations.insert({"_id": "o1", "identifier": 1, "status": "final",
                             "subject": "p1", "value": 1.0})
        for link in links:
            link.armed = True
        with pytest.raises(TransportFault):
            observations.insert({"_id": "o2", "identifier": 2,
                                 "status": "final", "subject": "p1",
                                 "value": 2.0})
        for link in links:
            link.armed = False
        with pytest.raises(TacticError, match="lost a Mitra index"):
            observations.find(Eq("subject", "p1"))
