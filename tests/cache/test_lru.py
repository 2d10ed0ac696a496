"""Units for the TTL+size LRU backing the result/document cache levels."""

from __future__ import annotations

from repro.cache import GatewayCacheTier, TtlLruCache
from repro.cache.config import PLAINTEXT_FLOOR
from repro.core.schema import FieldAnnotation, Schema


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCapacity:
    def test_least_recently_used_entry_is_evicted(self):
        cache = TtlLruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.lookup("a")[2]  # refresh a: b is now the LRU
        cache.put("c", 3)
        assert not cache.lookup("b")[2]
        assert cache.lookup("a")[0] == 1
        assert cache.lookup("c")[0] == 3
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_never_stores(self):
        cache = TtlLruCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert not cache.lookup("a")[2]

    def test_replacing_a_key_keeps_one_entry(self):
        cache = TtlLruCache(capacity=4)
        cache.put("a", 1, size=10)
        cache.put("a", 2, size=20)
        assert len(cache) == 1
        assert cache.bytes_used == 20
        assert cache.lookup("a")[0] == 2


class TestTtl:
    def test_expired_entries_miss_and_count_as_expirations(self):
        clock = FakeClock()
        cache = TtlLruCache(capacity=8, ttl_s=30.0, clock=clock)
        cache.put("a", 1)
        clock.advance(29.0)
        assert cache.lookup("a")[2]
        clock.advance(2.0)
        value, _, found = cache.lookup("a")
        assert not found and value is None
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert stats["entries"] == 0

    def test_zero_ttl_never_expires(self):
        clock = FakeClock()
        cache = TtlLruCache(capacity=8, ttl_s=0.0, clock=clock)
        cache.put("a", 1)
        clock.advance(10_000.0)
        assert cache.lookup("a")[2]


class TestByteBudget:
    def test_size_accounting_evicts_down_to_budget(self):
        cache = TtlLruCache(capacity=100, max_bytes=100)
        cache.put("a", "x", size=60)
        cache.put("b", "y", size=60)  # 120 bytes: a must go
        assert not cache.lookup("a")[2]
        assert cache.lookup("b")[2]
        assert cache.bytes_used == 60

    def test_single_oversized_entry_is_kept(self):
        # The budget never evicts the only entry: a document larger than
        # max_bytes still caches (capacity bounds the damage).
        cache = TtlLruCache(capacity=100, max_bytes=50)
        cache.put("big", "x", size=400)
        assert cache.lookup("big")[2]


class TestInvalidation:
    def test_invalidate_where_drops_matching_keys(self):
        cache = TtlLruCache(capacity=8)
        cache.put(("obs", "p1", "a"), 1)
        cache.put(("obs", "p1", "b"), 2)
        cache.put(("other", "p1", "a"), 3)
        dropped = cache.invalidate_where(lambda key: key[0] == "obs")
        assert dropped == 2
        assert not cache.lookup(("obs", "p1", "a"))[2]
        assert cache.lookup(("other", "p1", "a"))[0] == 3
        assert cache.stats()["invalidations"] == 2

    def test_tokens_round_trip_through_lookup(self):
        cache = TtlLruCache(capacity=4)
        cache.put("a", 1, token=("epoch", 3))
        value, token, found = cache.lookup("a")
        assert (value, token, found) == (1, ("epoch", 3), True)


class TestConfig:
    def test_plaintext_floor_never_admits_c1(self):
        """A C1 field keeps its schema out of the plaintext levels; a
        schema whose strictest field is C2 is admitted."""
        assert PLAINTEXT_FLOOR == 2
        tier = GatewayCacheTier(runtime=None)
        for name in ("C1", "C2"):
            tier.register_schema(Schema.define(
                name, field=("string", FieldAnnotation.parse(name, "I")),
                note="string",
            ))
        assert not tier.admits_plaintext("C1")
        assert tier.admits_plaintext("C2")
