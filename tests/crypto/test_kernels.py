"""Unit tests for the gateway crypto kernel layer.

Covers the kernel building blocks in isolation: the executor (LRU,
dedup mapping, kernel timings).
"""

from __future__ import annotations

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.schema import FieldAnnotation, Schema
from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.kernels.executor import CryptoExecutor, LruCache
from repro.net.transport import InProcTransport


class TestLruCache:
    def test_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1   # refresh "a"
        cache.put("c", 3)            # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_counts_hits_and_misses(self):
        cache = LruCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        assert cache.hits == 1
        assert cache.misses == 1


class TestCryptoConfig:
    def test_defaults_are_inactive(self):
        assert not CryptoConfig().active

    def test_precompute_activates(self):
        assert CryptoConfig(precompute=True).active


class TestCryptoExecutor:
    def test_cache_only_when_active(self):
        assert CryptoExecutor(CryptoConfig()).cache() is None
        active = CryptoExecutor(CryptoConfig(precompute=True))
        assert active.cache() is not None

    def test_dedup_map_inactive_calls_per_element(self):
        executor = CryptoExecutor(CryptoConfig())
        calls = []
        out = executor.dedup_map([1, 1, 2], lambda v: calls.append(v) or -v,
                                 key=lambda v: v)
        assert out == [-1, -1, -2]
        assert calls == [1, 1, 2]  # the exact seed loop: no dedup

    def test_dedup_map_active_dedups_and_caches(self):
        executor = CryptoExecutor(CryptoConfig(precompute=True))
        cache = executor.cache()
        calls = []
        out = executor.dedup_map([3, 1, 3, 1, 3],
                                 lambda v: calls.append(v) or -v,
                                 key=lambda v: v, cache=cache)
        assert out == [-3, -1, -3, -1, -3]
        assert calls == [3, 1]
        calls.clear()
        again = executor.dedup_map([1, 3], lambda v: calls.append(v) or -v,
                                   key=lambda v: v, cache=cache)
        assert again == [-1, -3]
        assert calls == []  # served entirely from the LRU

    def test_dedup_map_active_routes_through_batch(self):
        executor = CryptoExecutor(CryptoConfig(precompute=True))
        batches = []

        def batch(missing):
            batches.append(list(missing))
            return [-v for v in missing]

        out = executor.dedup_map([5, 6, 5], None, key=lambda v: v,
                                 batch=batch)
        assert out == [-5, -6, -5]
        assert batches == [[5, 6]]

    def test_timings_drain(self):
        executor = CryptoExecutor(CryptoConfig(precompute=True))
        executor.record("paillier_encrypt", 0.25)
        assert executor.drain_timings() == [("paillier_encrypt", 0.25)]
        assert executor.drain_timings() == []

    def test_inactive_executor_keeps_no_timings(self):
        """The one bulk-insert loop drains the sink for every
        configuration, so an inactive executor books kernel timings like
        an active one and keeps none past the insert."""
        blinder = DataBlinder("kernels", InProcTransport(CloudZone().host))
        blinder.register_schema(Schema.define(
            "rec", value=("float", FieldAnnotation.parse("C4", "I", "sum")),
        ))
        assert not blinder.runtime.kernels.config.active
        blinder.entities("rec").insert_many([{"value": 1.5}, {"value": 2.5}])
        timings = blinder.planner_stats("rec")["node_timings"]
        assert timings["Crypto:paillier_encrypt"]["calls"] == 1
        assert blinder.runtime.kernels.drain_timings() == []
