"""Unit tests for the gateway crypto kernel layer.

Covers the kernel building blocks in isolation: the executor (LRU,
dedup mapping, kernel timings), and what every configuration — the
all-defaults one included — memoises.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.crypto import oprf
from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.kernels.executor import CryptoExecutor, LruCache
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport
from repro.obs.timing import timing_sink
from repro.tactics import det, register_builtin_tactics


def loaded(blinder: DataBlinder, tactic: str):
    [instance] = [blinder.runtime.tactic(scope, name)
                  for scope, name in blinder.runtime.loaded_tactics()
                  if name == tactic]
    return instance


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


def paillier_blinder(crypto: CryptoConfig | None) -> DataBlinder:
    blinder = DataBlinder("masks", InProcTransport(CloudZone().host),
                          pipeline=PipelineConfig(crypto=crypto))
    blinder.register_schema(Schema.define(
        "rec", value=("float", FieldAnnotation.parse("C4", "I", "sum")),
    ))
    blinder.entities("rec").insert({"value": 1.0})
    return blinder


class TestCryptoConfig:
    """``precompute`` selects one thing: how Paillier masks are made."""

    def test_defaults_are_inactive(self):
        assert not CryptoConfig().precompute
        # A cold r^n per ciphertext: no fixed-base obfuscator.
        assert loaded(paillier_blinder(None), "paillier")._fixed_base is None

    def test_precompute_activates(self):
        blinder = paillier_blinder(CryptoConfig(precompute=True))
        assert loaded(blinder, "paillier")._fixed_base is not None


class TestCryptoExecutor:
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

    def test_timings_reach_the_operation_sink(self):
        executor = CryptoExecutor(CryptoConfig(precompute=True))
        rows = []
        with timing_sink(lambda kind, seconds: rows.append((kind, seconds))):
            executor.record("paillier_encrypt", 0.25)
        assert rows == [("Crypto:paillier_encrypt", 0.25)]
        executor.record("paillier_encrypt", 0.25)  # no operation: dropped
        assert rows == [("Crypto:paillier_encrypt", 0.25)]

    def test_inactive_executor_keeps_no_timings(self):
        """Every configuration books kernel timings into the running
        operation's sink, so an inactive executor records them like an
        active one and keeps none itself."""
        blinder = DataBlinder("kernels", InProcTransport(CloudZone().host))
        blinder.register_schema(Schema.define(
            "rec", value=("float", FieldAnnotation.parse("C4", "I", "sum")),
        ))
        blinder.entities("rec").insert_many([{"value": 1.5}, {"value": 2.5}])
        timings = blinder.planner_stats("rec")["node_timings"]
        assert timings["Crypto:paillier_encrypt"]["calls"] == 1
        # Booked outside an operation: dropped, never carried into the
        # next insert's rows.
        blinder.runtime.kernels.record("paillier_encrypt", 9.0)
        blinder.entities("rec").insert_many([{"value": 3.5}])
        timings = blinder.planner_stats("rec")["node_timings"]
        assert timings["Crypto:paillier_encrypt"]["calls"] == 2
        assert timings["Crypto:paillier_encrypt"]["seconds"] < 9.0


class TestEveryConfigMemoises:
    def test_default_pipeline_computes_once_per_distinct_value(
            self, monkeypatch):
        """The all-defaults pipeline dedups a bulk insert's DET seals and
        blind-index HSM evaluations: 12 documents over 3 distinct values
        cost 3 computations per tactic."""
        seals, evaluations = [], []
        seal_value, evaluate = det.seal_value, oprf.evaluate_blinded
        monkeypatch.setattr(det, "seal_value", lambda cipher, value: (
            seals.append(value) or seal_value(cipher, value)))
        monkeypatch.setattr(oprf, "evaluate_blinded", lambda *args: (
            evaluations.append(args[-1]) or evaluate(*args)))
        # Without DET in the registry, blind-index is the C4 equality
        # tactic.
        full = TacticRegistry()
        register_builtin_tactics(full)
        no_det = TacticRegistry()
        for registration in full.all():
            if registration.name != "det":
                no_det.register(registration.descriptor,
                                registration.gateway_cls,
                                registration.cloud_cls)
        for registry, tactic in ((full, "det"), (no_det, "blind-index")):
            blinder = DataBlinder("dedup", InProcTransport(
                CloudZone(registry).host), registry=registry)
            blinder.register_schema(Schema.define(
                "rec", code=("string", FieldAnnotation.parse("C4", "I,EQ")),
            ))
            assert blinder.pipeline == PipelineConfig()
            blinder.entities("rec").insert_many(
                [{"code": f"v{i % 3}"} for i in range(12)]
            )
            assert [name for _, name in
                    blinder.runtime.loaded_tactics()] == [tactic]
        assert sorted(seals) == ["v0", "v1", "v2"]
        assert len(evaluations) == 3

    def test_replaced_token_cache_is_released(self):
        """A re-``setup()`` after a root rotation (the key-rotation
        drill) drops the instance's old LRU — its plaintext→token map
        under the retired key — and the stats count live caches only."""
        blinder = DataBlinder(
            "rotate", InProcTransport(CloudZone().host),
            pipeline=PipelineConfig(crypto=CryptoConfig(precompute=True)),
        )
        blinder.register_schema(Schema.define(
            "rec", label=("string", FieldAnnotation.parse("C4", "I,EQ")),
        ))
        blinder.entities("rec").insert_many(
            [{"label": f"v{i}"} for i in range(50)]
        )
        kernels = blinder.runtime.kernels
        assert kernels.token_cache_stats()["entries"] == 50
        caches = kernels.token_cache_stats()["caches"]
        instance = loaded(blinder, "det")
        for _ in range(5):
            blinder.keystore.rotate_root()
            instance.setup()
        stats = kernels.token_cache_stats()
        assert stats["caches"] == caches
        assert stats["entries"] == 0

    def test_concurrent_replacements_keep_the_live_count(self):
        """Four threads keep replacing their LRU while two read the
        stats: no read fails, and the count ends at the live caches."""
        executor = CryptoExecutor()
        errors, kept = [], []
        stop = time.monotonic() + 1.0

        def churn(index: int) -> None:
            cache = None
            while time.monotonic() < stop:
                cache = executor.cache()  # drops the previous one
                cache.put(index, index)
            kept.append(cache)

        def read() -> None:
            while time.monotonic() < stop:
                try:
                    executor.token_cache_stats()
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

        threads = ([threading.Thread(target=churn, args=(i,))
                    for i in range(4)]
                   + [threading.Thread(target=read) for _ in range(2)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = executor.token_cache_stats()
        assert (stats["caches"], stats["entries"]) == (4, 4)
