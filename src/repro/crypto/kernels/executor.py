"""CryptoExecutor: the shared dispatcher of the gateway crypto kernels.

One executor per :class:`~repro.gateway.service.GatewayRuntime`, handed
to every tactic through its context.  It provides the two services the
batch SPI builds on:

* **Dedup/LRU mapping** for deterministic per-value crypto (DET seals,
  blind-index tags, OPE/ORE codes): one computation per distinct value,
  results remembered across batches in a per-field LRU — in every
  configuration, since the memoised functions are pure per instance
  key and no ciphertext or token depends on whether a memo served it.
* **Kernel timings**: tactics :meth:`~CryptoExecutor.record` what their
  batch kernels cost; each lands as a ``Crypto:<name>`` row of the
  running operation's timing sink (:mod:`repro.obs.timing`), so a bulk
  insert's kernel breakdown shows in its schema's ``explain()``.  The
  executor keeps no timing state.

Every kernel runs inline on the calling thread, so key material never
leaves the gateway process.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Callable, Iterable

from repro.crypto.kernels.config import TOKEN_CACHE_CAPACITY, CryptoConfig
from repro.errors import CryptoError
from repro.obs.timing import record_timing


class LruCache:
    """A small thread-safe LRU used for deterministic token caches."""

    __slots__ = ("_capacity", "_entries", "_lock", "hits", "misses",
                 "__weakref__")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise CryptoError("cache capacity must be positive")
        self._capacity = capacity
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Any | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        self.update(key, lambda _: value)

    def update(self, key: Any, fn: Callable[[Any | None], Any]) -> None:
        """Store ``fn(value or None)`` under ``key`` in one locked step
        (``None`` stores nothing), counting neither a hit nor a miss."""
        with self._lock:
            value = fn(self._entries.get(key))
            if value is None:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class CryptoExecutor:
    """Kernel dispatcher bound to one runtime's :class:`CryptoConfig`."""

    def __init__(self, config: CryptoConfig | None = None):
        self.config = config or CryptoConfig()
        self._lock = threading.Lock()
        #: Held weakly: a tactic instance re-``setup()`` after a key
        #: rotation drops its old LRU, and with it the plaintext→token
        #: map under the retired key.
        self._token_caches: weakref.WeakSet[LruCache] = weakref.WeakSet()

    # -- deterministic-value mapping -------------------------------------------

    def cache(self) -> LruCache:
        """A fresh per-call-site LRU (a tactic instance takes one per
        ``setup()``)."""
        cache = LruCache(TOKEN_CACHE_CAPACITY)
        with self._lock:
            self._token_caches.add(cache)
        return cache

    def token_cache_stats(self) -> dict:
        """Aggregate hit/miss counters over the live handed-out caches."""
        with self._lock:
            caches = list(self._token_caches)
        return {
            "caches": len(caches),
            "entries": sum(len(cache) for cache in caches),
            "hits": sum(cache.hits for cache in caches),
            "misses": sum(cache.misses for cache in caches),
        }

    def dedup_map(self, values: Iterable[Any], fn: Callable[[Any], Any],
                  *, key: Callable[[Any], Any],
                  cache: LruCache | None = None,
                  batch: Callable[[list[Any]], list[Any]] | None = None
                  ) -> list[Any]:
        """Map a deterministic ``fn`` over ``values``: one computation
        per *distinct* key, optionally served from ``cache`` and computed
        through ``batch`` (a vectorised implementation such as one
        multi-element HSM round).
        """
        values = list(values)
        started = time.perf_counter()
        keys = [key(value) for value in values]
        outputs: dict[Any, Any] = {}
        missing: list[Any] = []
        for cache_key, value in zip(keys, values):
            if cache_key in outputs:
                continue
            cached = cache.get(cache_key) if cache is not None else None
            if cached is not None:
                outputs[cache_key] = cached
            else:
                outputs[cache_key] = _PENDING
                missing.append(value)
        if missing:
            computed = (batch(missing) if batch is not None
                        else [fn(value) for value in missing])
            for value, output in zip(missing, computed):
                cache_key = key(value)
                outputs[cache_key] = output
                if cache is not None:
                    cache.put(cache_key, output)
        self.record("dedup_map", time.perf_counter() - started)
        return [outputs[cache_key] for cache_key in keys]

    # -- timing ----------------------------------------------------------------

    @staticmethod
    def record(name: str, seconds: float) -> None:
        """Book one kernel timing as the running operation's
        ``Crypto:<name>`` row (dropped outside an operation)."""
        record_timing(f"Crypto:{name}", seconds)


_PENDING = object()

_INLINE: CryptoExecutor | None = None
_INLINE_LOCK = threading.Lock()


def inline_executor() -> CryptoExecutor:
    """The default-config executor used by bare tactic harnesses."""
    global _INLINE
    if _INLINE is None:
        with _INLINE_LOCK:
            if _INLINE is None:
                _INLINE = CryptoExecutor(CryptoConfig())
    return _INLINE
