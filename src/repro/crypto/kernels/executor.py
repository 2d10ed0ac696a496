"""CryptoExecutor: the shared dispatcher of the gateway crypto kernels.

One executor per :class:`~repro.gateway.service.GatewayRuntime`, handed
to every tactic through its context.  It provides the two services the
batch SPI builds on:

* **Dedup/LRU mapping** for deterministic per-value crypto (DET seals,
  blind-index tags, OPE/ORE codes): one computation per distinct value,
  results remembered across batches in a per-field LRU.
* **Kernel timings**: tactics :meth:`~CryptoExecutor.record` what their
  batch kernels cost, and the plan engine's bulk insert drains the sink
  into the ``Crypto:*`` rows of ``explain()`` — for every
  configuration, so the sink never outgrows one insert.

Every kernel runs inline on the calling thread, so key material never
leaves the gateway process.  With an inactive config every helper
degrades to the exact sequential loop of the seed, computing
``fn(value)`` per element in order.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable

from repro.crypto.kernels.config import TOKEN_CACHE_CAPACITY, CryptoConfig
from repro.errors import CryptoError


class LruCache:
    """A small thread-safe LRU used for deterministic token caches."""

    __slots__ = ("_capacity", "_entries", "_lock", "hits", "misses")

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
        with self._lock:
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
        self._timings: list[tuple[str, float]] = []
        self._lock = threading.Lock()
        #: Cache-tier token level: when enabled, :meth:`cache` and
        #: :meth:`dedup_map` memoise deterministic trapdoors even while
        #: the kernels themselves are inactive (results are identical —
        #: the memoised functions are pure per key epoch).
        self.token_caching = False
        self._token_caches: list[LruCache] = []

    # -- deterministic-value mapping -------------------------------------------

    def enable_token_caching(self) -> None:
        """Turn the cache tier's token level on (idempotent).

        Must run before tactic instances are built — they capture their
        token caches at ``setup()`` time.
        """
        self.token_caching = True

    def cache(self) -> LruCache | None:
        """A per-call-site LRU, or None while the kernels are inactive
        and the token-cache level is off."""
        if not self.config.active and not self.token_caching:
            return None
        cache = LruCache(TOKEN_CACHE_CAPACITY)
        with self._lock:
            self._token_caches.append(cache)
        return cache

    def token_cache_stats(self) -> dict:
        """Aggregate hit/miss counters over every handed-out cache."""
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
        """Map a deterministic ``fn`` over ``values``.

        Inactive config: the exact seed loop, one call per element.
        Active: one computation per *distinct* key, optionally served
        from ``cache`` and computed through ``batch`` (a vectorised
        implementation such as one multi-element HSM round).
        """
        values = list(values)
        if not self.config.active and not self.token_caching:
            return [fn(value) for value in values]
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

    def record(self, name: str, seconds: float) -> None:
        """Book one kernel timing; the bulk-insert loop drains the sink."""
        with self._lock:
            self._timings.append((name, seconds))

    def drain_timings(self) -> list[tuple[str, float]]:
        """Kernel timings accumulated since the last drain."""
        with self._lock:
            timings, self._timings = self._timings, []
        return timings


_PENDING = object()

_INLINE: CryptoExecutor | None = None
_INLINE_LOCK = threading.Lock()


def inline_executor() -> CryptoExecutor:
    """The do-nothing executor used by bare tactic harnesses."""
    global _INLINE
    if _INLINE is None:
        with _INLINE_LOCK:
            if _INLINE is None:
                _INLINE = CryptoExecutor(CryptoConfig())
    return _INLINE
