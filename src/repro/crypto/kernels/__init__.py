"""Gateway crypto kernels: batched, deduplicated, precomputed crypto.

Public surface:

* :class:`~repro.crypto.kernels.config.CryptoConfig` — the
  ``PipelineConfig.crypto`` knob set (defaults keep everything off).
* :class:`~repro.crypto.kernels.executor.CryptoExecutor` — the shared
  dispatcher (dedup/LRU maps, kernel timings).
* :class:`~repro.crypto.kernels.modexp.FixedBaseTable` — windowed
  fixed-base modexp precomputation.

Every kernel runs inline in the gateway process, so no key material
ever leaves it.
"""

from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.kernels.executor import (
    CryptoExecutor,
    LruCache,
    inline_executor,
)
from repro.crypto.kernels.modexp import FixedBaseTable

__all__ = [
    "CryptoConfig",
    "CryptoExecutor",
    "FixedBaseTable",
    "LruCache",
    "inline_executor",
]
