"""Gateway crypto kernels: batched and deduplicated crypto.

Public surface:

* :class:`~repro.crypto.kernels.config.CryptoConfig` — the
  ``PipelineConfig.crypto`` knob set (defaults keep everything off).
* :class:`~repro.crypto.kernels.executor.CryptoExecutor` — the shared
  dispatcher (dedup/LRU maps, kernel timings).

Every kernel runs inline in the gateway process, so no key material
ever leaves it.  Secret-exponent modexp is not a kernel: every scheme
calls :func:`~repro.crypto.primitives.bignum.powmod` (OpenSSL's
constant-time Montgomery exponentiation) under every configuration.
"""

from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.kernels.executor import (
    CryptoExecutor,
    LruCache,
    inline_executor,
)

__all__ = [
    "CryptoConfig",
    "CryptoExecutor",
    "LruCache",
    "inline_executor",
]
