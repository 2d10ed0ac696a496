"""Configuration of the gateway crypto kernel layer.

The kernel layer is the CPU-side twin of the RPC batching pipeline: it
turns per-value crypto calls into batch operations that run inline on
the calling thread.

The plan engine's bulk insert drives the tactic batch SPI for every
configuration, and every configuration computes a deterministic value
(DET seal, blind-index tag, OPE/ORE code, OPE split node) once per
distinct input and remembers it in a per-instance LRU.
:class:`CryptoConfig` selects one thing: how Paillier masks are made.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Per-instance LRU size for deterministic token/ciphertext caches (DET
#: seals, blind-index tags, OPE/ORE codes) and the OPE node memo.
TOKEN_CACHE_CAPACITY = 4096


@dataclass(frozen=True)
class CryptoConfig:
    """The gateway crypto kernels' one switch."""

    #: Paillier masks as ``β^k`` from one cold ``β = r₀^n`` per key
    #: (:class:`~repro.crypto.paillier.FixedBaseObfuscator`); False makes
    #: a cold ``r^n`` per ciphertext.  Secret-exponent modexp runs
    #: natively whatever this says.
    precompute: bool = False
