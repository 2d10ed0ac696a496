"""Configuration of the gateway crypto kernel layer.

The kernel layer is the CPU-side twin of the RPC batching pipeline: it
turns per-value crypto calls into batch operations that run inline on
the calling thread — one computation per distinct deterministic value,
one cold Paillier mask per key instead of one per ciphertext.

The plan engine's bulk insert drives the tactic batch SPI for every
configuration; :class:`CryptoConfig` only selects what a batch call
does inside.  With the all-defaults config ``active`` is False: each
batch call computes ``fn(value)`` per element in order (no dedup, no
β^k masks, no memo) and ciphertexts are byte-identical to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Per-field LRU size for deterministic token/ciphertext caches (DET
#: seals, blind-index tags, OPE/ORE codes) and the OPE node memo.
TOKEN_CACHE_CAPACITY = 4096


@dataclass(frozen=True)
class CryptoConfig:
    """The gateway crypto kernels' one switch."""

    #: Paillier masks as ``β^k`` from one cold ``β = r₀^n`` per key
    #: (:class:`~repro.crypto.paillier.FixedBaseObfuscator`), the OPE
    #: split-node memo and the per-field token LRUs.  Secret-exponent
    #: modexp runs natively whatever this says.
    precompute: bool = False

    @property
    def active(self) -> bool:
        """Whether any kernel behaviour differs from the seed loops."""
        return self.precompute
