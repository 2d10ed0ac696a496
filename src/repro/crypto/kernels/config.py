"""Configuration of the gateway crypto kernel layer.

The kernel layer is the CPU-side twin of the RPC batching pipeline: it
turns per-value crypto calls into batch operations that run inline on
the calling thread — one computation per distinct deterministic value,
fixed-base tables for the big-int exponentiations.

The all-defaults :class:`CryptoConfig` keeps every kernel off:
``active`` is False, the tactic batch SPI falls back to its sequential
per-value loops, and ciphertexts are byte-identical to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CryptoConfig:
    """Knobs of the gateway crypto kernels."""

    #: Fixed-base windowed modexp tables (Paillier ``r^n`` masks, the
    #: ElGamal ``g``/``h`` bases) plus the OPE split-node memo.
    precompute: bool = False
    #: Per-field LRU size for deterministic token/ciphertext caches
    #: (DET seals, blind-index tags, OPE/ORE codes) and the OPE node
    #: memo.  Only consulted while the kernels are active.
    cache_size: int = 4096

    @property
    def active(self) -> bool:
        """Whether any kernel behaviour differs from the seed loops."""
        return self.precompute
