"""Diffie–Hellman OPRF (2HashDH style) over a safe-prime group.

The paper's related work cites Ionic's encrypted search "with an advanced
query construction mechanism based on EC-OPRF".  This module provides the
same functionality over our safe-prime group instead of an elliptic
curve: a server holding key ``k`` evaluates ``F_k(x) = H2(x, H1(x)^k)``
for a client, learning nothing about ``x`` (the client sends only a
blinded group element) while the client learns nothing about ``k``.

Protocol (client c, server s, group of prime order q inside Z_p*):

1. c: ``h = HashToGroup(x)``; pick random ``r``; send ``a = h^r``.
2. s: return ``b = a^k``.
3. c: ``y = b^(r^-1 mod q) = h^k``; output ``H2(x, y)``.

Used by the blind-index tactic: equality tokens become OPRF outputs whose
key lives inside the (simulated) HSM, so even a fully compromised gateway
cannot compute tokens offline — every evaluation is a mediated, auditable
HSM call.

Every exponentiation by the key or the blinding coins runs on OpenSSL's
constant-time :func:`~repro.crypto.primitives.bignum.powmod`, and both
the server step and the client's unblinding refuse any element outside
the order-q subgroup: an order-2 element such as ``p − 1`` raised to
the key would otherwise reveal the key's parity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.primitives.bignum import powmod
from repro.crypto.primitives.hmac_prf import hash_bytes, prf
from repro.crypto.primitives.numbers import (
    generate_safe_prime,
    invmod,
)
from repro.crypto.primitives.random import RandomSource, default_random
from repro.errors import CryptoError

DEFAULT_GROUP_BITS = 512


@dataclass(frozen=True)
class OprfGroup:
    """A safe-prime group: elements are quadratic residues mod p."""

    p: int

    @property
    def q(self) -> int:
        return (self.p - 1) // 2

    def hash_to_group(self, data: bytes) -> int:
        """Map bytes to a residue of unknown discrete log."""
        counter = 0
        while True:
            digest = prf(b"oprf-h2g", data, counter.to_bytes(4, "big"))
            candidate = int.from_bytes(digest * ((self.p.bit_length() // 256)
                                                 + 1), "big") % self.p
            element = pow(candidate, 2, self.p)  # force into QR subgroup
            if element not in (0, 1):
                return element
            counter += 1

    def check_element(self, element: int, role: str) -> None:
        """Raise unless ``element`` lies in the order-q subgroup."""
        if not 1 < element < self.p or powmod(element, self.q, self.p) != 1:
            raise CryptoError(f"{role} element outside the group")


def generate_group(bits: int = DEFAULT_GROUP_BITS,
                   randbelow=None) -> OprfGroup:
    return OprfGroup(generate_safe_prime(bits, randbelow))


def generate_key(group: OprfGroup,
                 rng: RandomSource | None = None) -> int:
    rng = rng or default_random()
    return rng.randbelow(group.q - 2) + 2


def evaluate_blinded(group: OprfGroup, key: int, blinded: int) -> int:
    """Server step: raise the blinded element to the key."""
    group.check_element(blinded, "blinded")
    return powmod(blinded, key, group.p)


class OprfClient:
    """Client side: blinding, unblinding and output derivation."""

    def __init__(self, group: OprfGroup,
                 rng: RandomSource | None = None):
        self.group = group
        self._rng = rng or default_random()

    def blind(self, data: bytes) -> tuple[int, int]:
        """Return ``(state, blinded_element)``; keep ``state`` private."""
        r = self._rng.randbelow(self.group.q - 2) + 2
        element = self.group.hash_to_group(data)
        return r, powmod(element, r, self.group.p)

    def finalize(self, data: bytes, state: int, evaluated: int) -> bytes:
        """Unblind the server response and derive the PRF output."""
        self.group.check_element(evaluated, "evaluated")
        r_inverse = invmod(state, self.group.q)
        y = powmod(evaluated, r_inverse, self.group.p)
        length = (self.group.p.bit_length() + 7) // 8
        return hash_bytes(b"oprf-out", data, y.to_bytes(length, "big"))


def unblinded_evaluate(group: OprfGroup, key: int, data: bytes) -> bytes:
    """Direct evaluation with the key (reference for tests/audits)."""
    element = group.hash_to_group(data)
    y = powmod(element, key, group.p)
    length = (group.p.bit_length() + 7) // 8
    return hash_bytes(b"oprf-out", data, y.to_bytes(length, "big"))
