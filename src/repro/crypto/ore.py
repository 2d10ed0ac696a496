"""Chenette–Lewi–Weis–Wu (CLWW) practical order-revealing encryption.

Each plaintext bit is blinded with a PRF over its prefix, modulo 3.  Two
ciphertexts are compared by locating the first position where they differ:
the +1 (mod 3) relation at that position reveals which plaintext is
larger.  Unlike OPE the ciphertext is not itself a number — order is
revealed only through the public :func:`compare` routine — and the scheme
leaks the index of the most significant differing bit in addition to
order (class 5 / *order* leakage in the paper's taxonomy, like OPE).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.primitives.hmac_prf import prf
from repro.errors import CryptoError

DEFAULT_BITS = 64


@dataclass(frozen=True)
class OreCiphertext:
    bits: int
    digits: tuple[int, ...]  # one ternary digit per plaintext bit

    def to_bytes(self) -> bytes:
        """Pack the ternary digits two bits each, headed by the bit count."""
        packed = 0
        for digit in self.digits:
            packed = (packed << 2) | digit
        length = (2 * self.bits + 7) // 8
        return self.bits.to_bytes(2, "big") + packed.to_bytes(length, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "OreCiphertext":
        if len(data) < 2:
            raise CryptoError("ORE ciphertext too short")
        bits = int.from_bytes(data[:2], "big")
        length = (2 * bits + 7) // 8
        if len(data) != 2 + length:
            raise CryptoError("ORE ciphertext has wrong length")
        packed = int.from_bytes(data[2:], "big")
        digits = tuple(
            (packed >> (2 * (bits - 1 - i))) & 0b11 for i in range(bits)
        )
        if any(d > 2 for d in digits):
            raise CryptoError("ORE ciphertext contains an invalid digit")
        return cls(bits, digits)

    def __lt__(self, other: "OreCiphertext") -> bool:
        """Plaintext order through the public :func:`compare`, so a
        sorted list of ``(ciphertext, doc_id)`` pairs orders like one of
        integers (equal plaintexts have equal digits, hence ``==``)."""
        return compare(self, other) < 0


class Ore:
    """Keyed CLWW ORE over ``bits``-bit unsigned integers."""

    def __init__(self, key: bytes, bits: int = DEFAULT_BITS):
        if not key:
            raise CryptoError("ORE key must be non-empty")
        if bits < 1 or bits > 512:
            raise CryptoError("unsupported ORE width")
        self._key = key
        self.bits = bits

    def encrypt(self, plaintext: int) -> OreCiphertext:
        if not 0 <= plaintext < (1 << self.bits):
            raise CryptoError("plaintext outside ORE domain")
        digits = []
        for i in range(self.bits):
            prefix = plaintext >> (self.bits - i)  # the i most significant bits
            bit = (plaintext >> (self.bits - 1 - i)) & 1
            mask = prf(
                self._key, b"clww", i.to_bytes(4, "big"),
                prefix.to_bytes((i + 8) // 8 or 1, "big"),
            )[0] % 3
            digits.append((mask + bit) % 3)
        return OreCiphertext(self.bits, tuple(digits))


def compare(a: OreCiphertext, b: OreCiphertext) -> int:
    """Public comparison: -1 if pt(a) < pt(b), 0 if equal, 1 if greater.

    Runs without any key — this is what lets the *cloud* side evaluate
    range predicates over ORE ciphertexts.
    """
    if a.bits != b.bits:
        raise CryptoError("cannot compare ORE ciphertexts of unequal width")
    for da, db in zip(a.digits, b.digits):
        if da == db:
            continue
        return -1 if (da + 1) % 3 == db else 1
    return 0
