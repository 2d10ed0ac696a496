"""Fixed-base windowed modular exponentiation.

Both expensive gateway exponentiations are *fixed-base*: Paillier masks
are powers of one ``β = r₀^n mod n²`` and ElGamal ciphertext components
are powers of the public ``g`` and ``h``.  Precomputing the table

    table[i][d] = base^(d · 2^(w·i)) mod m      d ∈ [0, 2^w)

turns every later exponentiation into at most ``ceil(bits/w)`` modular
multiplications — one table row per non-zero exponent digit — instead of
the ~1.5·bits square-and-multiply operations of a cold ``pow``.
"""

from __future__ import annotations

from repro.errors import CryptoError

#: Window width of the gateway's fixed-base tables.  6 bits ≈ 171
#: modmuls per 1024-bit exponentiation (vs ~1200 for the built-in
#: sliding-window pow) at ~2.8 MB of table per 2048-bit modulus;
#: measured ~6x on Paillier mask generation.
WINDOW_BITS = 6


class FixedBaseTable:
    """Windowed power table for one (base, modulus) pair.

    >>> table = FixedBaseTable(3, 1000003, exponent_bits=20)
    >>> table.pow(123456) == pow(3, 123456, 1000003)
    True
    """

    __slots__ = ("modulus", "window_bits", "_rows")

    def __init__(self, base: int, modulus: int, exponent_bits: int,
                 window_bits: int = WINDOW_BITS):
        if modulus <= 1:
            raise CryptoError("fixed-base modulus must exceed 1")
        if not 1 <= window_bits <= 8:
            raise CryptoError("window width out of supported range")
        if exponent_bits < 1:
            raise CryptoError("exponent size must be positive")
        self.modulus = modulus
        self.window_bits = window_bits
        radix = 1 << window_bits
        rows: list[list[int]] = []
        current = base % modulus
        for _ in range(-(-exponent_bits // window_bits)):
            row = [1, current]
            for _ in range(radix - 2):
                row.append(row[-1] * current % modulus)
            rows.append(row)
            for _ in range(window_bits):
                current = current * current % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` via the table."""
        if exponent < 0:
            raise CryptoError("fixed-base exponent must be non-negative")
        result = 1
        mask = (1 << self.window_bits) - 1
        row_index = 0
        rows = self._rows
        modulus = self.modulus
        while exponent:
            if row_index >= len(rows):
                raise CryptoError("exponent exceeds precomputed table")
            digit = exponent & mask
            if digit:
                result = result * rows[row_index][digit] % modulus
            exponent >>= self.window_bits
            row_index += 1
        return result

    @property
    def entries(self) -> int:
        return sum(len(row) for row in self._rows)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size: entries × modulus width."""
        width = (self.modulus.bit_length() + 7) // 8
        return self.entries * width
