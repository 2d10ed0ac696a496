"""Number-theoretic building blocks for the public-key schemes.

Implements modular arithmetic helpers, Miller–Rabin primality testing and
prime generation on top of Python big integers; each Miller–Rabin
round's ``a^d mod n`` runs on
:func:`~repro.crypto.primitives.bignum.powmod`.  These back the RSA
(:mod:`repro.crypto.rsa`), Paillier (:mod:`repro.crypto.paillier`) and
ElGamal (:mod:`repro.crypto.elgamal`) implementations.
"""

from __future__ import annotations

import math
import secrets
from typing import Callable

from repro.crypto.primitives.bignum import powmod
from repro.errors import CryptoError

# Small primes used to cheaply reject composite candidates before the more
# expensive Miller-Rabin rounds run.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349,
]

RandBelow = Callable[[int], int]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def invmod(a: int, n: int) -> int:
    """Return the inverse of ``a`` modulo ``n``.

    Raises :class:`CryptoError` when ``gcd(a, n) != 1``.
    """
    try:
        return pow(a, -1, n)
    except ValueError:
        raise CryptoError(f"{a} is not invertible modulo {n}") from None


def crt_pair(r1: int, n1: int, r2: int, n2: int) -> int:
    """Chinese remainder for two coprime moduli.

    Return the unique ``x`` modulo ``n1*n2`` with ``x % n1 == r1`` and
    ``x % n2 == r2``.
    """
    m1 = invmod(n2, n1)
    m2 = invmod(n1, n2)
    return (r1 * n2 * m1 + r2 * n1 * m2) % (n1 * n2)


lcm = math.lcm


def is_probable_prime(n: int, rounds: int = 40,
                      randbelow: RandBelow | None = None) -> bool:
    """Miller–Rabin primality test.

    With 40 random rounds the probability of accepting a composite is
    below 2**-80, the standard choice for cryptographic prime generation.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    randbelow = randbelow or secrets.randbelow
    # Write n - 1 as d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = randbelow(n - 3) + 2  # uniform in [2, n - 2]
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def random_bits(bits: int, randbelow: RandBelow | None = None) -> int:
    """Return a uniform integer with exactly ``bits`` bits (MSB set)."""
    if bits < 2:
        raise CryptoError("need at least 2 bits")
    randbelow = randbelow or secrets.randbelow
    return (1 << (bits - 1)) | randbelow(1 << (bits - 1))


def generate_prime(bits: int, randbelow: RandBelow | None = None) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    randbelow = randbelow or secrets.randbelow
    while True:
        candidate = random_bits(bits, randbelow) | 1  # force odd
        if is_probable_prime(candidate, randbelow=randbelow):
            return candidate


def generate_safe_prime(bits: int,
                        randbelow: RandBelow | None = None) -> int:
    """Generate a safe prime ``p`` (``(p - 1) / 2`` is also prime).

    Used by ElGamal so that the subgroup structure is known.  Safe-prime
    generation is slow; keep ``bits`` modest in tests.
    """
    randbelow = randbelow or secrets.randbelow
    while True:
        q = generate_prime(bits - 1, randbelow)
        p = 2 * q + 1
        if is_probable_prime(p, randbelow=randbelow):
            return p


def generate_distinct_primes(bits: int, count: int = 2,
                             randbelow: RandBelow | None = None) -> list[int]:
    """Generate ``count`` distinct primes of ``bits`` bits each."""
    primes: list[int] = []
    while len(primes) < count:
        p = generate_prime(bits, randbelow)
        if p not in primes:
            primes.append(p)
    return primes


def int_to_bytes(n: int, length: int | None = None) -> bytes:
    """Big-endian encoding of a non-negative integer.

    When ``length`` is omitted the minimal number of bytes is used
    (``b"\\x00"`` for zero).
    """
    if n < 0:
        raise CryptoError("cannot encode negative integer")
    if length is None:
        length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")
