"""Multiplicative ElGamal over a safe-prime group.

The paper's background section names ElGamal as the classic
multiplicatively homomorphic scheme (E(a) * E(b) = E(a*b)).  It is included
as an *extension tactic* substrate: DataBlinder's catalog (Table 2) ships
Paillier for sums/averages, and the pluggable SPI is demonstrated by also
registering a product-capable aggregate tactic built on this module.

Messages are embedded in the subgroup of quadratic residues mod a safe
prime ``p = 2q + 1`` (squaring the embedding keeps DDH intact).  The
exponentiations by the secret ``x`` and the coins ``r`` run on
:func:`~repro.crypto.primitives.bignum.powmod`; the homomorphic
:meth:`ElGamalCiphertext.pow` and the public square root stay on
:func:`pow`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.primitives.bignum import powmod
from repro.crypto.primitives.numbers import (
    RandBelow,
    generate_safe_prime,
    invmod,
)
from repro.errors import CryptoError

DEFAULT_KEY_BITS = 512


@dataclass(frozen=True)
class ElGamalPublicKey:
    p: int  # safe prime
    g: int  # generator of the order-q subgroup
    h: int  # g^x

    @property
    def q(self) -> int:
        return (self.p - 1) // 2


@dataclass(frozen=True)
class ElGamalPrivateKey:
    public: ElGamalPublicKey
    x: int


@dataclass(frozen=True)
class ElGamalCiphertext:
    public: ElGamalPublicKey
    c1: int
    c2: int

    def __mul__(self, other: "ElGamalCiphertext") -> "ElGamalCiphertext":
        if not isinstance(other, ElGamalCiphertext):
            return NotImplemented
        if other.public != self.public:
            raise CryptoError("mixed-key ElGamal multiplication")
        p = self.public.p
        return ElGamalCiphertext(
            self.public, self.c1 * other.c1 % p, self.c2 * other.c2 % p
        )

    def pow(self, exponent: int) -> "ElGamalCiphertext":
        """Homomorphic exponentiation: E(m) -> E(m**exponent)."""
        p = self.public.p
        return ElGamalCiphertext(
            self.public, pow(self.c1, exponent, p), pow(self.c2, exponent, p)
        )


def generate_keypair(bits: int = DEFAULT_KEY_BITS,
                     randbelow: RandBelow | None = None) -> ElGamalPrivateKey:
    import secrets

    randbelow = randbelow or secrets.randbelow
    p = generate_safe_prime(bits, randbelow)
    q = (p - 1) // 2
    # A random square generates the order-q subgroup (with overwhelming
    # probability it is not 1).
    while True:
        candidate = pow(randbelow(p - 2) + 2, 2, p)
        if candidate != 1:
            g = candidate
            break
    x = randbelow(q - 1) + 1
    return ElGamalPrivateKey(ElGamalPublicKey(p, g, powmod(g, x, p)), x)


def _embed(public: ElGamalPublicKey, message: int) -> int:
    if not 1 <= message:
        raise CryptoError("ElGamal message must be a positive integer")
    embedded = pow(message, 2, public.p)  # force into the QR subgroup
    if message >= public.q:
        raise CryptoError("message too large for square-embedding")
    return embedded


def _unembed(public: ElGamalPublicKey, residue: int) -> int:
    """Invert the squaring embedding via a modular square root.

    For a safe prime ``p = 2q + 1`` (``p % 4 == 3``), the square root of a
    quadratic residue is ``r^((p+1)/4)``; the embedding picked the root
    below ``q``.
    """
    root = pow(residue, (public.p + 1) // 4, public.p)
    if root >= public.q:
        root = public.p - root
    return root


def encrypt(public: ElGamalPublicKey, message: int,
            randbelow: RandBelow | None = None) -> ElGamalCiphertext:
    import secrets

    randbelow = randbelow or secrets.randbelow
    m = _embed(public, message)
    r = randbelow(public.q - 1) + 1
    return ElGamalCiphertext(
        public,
        powmod(public.g, r, public.p),
        m * powmod(public.h, r, public.p) % public.p,
    )


def decrypt(private: ElGamalPrivateKey, ciphertext: ElGamalCiphertext) -> int:
    public = private.public
    if ciphertext.public != public:
        raise CryptoError("ciphertext was produced under a different key")
    s = powmod(ciphertext.c1, private.x, public.p)
    residue = ciphertext.c2 * invmod(s, public.p) % public.p
    return _unembed(public, residue)
