"""The Paillier partially homomorphic cryptosystem (Paillier, 1999).

Replaces the Javallier library the paper's prototype used.  Supports:

* additive homomorphism: ``E(a) * E(b) = E(a + b)``;
* scalar multiplication: ``E(a) ** k = E(a * k)``;
* signed integers (two's-complement style embedding in Z_n);
* fixed-point reals via :class:`FixedPointCodec`, which the Paillier
  aggregate tactic uses to average heart rates / glucose values.

The simplified variant with generator ``g = n + 1`` is implemented, which
reduces encryption to one modular exponentiation of the random mask.

The private key always carries the factors ``p`` and ``q`` (the gateway
generated them), and the gateway kernels work modulo ``p²`` and ``q²``
instead of ``n²``: :func:`decrypt` is Paillier'99 §7 (exponents ``p−1``
and ``q−1``), :func:`mask` draws a uniform ``r^n`` in the two half-width
groups, and :class:`FixedBaseObfuscator` raises its fixed base there;
both masks share one recombination step.  Each produces the same
integers as the textbook formula; the per-key constants live on
:attr:`PaillierPrivateKey.crt`.  Only ``n`` ever leaves the gateway.

Every gateway exponentiation is
:func:`~repro.crypto.primitives.bignum.powmod` (OpenSSL's constant-time
Montgomery exponentiation); the public-key :func:`obfuscator` /
:func:`encrypt` and the cloud's homomorphic operations stay on the
builtin :func:`pow`.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from repro.crypto.primitives.bignum import powmod
from repro.crypto.primitives.numbers import (
    RandBelow,
    generate_distinct_primes,
    invmod,
    lcm,
)
from repro.errors import CryptoError

DEFAULT_KEY_BITS = 1024


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int

    # Every homomorphic operation reduces mod n^2; caching the square on
    # the key object (equality/hash still use ``n`` alone) spares one
    # 2048-bit multiplication per ciphertext operation.
    @cached_property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def max_plaintext(self) -> int:
        """Largest magnitude representable after the signed embedding."""
        return (self.n - 1) // 3


class CrtConstants(NamedTuple):
    """What the mod-p² / mod-q² kernels need besides ``p`` and ``q``."""

    p_squared: int
    q_squared: int
    h_p: int  # L_p(g^(p-1) mod p^2)^-1 mod p   (Paillier'99 §7)
    h_q: int
    p_inv_q: int                  # p^-1 mod q: recombines plaintexts
    p_squared_inv_q_squared: int  # p^-2 mod q^2: recombines masks


@dataclass(frozen=True)
class PaillierPrivateKey:
    public: PaillierPublicKey
    lam: int  # lcm(p-1, q-1)
    mu: int   # (L(g^lam mod n^2))^-1 mod n
    p: int
    q: int

    @cached_property
    def crt(self) -> CrtConstants:
        """Per-key constants, derived once (like ``n_squared``)."""
        p, q, g = self.p, self.q, self.public.n + 1
        p_sq, q_sq = p * p, q * q
        return CrtConstants(
            p_sq, q_sq,
            invmod((powmod(g, p - 1, p_sq) - 1) // p, p),
            invmod((powmod(g, q - 1, q_sq) - 1) // q, q),
            invmod(p, q), invmod(p_sq, q_sq),
        )


@dataclass(frozen=True)
class Ciphertext:
    """A Paillier ciphertext bound to its public key.

    Arithmetic operators implement the homomorphic operations so calling
    code reads like plaintext arithmetic: ``e1 + e2``, ``e1 * 3``.
    """

    public: PaillierPublicKey
    value: int

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        if not isinstance(other, Ciphertext):
            return NotImplemented
        if other.public != self.public:
            raise CryptoError("cannot add ciphertexts under different keys")
        return Ciphertext(
            self.public, self.value * other.value % self.public.n_squared
        )

    def add_plain(self, scalar: int) -> "Ciphertext":
        # With g = n + 1, g^m = 1 + m*n (mod n^2): the closed form costs
        # one multiplication where the general pow() walked ~1.5 * bits
        # square-and-multiply steps for the same result.
        n = self.public.n
        n_sq = self.public.n_squared
        g_m = (1 + scalar % n * n) % n_sq
        return Ciphertext(
            self.public, self.value * g_m % n_sq
        )

    def __mul__(self, scalar: int) -> "Ciphertext":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar < 0:
            inverted = invmod(self.value, self.public.n_squared)
            return Ciphertext(
                self.public,
                pow(inverted, -scalar, self.public.n_squared),
            )
        return Ciphertext(
            self.public, pow(self.value, scalar, self.public.n_squared)
        )

    __rmul__ = __mul__


def generate_keypair(bits: int = DEFAULT_KEY_BITS,
                     randbelow: RandBelow | None = None) -> PaillierPrivateKey:
    """Generate a Paillier keypair with an (approximately) ``bits``-bit n."""
    if bits < 64:
        raise CryptoError("key too small")
    while True:
        p, q = generate_distinct_primes(bits // 2, 2, randbelow)
        if math.gcd(p * q, (p - 1) * (q - 1)) != 1:
            continue
        n = p * q
        public = PaillierPublicKey(n)
        lam = lcm(p - 1, q - 1)
        # With g = n + 1: L(g^lam mod n^2) = lam mod n, so mu = lam^-1.
        mu = invmod(lam, n)
        return PaillierPrivateKey(public=public, lam=lam, mu=mu, p=p, q=q)


def _embed_signed(public: PaillierPublicKey, message: int) -> int:
    if abs(message) > public.max_plaintext:
        raise CryptoError("plaintext magnitude exceeds key capacity")
    return message % public.n


def _unembed_signed(public: PaillierPublicKey, residue: int) -> int:
    # Values in the upper third of Z_n decode as negatives.
    if residue > public.n - public.max_plaintext - 1:
        return residue - public.n
    return residue


def _unit(n: int, randbelow: RandBelow | None) -> int:
    """A uniform ``r`` in Z*_n."""
    randbelow = randbelow or secrets.randbelow
    while True:
        r = randbelow(n - 1) + 1
        if math.gcd(r, n) == 1:
            return r


def obfuscator(public: PaillierPublicKey,
               randbelow: RandBelow | None = None) -> int:
    """One random mask ``r^n mod n^2`` — the expensive half of encrypt —
    from the public key alone."""
    return pow(_unit(public.n, randbelow), public.n, public.n_squared)


def _recombine(crt: CrtConstants, u_p: int, u_q: int) -> int:
    """The ``x mod n²`` with ``x ≡ u_p (mod p²)``, ``x ≡ u_q (mod q²)``."""
    return u_p + crt.p_squared * (
        (u_q - u_p) * crt.p_squared_inv_q_squared % crt.q_squared
    )


def mask(private: PaillierPrivateKey,
         randbelow: RandBelow | None = None) -> int:
    """The same uniform mask as :func:`obfuscator`, for the same coins,
    computed by the key holder: ``r^n`` in the two half-width groups,
    with ``n`` reduced mod |Z*_{p²}| = p(p−1) and |Z*_{q²}| = q(q−1)
    (exact, since ``r`` is a unit), then recombined."""
    n, p, q, crt = private.public.n, private.p, private.q, private.crt
    r = _unit(n, randbelow)
    return _recombine(
        crt,
        powmod(r % crt.p_squared, n % (p * (p - 1)), crt.p_squared),
        powmod(r % crt.q_squared, n % (q * (q - 1)), crt.q_squared),
    )


def encrypt_with_mask(public: PaillierPublicKey, message: int,
                      mask: int) -> Ciphertext:
    """Encrypt using a precomputed obfuscator mask: a single modmul.

    With ``g = n + 1``, ``g^m = 1 + m*n (mod n^2)``, so given
    ``mask = r^n mod n^2`` the ciphertext costs one modular
    multiplication; :class:`FixedBaseObfuscator` makes the mask cheap.
    """
    m = _embed_signed(public, message)
    n_sq = public.n_squared
    return Ciphertext(public, (1 + m * public.n) % n_sq * mask % n_sq)


def encrypt(public: PaillierPublicKey, message: int,
            randbelow: RandBelow | None = None) -> Ciphertext:
    """Encrypt a signed integer."""
    return encrypt_with_mask(public, message,
                             obfuscator(public, randbelow))


class FixedBaseObfuscator:
    """Fixed-base generation of obfuscator masks.

    At setup one cold mask ``β = r₀^n mod n²`` is drawn; fresh masks are
    then ``β^k mod n²`` for uniform ``k ∈ [1, n)`` — i.e. effective
    randomness ``r₀^k``.  This is the classic amortised-randomness
    trade (masks range over the subgroup ⟨r₀⟩ rather than all of Z*_n);
    it is opt-in via ``CryptoConfig.precompute`` and never the default.

    The gateway holds ``p`` and ``q``, so ``β^k`` is computed in the two
    half-width groups.  β is an n-th residue, hence ``β^(p−1) ≡ 1 (mod
    p²)`` (|Z*_{p²}| = p(p−1) divides n(p−1)) and likewise for q:
    reducing ``k`` mod ``p−1`` / ``q−1`` is exact, and CRT-recombining
    the two half-width powers yields the very integer ``pow(β, k, n²)``.
    Only ``β mod p²`` and ``β mod q²`` are kept.
    """

    def __init__(self, private: PaillierPrivateKey,
                 randbelow: RandBelow | None = None):
        self._private = private
        self._randbelow = randbelow or secrets.randbelow
        beta = mask(private, randbelow)
        crt = private.crt
        self._beta_p = beta % crt.p_squared
        self._beta_q = beta % crt.q_squared

    def mask(self) -> int:
        private, crt = self._private, self._private.crt
        exponent = self._randbelow(private.public.n - 1) + 1
        return _recombine(
            crt,
            powmod(self._beta_p, exponent % (private.p - 1), crt.p_squared),
            powmod(self._beta_q, exponent % (private.q - 1), crt.q_squared),
        )

    def encrypt(self, message: int) -> Ciphertext:
        return encrypt_with_mask(self._private.public, message,
                                 self.mask())


def decrypt(private: PaillierPrivateKey, ciphertext: Ciphertext) -> int:
    """Decrypt to a signed integer (Paillier'99 §7).

    ``m_p = L_p(c^(p−1) mod p²)·h_p mod p`` with ``L_p(x) = (x−1)/p``,
    the same for ``q``, recombined through ``p⁻¹ mod q``: two half-width
    exponentiations with half-length exponents.  The decomposition
    holds for units of Z_{n²} only — anything else (never an honest
    ciphertext) takes the textbook ``L(c^λ mod n²)·μ mod n``.
    """
    public = private.public
    if ciphertext.public != public:
        raise CryptoError("ciphertext was produced under a different key")
    n, c = public.n, ciphertext.value
    if math.gcd(c, n) == 1:
        p, q, crt = private.p, private.q, private.crt
        m_p = (powmod(c, p - 1, crt.p_squared) - 1) // p * crt.h_p % p
        m_q = (powmod(c, q - 1, crt.q_squared) - 1) // q * crt.h_q % q
        residue = m_p + p * ((m_q - m_p) * crt.p_inv_q % q)
    else:
        u = powmod(c, private.lam, public.n_squared)
        residue = (u - 1) // n * private.mu % n
    return _unembed_signed(public, residue)


class FixedPointCodec:
    """Fixed-point embedding of reals into the Paillier plaintext space.

    ``scale`` decimal digits of precision are kept.  Averages computed over
    homomorphic sums divide the decoded sum by the count at the gateway —
    exactly the AggFunctionResolution step of the paper's SPI (Table 1).
    """

    def __init__(self, scale: int = 6):
        if scale < 0 or scale > 18:
            raise CryptoError("scale out of supported range")
        self.factor = 10 ** scale

    def encode(self, value: float | int) -> int:
        return round(value * self.factor)

    def decode(self, encoded: int) -> float:
        return encoded / self.factor

    def decode_mean(self, encoded_sum: int, count: int) -> float:
        if count <= 0:
            raise CryptoError("mean over empty population")
        return encoded_sum / self.factor / count
