"""RSA: key generation, OAEP encryption and the raw trapdoor permutation.

Two consumers exist in this repository:

* The **Sophos** tactic (:mod:`repro.tactics.sophos`) uses the *raw* RSA
  trapdoor permutation over Z_n — the gateway walks the permutation
  backwards with the private key while the cloud walks it forwards with the
  public key; that asymmetry is exactly what gives Sophos forward privacy.
* OAEP provides standard public-key encryption (the paper's prototype uses
  RSA/OAEP via Bouncy Castle) used by the simulated HSM for key wrapping.

Default modulus size is configurable; tests use small moduli for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.primitives.bignum import powmod
from repro.crypto.primitives.hmac_prf import hash_bytes, prg
from repro.crypto.primitives.numbers import (
    RandBelow,
    bytes_to_int,
    generate_distinct_primes,
    int_to_bytes,
    invmod,
    lcm,
)
from repro.crypto.primitives.random import RandomSource, default_random
from repro.errors import CryptoError

DEFAULT_MODULUS_BITS = 1024
PUBLIC_EXPONENT = 65537
_HASH_LEN = 32


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def apply(self, x: int) -> int:
        """Forward trapdoor permutation: ``x**e mod n``."""
        if not 0 <= x < self.n:
            raise CryptoError("permutation input out of range")
        return pow(x, self.e, self.n)


@dataclass(frozen=True)
class RsaPrivateKey:
    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def _crt(self) -> tuple[int, int, int]:
        """``(d mod p-1, d mod q-1, q^-1 mod p)``, once per key."""
        return (self.d % (self.p - 1), self.d % (self.q - 1),
                invmod(self.q, self.p))

    def invert(self, y: int) -> int:
        """Inverse trapdoor permutation with CRT speedup; the secret
        exponents run on OpenSSL's constant-time ``powmod``."""
        if not 0 <= y < self.n:
            raise CryptoError("permutation input out of range")
        dp, dq, q_inv = self._crt
        mp = powmod(y, dp, self.p)
        mq = powmod(y, dq, self.q)
        h = (q_inv * (mp - mq)) % self.p
        return mq + h * self.q


def generate_keypair(bits: int = DEFAULT_MODULUS_BITS,
                     randbelow: RandBelow | None = None) -> RsaPrivateKey:
    """Generate an RSA keypair with an exactly ``bits``-bit modulus."""
    if bits < 128:
        raise CryptoError("modulus too small")
    while True:
        p, q = generate_distinct_primes(bits // 2, 2, randbelow)
        n = p * q
        if n.bit_length() != bits:
            continue
        lam = lcm(p - 1, q - 1)
        if lam % PUBLIC_EXPONENT == 0:
            continue
        d = invmod(PUBLIC_EXPONENT, lam)
        return RsaPrivateKey(n=n, e=PUBLIC_EXPONENT, d=d, p=p, q=q)


# ---------------------------------------------------------------------------
# OAEP (RFC 8017 style, SHA-256, MGF1 via the PRG)
# ---------------------------------------------------------------------------


def _mgf1(seed: bytes, length: int) -> bytes:
    return prg(seed, length, label=b"mgf1")


def oaep_encrypt(key: RsaPublicKey, message: bytes, label: bytes = b"",
                 rng: RandomSource | None = None) -> bytes:
    rng = rng or default_random()
    k = key.byte_length
    max_len = k - 2 * _HASH_LEN - 2
    if len(message) > max_len:
        raise CryptoError(f"message too long for OAEP ({len(message)} > {max_len})")
    l_hash = hash_bytes(label)
    padding = bytes(k - len(message) - 2 * _HASH_LEN - 2)
    data_block = l_hash + padding + b"\x01" + message
    seed = rng.token_bytes(_HASH_LEN)
    masked_db = bytes(
        a ^ b for a, b in zip(data_block, _mgf1(seed, len(data_block)))
    )
    masked_seed = bytes(
        a ^ b for a, b in zip(seed, _mgf1(masked_db, _HASH_LEN))
    )
    encoded = b"\x00" + masked_seed + masked_db
    return int_to_bytes(key.apply(bytes_to_int(encoded)), k)


def oaep_decrypt(key: RsaPrivateKey, ciphertext: bytes,
                 label: bytes = b"") -> bytes:
    k = key.byte_length
    if len(ciphertext) != k:
        raise CryptoError("OAEP ciphertext has wrong length")
    encoded = int_to_bytes(key.invert(bytes_to_int(ciphertext)), k)
    if encoded[0] != 0:
        raise CryptoError("OAEP decoding failed")
    masked_seed = encoded[1:1 + _HASH_LEN]
    masked_db = encoded[1 + _HASH_LEN:]
    seed = bytes(
        a ^ b for a, b in zip(masked_seed, _mgf1(masked_db, _HASH_LEN))
    )
    data_block = bytes(
        a ^ b for a, b in zip(masked_db, _mgf1(seed, len(masked_db)))
    )
    l_hash = hash_bytes(label)
    if data_block[:_HASH_LEN] != l_hash:
        raise CryptoError("OAEP label mismatch")
    try:
        separator = data_block.index(b"\x01", _HASH_LEN)
    except ValueError:
        raise CryptoError("OAEP decoding failed") from None
    if any(data_block[_HASH_LEN:separator]):
        raise CryptoError("OAEP decoding failed")
    return data_block[separator + 1:]
