"""High-level symmetric encryption envelopes.

Three envelopes back the value-protection tactics of the paper:

* :class:`Aead` — probabilistic authenticated encryption (AES-GCM with a
  random 96-bit nonce).  This is the cryptographic core of the **RND**
  tactic (Table 2: class 1, *structure* leakage).
* :class:`Deterministic` — SIV-style deterministic authenticated
  encryption: the nonce is a PRF over the plaintext, so equal plaintexts
  produce equal ciphertexts.  Core of the **DET** tactic (class 4,
  *equalities* leakage).
* :func:`seal_value` / :func:`open_value` — convenience wrappers applying
  the canonical value codec before encryption.

Both envelopes run AES-GCM on OpenSSL's EVP implementation
(:mod:`repro.crypto.primitives.gcm`, the ``libcrypto`` the interpreter
already links for :mod:`hashlib`), which is constant-time; the paper's
prototype takes the same primitive from Bouncy Castle.  The executor's
document-body envelope, the RND/DET/2Lev tactics and the simulated HSM's
key wraps all go through these two classes.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from repro.crypto.encoding import Value, decode_value, encode_value
from repro.crypto.primitives.gcm import NONCE_SIZE, TAG_SIZE, AesGcm
from repro.crypto.primitives.hmac_prf import hkdf, prf
from repro.crypto.primitives.random import RandomSource, default_random
from repro.errors import CryptoError

KEY_SIZE = 16


@dataclass(frozen=True)
class SealedBox:
    """A self-contained ciphertext: nonce || ciphertext || tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.ciphertext + self.tag

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedBox":
        if len(data) < NONCE_SIZE + TAG_SIZE:
            raise CryptoError("sealed box too short")
        return cls(
            nonce=data[:NONCE_SIZE],
            ciphertext=data[NONCE_SIZE:-TAG_SIZE],
            tag=data[-TAG_SIZE:],
        )


class Aead:
    """Probabilistic AES-GCM envelope (fresh random nonce per message)."""

    def __init__(self, key: bytes, rng: RandomSource | None = None):
        self._cipher = AesGcm(key)
        self._rng = rng or default_random()

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        nonce = self._rng.token_bytes(NONCE_SIZE)
        ciphertext, tag = self._cipher.encrypt(nonce, plaintext, aad)
        return SealedBox(nonce, ciphertext, tag).to_bytes()

    def decrypt(self, sealed: bytes, aad: bytes = b"") -> bytes:
        box = SealedBox.from_bytes(sealed)
        return self._cipher.decrypt(box.nonce, box.ciphertext, box.tag, aad)


class Deterministic:
    """SIV-style deterministic authenticated encryption.

    The nonce is derived as ``PRF(mac_key, aad, plaintext)``; decryption
    re-derives and compares it, giving authenticity.  Equal plaintexts under
    the same key map to identical ciphertexts — the *equalities* leakage
    that places DET in protection class 4.
    """

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise CryptoError("deterministic key must be at least 16 bytes")
        self._enc_key = hkdf(key, b"det-enc", KEY_SIZE)
        self._mac_key = hkdf(key, b"det-mac", 32)
        self._cipher = AesGcm(self._enc_key)

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        nonce = prf(self._mac_key, aad, plaintext)[:NONCE_SIZE]
        ciphertext, tag = self._cipher.encrypt(nonce, plaintext, aad)
        return SealedBox(nonce, ciphertext, tag).to_bytes()

    def decrypt(self, sealed: bytes, aad: bytes = b"") -> bytes:
        box = SealedBox.from_bytes(sealed)
        plaintext = self._cipher.decrypt(box.nonce, box.ciphertext, box.tag,
                                         aad)
        expected = prf(self._mac_key, aad, plaintext)[:NONCE_SIZE]
        if not hmac.compare_digest(expected, box.nonce):
            raise CryptoError("deterministic nonce mismatch")
        return plaintext

    def token(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """The deterministic ciphertext usable as an equality-search token."""
        return self.encrypt(plaintext, aad)


def seal_value(envelope: Aead | Deterministic, value: Value,
               aad: bytes = b"") -> bytes:
    """Encode a scalar field value canonically, then encrypt it."""
    return envelope.encrypt(encode_value(value), aad)


def open_value(envelope: Aead | Deterministic, sealed: bytes,
               aad: bytes = b"") -> Value:
    """Decrypt and decode a value sealed with :func:`seal_value`."""
    return decode_value(envelope.decrypt(sealed, aad))
