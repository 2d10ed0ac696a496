"""Block cipher modes of operation: CTR, CBC and GCM (the test oracle).

Verified against NIST SP 800-38A (CTR, CBC) and the GCM specification test
vectors in ``tests/crypto/test_modes.py``.  GCM is the authenticated mode
the paper's prototype uses (AES/GCM via Bouncy Castle); ``repro`` runs it
on OpenSSL, and ``tests/crypto/test_gcm_native.py`` checks that path
byte for byte against :func:`gcm_encrypt` / :func:`gcm_decrypt` here.
"""

from __future__ import annotations

import hmac as _hmac

from tests.crypto.reference.aes import AES, BLOCK_SIZE
from repro.errors import CryptoError, IntegrityError


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    pad = block_size - len(data) % block_size
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    if not data or len(data) % block_size:
        raise CryptoError("invalid padded length")
    pad = data[-1]
    if pad < 1 or pad > block_size or data[-pad:] != bytes([pad]) * pad:
        raise CryptoError("invalid PKCS#7 padding")
    return data[:-pad]


def ctr_transform(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` in CTR mode (the transform is symmetric).

    ``nonce`` is the full 16-byte initial counter block; it is incremented
    as a big-endian 128-bit integer.
    """
    if len(nonce) != BLOCK_SIZE:
        raise CryptoError("CTR nonce must be a 16-byte counter block")
    counter = int.from_bytes(nonce, "big")
    out = bytearray()
    encrypt_block = cipher.encrypt_block
    for offset in range(0, len(data), BLOCK_SIZE):
        keystream = encrypt_block(counter.to_bytes(BLOCK_SIZE, "big"))
        chunk = data[offset:offset + BLOCK_SIZE]
        out += xor_bytes(chunk, keystream[: len(chunk)])
        counter = (counter + 1) % (1 << 128)
    return bytes(out)


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    if len(iv) != BLOCK_SIZE:
        raise CryptoError("CBC IV must be 16 bytes")
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    prev = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = xor_bytes(padded[offset:offset + BLOCK_SIZE], prev)
        prev = cipher.encrypt_block(block)
        out += prev
    return bytes(out)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    if len(iv) != BLOCK_SIZE:
        raise CryptoError("CBC IV must be 16 bytes")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise CryptoError("CBC ciphertext length must be a block multiple")
    out = bytearray()
    prev = iv
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[offset:offset + BLOCK_SIZE]
        out += xor_bytes(cipher.decrypt_block(block), prev)
        prev = block
    return pkcs7_unpad(bytes(out))


# ---------------------------------------------------------------------------
# GCM
# ---------------------------------------------------------------------------

_R = 0xE1 << 120  # GCM reduction polynomial as a 128-bit constant


def _gf128_mul(x: int, y: int) -> int:
    """Multiply in GF(2^128) with the GCM bit ordering."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _shift8_slow(z: int) -> int:
    """Multiply ``z`` by the field element x^8 (GCM bit ordering)."""
    for _ in range(8):
        if z & 1:
            z = (z >> 1) ^ _R
        else:
            z >>= 1
    return z


# Reduction of the 8 low-order bits that fall off when shifting by a byte:
# _shift8(z) == (z >> 8) ^ _SHIFT8_TABLE[z & 0xFF] (the map is GF(2)-linear).
_SHIFT8_TABLE = [_shift8_slow(b) for b in range(256)]


class _GHash:
    """GHASH over GF(2^128) with an 8-bit lookup table for speed.

    ``table[b]`` stores the product (b placed in the top byte of the
    block) * H; a block multiplication is then a 16-step byte-wise Horner
    evaluation with constant-time per-byte shifts.
    """

    def __init__(self, h: bytes):
        h_int = int.from_bytes(h, "big")
        self._table = table = [0] * 256
        for bit in range(8):
            value = _gf128_mul(1 << (127 - bit), h_int)
            mask = 0x80 >> bit
            for b in range(256):
                if b & mask:
                    table[b] ^= value

    def _mul_h(self, x: int) -> int:
        table = self._table
        shift = _SHIFT8_TABLE
        z = 0
        for i in range(15, -1, -1):
            z = (z >> 8) ^ shift[z & 0xFF]
            z ^= table[(x >> (120 - 8 * i)) & 0xFF]
        return z

    def digest(self, data: bytes) -> int:
        if len(data) % 16:
            raise CryptoError("GHASH input must be 16-byte aligned")
        y = 0
        mul_h = self._mul_h
        for offset in range(0, len(data), 16):
            block = int.from_bytes(data[offset:offset + 16], "big")
            y = mul_h(y ^ block)
        return y


def _gcm_pad(data: bytes) -> bytes:
    rem = len(data) % 16
    return data + bytes(16 - rem) if rem else data


def _ghash_for(cipher: AES) -> _GHash:
    """Per-cipher GHASH instance (the table depends only on the key)."""
    ghash = getattr(cipher, "_ghash_cache", None)
    if ghash is None:
        ghash = _GHash(cipher.encrypt_block(bytes(16)))
        cipher._ghash_cache = ghash  # noqa: SLF001 - deliberate memo
    return ghash


def gcm_encrypt(cipher: AES, nonce: bytes, plaintext: bytes,
                aad: bytes = b"", tag_length: int = 16) -> tuple[bytes, bytes]:
    """AES-GCM encryption. Returns ``(ciphertext, tag)``.

    ``nonce`` is the recommended 12-byte IV; other lengths follow the GCM
    GHASH-based derivation.
    """
    ghash = _ghash_for(cipher)
    if len(nonce) == 12:
        j0 = nonce + b"\x00\x00\x00\x01"
    else:
        length_block = (8 * len(nonce)).to_bytes(16, "big")
        j0 = int.to_bytes(ghash.digest(_gcm_pad(nonce) + length_block),
                          16, "big")
    counter = (int.from_bytes(j0, "big") + 1) % (1 << 128)
    ciphertext = ctr_transform(cipher, counter.to_bytes(16, "big"), plaintext)
    lengths = (8 * len(aad)).to_bytes(8, "big") + (
        8 * len(ciphertext)
    ).to_bytes(8, "big")
    s = ghash.digest(_gcm_pad(aad) + _gcm_pad(ciphertext) + lengths)
    full_tag = xor_bytes(cipher.encrypt_block(j0), s.to_bytes(16, "big"))
    return ciphertext, full_tag[:tag_length]


def gcm_decrypt(cipher: AES, nonce: bytes, ciphertext: bytes, tag: bytes,
                aad: bytes = b"") -> bytes:
    """AES-GCM decryption; raises :class:`IntegrityError` on a bad tag."""
    ghash = _ghash_for(cipher)
    if len(nonce) == 12:
        j0 = nonce + b"\x00\x00\x00\x01"
    else:
        length_block = (8 * len(nonce)).to_bytes(16, "big")
        j0 = int.to_bytes(ghash.digest(_gcm_pad(nonce) + length_block),
                          16, "big")
    lengths = (8 * len(aad)).to_bytes(8, "big") + (
        8 * len(ciphertext)
    ).to_bytes(8, "big")
    s = ghash.digest(_gcm_pad(aad) + _gcm_pad(ciphertext) + lengths)
    full_tag = xor_bytes(cipher.encrypt_block(j0), s.to_bytes(16, "big"))
    if not _hmac.compare_digest(full_tag[: len(tag)], tag):
        raise IntegrityError("GCM tag verification failed")
    counter = (int.from_bytes(j0, "big") + 1) % (1 << 128)
    return ctr_transform(cipher, counter.to_bytes(16, "big"), ciphertext)
