"""Pure-Python AES block cipher (FIPS 197): the test oracle.

``repro`` runs AES-GCM on OpenSSL (:mod:`repro.crypto.primitives.gcm`).
This from-scratch block cipher is kept as an independent reference the
native path is checked against.  Encryption uses the classic 32-bit
T-table formulation; decryption uses the equivalent inverse tables.  Both
are verified against the FIPS 197 and NIST SP 800-38A test vectors in
``tests/crypto/test_aes.py``.

Only the raw block transform lives here; modes of operation are in
:mod:`tests.crypto.reference.modes`.
"""

from __future__ import annotations

from repro.errors import CryptoError

BLOCK_SIZE = 16

# ---------------------------------------------------------------------------
# Table generation (runs once at import time).
# ---------------------------------------------------------------------------


def _build_sbox() -> tuple[list[int], list[int]]:
    """Build the AES S-box from the GF(2^8) inverse + affine transform."""
    # Exp/log tables over GF(2^8) with generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 (x ^= xtime(x))
        xt = x << 1
        if xt & 0x100:
            xt ^= 0x11B
        x ^= xt
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        inv = exp[255 - log[value]] if value else 0
        # Affine transformation over GF(2).
        s = inv
        result = inv
        for _ in range(4):
            s = ((s << 1) | (s >> 7)) & 0xFF
            result ^= s
        result ^= 0x63
        sbox[value] = result
        inv_sbox[result] = value
    return sbox, inv_sbox


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


SBOX, INV_SBOX = _build_sbox()

# Encryption T-tables: T0[x] = (S[x]*2, S[x], S[x], S[x]*3) packed big-endian;
# T1..T3 are byte rotations of T0.
_T0 = []
for _x in range(256):
    _s = SBOX[_x]
    _T0.append(
        (_gf_mul(_s, 2) << 24) | (_s << 16) | (_s << 8) | _gf_mul(_s, 3)
    )
_T1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _T0]
_T2 = [((t >> 16) | ((t & 0xFFFF) << 16)) & 0xFFFFFFFF for t in _T0]
_T3 = [((t >> 24) | ((t & 0xFFFFFF) << 8)) & 0xFFFFFFFF for t in _T0]

# Decryption tables: U0[x] = (Si[x]*14, Si[x]*9, Si[x]*13, Si[x]*11).
_U0 = []
for _x in range(256):
    _s = INV_SBOX[_x]
    _U0.append(
        (_gf_mul(_s, 14) << 24)
        | (_gf_mul(_s, 9) << 16)
        | (_gf_mul(_s, 13) << 8)
        | _gf_mul(_s, 11)
    )
_U1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _U0]
_U2 = [((t >> 16) | ((t & 0xFFFF) << 16)) & 0xFFFFFFFF for t in _U0]
_U3 = [((t >> 24) | ((t & 0xFFFFFF) << 8)) & 0xFFFFFFFF for t in _U0]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D]

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}


def _expand_key(key: bytes) -> list[int]:
    """AES key schedule: return the round keys as 32-bit words."""
    nk = len(key) // 4
    rounds = _ROUNDS_BY_KEYLEN[len(key)]
    words = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            # RotWord + SubWord + Rcon.
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
            temp = (
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )
            temp ^= _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = (
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )
        words.append(words[i - nk] ^ temp)
    return words


def _invert_round_keys(words: list[int], rounds: int) -> list[int]:
    """Transform encryption round keys for the equivalent inverse cipher."""
    inv = list(reversed([words[4 * r:4 * r + 4] for r in range(rounds + 1)]))
    flat = [w for group in inv for w in group]
    # Apply InvMixColumns to all round keys except the first and last.
    for i in range(4, 4 * rounds):
        w = flat[i]
        flat[i] = (
            _U0[SBOX[(w >> 24) & 0xFF]]
            ^ _U1[SBOX[(w >> 16) & 0xFF]]
            ^ _U2[SBOX[(w >> 8) & 0xFF]]
            ^ _U3[SBOX[w & 0xFF]]
        )
    return flat


class AES:
    """Raw AES block transform for 128/192/256-bit keys.

    >>> cipher = AES(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    def __init__(self, key: bytes):
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise CryptoError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self.rounds = _ROUNDS_BY_KEYLEN[len(key)]
        self._ek = _expand_key(key)
        self._dk = _invert_round_keys(self._ek, self.rounds)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES block must be 16 bytes")
        ek = self._ek
        s0 = int.from_bytes(block[0:4], "big") ^ ek[0]
        s1 = int.from_bytes(block[4:8], "big") ^ ek[1]
        s2 = int.from_bytes(block[8:12], "big") ^ ek[2]
        s3 = int.from_bytes(block[12:16], "big") ^ ek[3]
        t0 = t1 = t2 = t3 = 0
        for r in range(1, self.rounds):
            k = 4 * r
            t0 = (_T0[(s0 >> 24) & 0xFF] ^ _T1[(s1 >> 16) & 0xFF]
                  ^ _T2[(s2 >> 8) & 0xFF] ^ _T3[s3 & 0xFF] ^ ek[k])
            t1 = (_T0[(s1 >> 24) & 0xFF] ^ _T1[(s2 >> 16) & 0xFF]
                  ^ _T2[(s3 >> 8) & 0xFF] ^ _T3[s0 & 0xFF] ^ ek[k + 1])
            t2 = (_T0[(s2 >> 24) & 0xFF] ^ _T1[(s3 >> 16) & 0xFF]
                  ^ _T2[(s0 >> 8) & 0xFF] ^ _T3[s1 & 0xFF] ^ ek[k + 2])
            t3 = (_T0[(s3 >> 24) & 0xFF] ^ _T1[(s0 >> 16) & 0xFF]
                  ^ _T2[(s1 >> 8) & 0xFF] ^ _T3[s2 & 0xFF] ^ ek[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        k = 4 * self.rounds
        o0 = ((SBOX[(s0 >> 24) & 0xFF] << 24) | (SBOX[(s1 >> 16) & 0xFF] << 16)
              | (SBOX[(s2 >> 8) & 0xFF] << 8) | SBOX[s3 & 0xFF]) ^ ek[k]
        o1 = ((SBOX[(s1 >> 24) & 0xFF] << 24) | (SBOX[(s2 >> 16) & 0xFF] << 16)
              | (SBOX[(s3 >> 8) & 0xFF] << 8) | SBOX[s0 & 0xFF]) ^ ek[k + 1]
        o2 = ((SBOX[(s2 >> 24) & 0xFF] << 24) | (SBOX[(s3 >> 16) & 0xFF] << 16)
              | (SBOX[(s0 >> 8) & 0xFF] << 8) | SBOX[s1 & 0xFF]) ^ ek[k + 2]
        o3 = ((SBOX[(s3 >> 24) & 0xFF] << 24) | (SBOX[(s0 >> 16) & 0xFF] << 16)
              | (SBOX[(s1 >> 8) & 0xFF] << 8) | SBOX[s2 & 0xFF]) ^ ek[k + 3]
        return b"".join(o.to_bytes(4, "big") for o in (o0, o1, o2, o3))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES block must be 16 bytes")
        dk = self._dk
        s0 = int.from_bytes(block[0:4], "big") ^ dk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ dk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ dk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ dk[3]
        for r in range(1, self.rounds):
            k = 4 * r
            t0 = (_U0[(s0 >> 24) & 0xFF] ^ _U1[(s3 >> 16) & 0xFF]
                  ^ _U2[(s2 >> 8) & 0xFF] ^ _U3[s1 & 0xFF] ^ dk[k])
            t1 = (_U0[(s1 >> 24) & 0xFF] ^ _U1[(s0 >> 16) & 0xFF]
                  ^ _U2[(s3 >> 8) & 0xFF] ^ _U3[s2 & 0xFF] ^ dk[k + 1])
            t2 = (_U0[(s2 >> 24) & 0xFF] ^ _U1[(s1 >> 16) & 0xFF]
                  ^ _U2[(s0 >> 8) & 0xFF] ^ _U3[s3 & 0xFF] ^ dk[k + 2])
            t3 = (_U0[(s3 >> 24) & 0xFF] ^ _U1[(s2 >> 16) & 0xFF]
                  ^ _U2[(s1 >> 8) & 0xFF] ^ _U3[s0 & 0xFF] ^ dk[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        k = 4 * self.rounds
        isb = INV_SBOX
        o0 = ((isb[(s0 >> 24) & 0xFF] << 24) | (isb[(s3 >> 16) & 0xFF] << 16)
              | (isb[(s2 >> 8) & 0xFF] << 8) | isb[s1 & 0xFF]) ^ dk[k]
        o1 = ((isb[(s1 >> 24) & 0xFF] << 24) | (isb[(s0 >> 16) & 0xFF] << 16)
              | (isb[(s3 >> 8) & 0xFF] << 8) | isb[s2 & 0xFF]) ^ dk[k + 1]
        o2 = ((isb[(s2 >> 24) & 0xFF] << 24) | (isb[(s1 >> 16) & 0xFF] << 16)
              | (isb[(s0 >> 8) & 0xFF] << 8) | isb[s3 & 0xFF]) ^ dk[k + 2]
        o3 = ((isb[(s3 >> 24) & 0xFF] << 24) | (isb[(s2 >> 16) & 0xFF] << 16)
              | (isb[(s1 >> 8) & 0xFF] << 8) | isb[s0 & 0xFF]) ^ dk[k + 3]
        return b"".join(o.to_bytes(4, "big") for o in (o0, o1, o2, o3))
