"""AES-GCM on the OpenSSL ``libcrypto`` the interpreter already links.

The paper's prototype takes AES/GCM from Bouncy Castle; here it is
OpenSSL's EVP interface, reached through :mod:`ctypes` on the library
behind the stdlib's ``_hashlib`` (the one :mod:`hashlib` and :mod:`hmac`
use), so nothing is installed for it.  Only 16/24/32-byte keys, 12-byte
nonces and 16-byte tags are accepted.  Every EVP return code is checked
(:class:`CryptoError`; a tag mismatch is :class:`IntegrityError`).  The
cipher context lives for one call, so an :class:`AesGcm` may be shared
between threads; ctypes releases the GIL during each EVP call.
"""

from __future__ import annotations

import ctypes
from ctypes import POINTER, byref, c_char_p, c_int, c_void_p

import _hashlib

from repro.errors import CryptoError, IntegrityError

NONCE_SIZE = 12
TAG_SIZE = 16
_GCM_GET_TAG = 0x10  # EVP_CTRL_GCM_GET_TAG
_GCM_SET_TAG = 0x11  # EVP_CTRL_GCM_SET_TAG

_lib = ctypes.CDLL(_hashlib.__file__)
try:
    _new, _free, _ctrl, *_gcm = (getattr(_lib, "EVP_" + name) for name in (
        "CIPHER_CTX_new", "CIPHER_CTX_free", "CIPHER_CTX_ctrl",
        "aes_128_gcm", "aes_192_gcm", "aes_256_gcm"))
    _ENCRYPT, _DECRYPT = ([getattr(_lib, f"EVP_{mode}{step}")
                           for step in ("Init_ex", "Update", "Final_ex")]
                          for mode in ("Encrypt", "Decrypt"))
except AttributeError as exc:  # pragma: no cover - depends on the build
    raise ImportError(
        f"{_hashlib.__file__} exposes no OpenSSL EVP AES-GCM symbol "
        f"({exc}); repro needs an interpreter whose hashlib links OpenSSL"
    ) from exc

for _fn in (*_gcm, _new):
    _fn.argtypes, _fn.restype = [], c_void_p
_CIPHERS = {16: _gcm[0](), 24: _gcm[1](), 32: _gcm[2]()}
_free.argtypes, _free.restype = [c_void_p], None
_ctrl.argtypes, _ctrl.restype = [c_void_p, c_int, c_int, c_void_p], c_int
for _init, _update, _final in (_ENCRYPT, _DECRYPT):
    _init.restype = _update.restype = _final.restype = c_int
    _init.argtypes = [c_void_p, c_void_p, c_void_p, c_char_p, c_char_p]
    _update.argtypes = [c_void_p, c_void_p, POINTER(c_int), c_char_p, c_int]
    _final.argtypes = [c_void_p, c_void_p, POINTER(c_int)]


def _check(status) -> None:
    if status != 1:
        raise CryptoError("OpenSSL EVP AES-GCM call failed")


class AesGcm:
    """One AES key; :meth:`encrypt` and :meth:`decrypt` are one EVP run each."""

    def __init__(self, key: bytes):
        if len(key) not in _CIPHERS:
            raise CryptoError("AES-GCM key must be 16, 24 or 32 bytes")
        self._key = bytes(key)
        self._cipher = _CIPHERS[len(key)]

    def encrypt(self, nonce: bytes, plaintext: bytes,
                aad: bytes = b"") -> tuple[bytes, bytes]:
        """Returns ``(ciphertext, tag)``."""
        tag = ctypes.create_string_buffer(TAG_SIZE)
        return self._run(True, nonce, aad, plaintext, tag), tag.raw

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes,
                aad: bytes = b"") -> bytes:
        if len(tag) != TAG_SIZE:
            raise CryptoError("AES-GCM tag must be 16 bytes")
        return self._run(False, nonce, aad, ciphertext, tag)

    def _run(self, encrypt: bool, nonce: bytes, aad: bytes, data: bytes,
             tag) -> bytes:
        if len(nonce) != NONCE_SIZE:
            raise CryptoError("AES-GCM nonce must be 12 bytes")
        init, update, final = _ENCRYPT if encrypt else _DECRYPT
        out = ctypes.create_string_buffer(len(data) + TAG_SIZE)
        written = byref(c_int())
        ctx = _new()
        try:
            _check(ctx and init(ctx, self._cipher, None, self._key, nonce))
            _check(update(ctx, None, written, aad, len(aad)))
            _check(update(ctx, out, written, data, len(data)))
            if encrypt:
                _check(final(ctx, out, written))
                _check(_ctrl(ctx, _GCM_GET_TAG, TAG_SIZE, tag))
            else:
                _check(_ctrl(ctx, _GCM_SET_TAG, TAG_SIZE, tag))
                if final(ctx, out, written) != 1:
                    raise IntegrityError("GCM tag verification failed")
            return out.raw[:len(data)]
        finally:
            _free(ctx)
