"""Secret-exponent modular exponentiation on OpenSSL's BIGNUM.

The paper's prototype takes Paillier from Javallier, i.e. Java's
``BigInteger.modPow``; here every exponentiation whose *exponent* is a
secret (a key, a factor-derived exponent, blinding coins, a
Miller–Rabin witness run) is ``BN_mod_exp_mont_consttime`` on the
``libcrypto`` handle :mod:`repro.crypto.primitives.gcm` opened.  Public
exponents and squarings stay on the builtin :func:`pow`.

Only odd moduli above 1 and non-negative exponents are accepted; any
other input, a failed allocation or a failed BN call raises
:class:`CryptoError` — there is no fallback.  Each call owns its
``BN_CTX`` and operands and clears them before freeing, so calls may
run on several threads at once (ctypes releases the GIL during each
BN call).  Outputs are the integers :func:`pow` returns.
"""

from __future__ import annotations

from ctypes import c_char_p, c_int, c_void_p, create_string_buffer

from repro.crypto.primitives.gcm import libcrypto
from repro.errors import CryptoError

_ctx_new, _ctx_free, _new, _clear_free, _bin2bn, _bn2binpad, _exp = (
    libcrypto(*("BN_" + name for name in (
        "CTX_new", "CTX_free", "new", "clear_free", "bin2bn", "bn2binpad",
        "mod_exp_mont_consttime"))))
_ctx_new.argtypes, _ctx_new.restype = [], c_void_p
_new.argtypes, _new.restype = [], c_void_p
_ctx_free.argtypes, _ctx_free.restype = [c_void_p], None
_clear_free.argtypes, _clear_free.restype = [c_void_p], None
_bin2bn.argtypes, _bin2bn.restype = [c_char_p, c_int, c_void_p], c_void_p
_bn2binpad.argtypes, _bn2binpad.restype = [c_void_p, c_void_p, c_int], c_int
_exp.argtypes = [c_void_p, c_void_p, c_void_p, c_void_p, c_void_p, c_void_p]
_exp.restype = c_int


def _to_bn(value: int):
    data = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return _bin2bn(data, len(data), None)


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` in constant-time Montgomery form.

    >>> powmod(3, 123456, 1000003) == pow(3, 123456, 1000003)
    True
    """
    if modulus <= 1 or not modulus & 1:
        raise CryptoError("powmod needs an odd modulus above 1")
    if exponent < 0:
        raise CryptoError("powmod needs a non-negative exponent")
    size = (modulus.bit_length() + 7) // 8
    ctx = result = None
    operands: list = []
    try:
        ctx, result = _ctx_new(), _new()
        operands = [_to_bn(v) for v in (base % modulus, exponent, modulus)]
        if not (ctx and result and all(operands)):
            raise CryptoError("OpenSSL BIGNUM allocation failed")
        if _exp(result, *operands, ctx, None) != 1:
            raise CryptoError("OpenSSL BN_mod_exp_mont_consttime failed")
        out = create_string_buffer(size)
        if _bn2binpad(result, out, size) != size:
            raise CryptoError("OpenSSL BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in (result, *operands):
            _clear_free(bn)
        _ctx_free(ctx)
