"""Cryptographic substrate of the DataBlinder reproduction.

Everything the paper's prototype obtained from Bouncy Castle, Javallier
and the Clusion building blocks is implemented here from scratch, except
the two primitives the interpreter's own OpenSSL already provides: AES-GCM
and HMAC-SHA256.

* :mod:`repro.crypto.primitives` -- AES-GCM (OpenSSL EVP through
  ``ctypes``, :mod:`~repro.crypto.primitives.gcm`), HMAC-SHA256 PRF, HKDF
  (stdlib :mod:`hmac`), prime generation and modular arithmetic.
* :mod:`repro.crypto.symmetric` -- AEAD (RND) and SIV-deterministic (DET)
  envelopes.
* :mod:`repro.crypto.rsa` -- RSA-OAEP and the raw trapdoor permutation
  (Sophos).
* :mod:`repro.crypto.paillier` -- additively homomorphic encryption
  (sum/average aggregates).
* :mod:`repro.crypto.elgamal` -- multiplicatively homomorphic encryption
  (extension tactic).
* :mod:`repro.crypto.ope` / :mod:`repro.crypto.ore` -- order-preserving /
  order-revealing encryption (range queries).
"""

from repro.crypto.encoding import (
    decode_value,
    encode_value,
    value_to_ordered_int,
)
from repro.crypto.symmetric import Aead, Deterministic, open_value, seal_value

__all__ = [
    "Aead",
    "Deterministic",
    "decode_value",
    "encode_value",
    "open_value",
    "seal_value",
    "value_to_ordered_int",
]
