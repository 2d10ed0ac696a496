"""AEAD and deterministic (SIV-style) envelopes."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.primitives.gcm import AesGcm
from repro.crypto.primitives.hmac_prf import hkdf
from repro.crypto.primitives.random import DeterministicRandom
from repro.crypto.symmetric import (
    Aead,
    Deterministic,
    SealedBox,
    open_value,
    seal_value,
)
from repro.errors import CryptoError, IntegrityError


class TestAead:
    @given(plaintext=st.binary(max_size=120), aad=st.binary(max_size=20))
    def test_roundtrip(self, plaintext, aad):
        envelope = Aead(b"k" * 16)
        assert envelope.decrypt(envelope.encrypt(plaintext, aad),
                                aad) == plaintext

    def test_probabilistic(self):
        envelope = Aead(b"k" * 16)
        assert envelope.encrypt(b"same") != envelope.encrypt(b"same")

    def test_tamper_detection(self):
        envelope = Aead(b"k" * 16)
        sealed = bytearray(envelope.encrypt(b"payload"))
        sealed[-1] ^= 1
        with pytest.raises(IntegrityError):
            envelope.decrypt(bytes(sealed))

    def test_aad_binding(self):
        envelope = Aead(b"k" * 16)
        sealed = envelope.encrypt(b"payload", aad=b"context-1")
        with pytest.raises(IntegrityError):
            envelope.decrypt(sealed, aad=b"context-2")

    def test_key_separation(self):
        sealed = Aead(b"1" * 16).encrypt(b"payload")
        with pytest.raises(IntegrityError):
            Aead(b"2" * 16).decrypt(sealed)

    def test_deterministic_rng_reproduces_ciphertexts(self):
        e1 = Aead(b"k" * 16, rng=DeterministicRandom(b"s"))
        e2 = Aead(b"k" * 16, rng=DeterministicRandom(b"s"))
        assert e1.encrypt(b"m") == e2.encrypt(b"m")

    def test_rejects_bad_key(self):
        with pytest.raises(CryptoError):
            Aead(b"short")


class TestDeterministic:
    @given(plaintext=st.binary(max_size=120))
    def test_roundtrip(self, plaintext):
        envelope = Deterministic(b"k" * 16)
        assert envelope.decrypt(envelope.encrypt(plaintext)) == plaintext

    @given(plaintext=st.binary(max_size=60))
    def test_equal_plaintexts_equal_ciphertexts(self, plaintext):
        envelope = Deterministic(b"k" * 16)
        assert envelope.encrypt(plaintext) == envelope.encrypt(plaintext)

    def test_distinct_plaintexts_distinct_ciphertexts(self):
        envelope = Deterministic(b"k" * 16)
        assert envelope.encrypt(b"a") != envelope.encrypt(b"b")

    def test_aad_changes_ciphertext(self):
        envelope = Deterministic(b"k" * 16)
        assert envelope.encrypt(b"v", b"f1") != envelope.encrypt(b"v", b"f2")

    def test_token_equals_encrypt(self):
        envelope = Deterministic(b"k" * 16)
        assert envelope.token(b"v") == envelope.encrypt(b"v")

    def test_tamper_detection(self):
        envelope = Deterministic(b"k" * 16)
        sealed = bytearray(envelope.encrypt(b"payload"))
        sealed[14] ^= 0xFF
        with pytest.raises((IntegrityError, CryptoError)):
            envelope.decrypt(bytes(sealed))

    def test_rejects_short_key(self):
        with pytest.raises(CryptoError):
            Deterministic(b"tiny")

    def test_rejects_foreign_nonce(self):
        # A box that authenticates under the DET encryption key but whose
        # nonce is not the PRF of its plaintext was not made by encrypt().
        key, plaintext = b"k" * 16, b"payload"
        nonce = bytes(12)
        ciphertext, tag = AesGcm(hkdf(key, b"det-enc", 16)).encrypt(
            nonce, plaintext)
        with pytest.raises(CryptoError,
                           match="^deterministic nonce mismatch$"):
            Deterministic(key).decrypt(nonce + ciphertext + tag)


class TestSealedBox:
    def test_roundtrip(self):
        box = SealedBox(bytes(12), b"ciphertext", bytes(16))
        assert SealedBox.from_bytes(box.to_bytes()) == box

    def test_rejects_short_blob(self):
        with pytest.raises(CryptoError):
            SealedBox.from_bytes(bytes(10))


class TestValueSealing:
    @pytest.mark.parametrize("value", [None, True, False, 0, -17, 3.25,
                                       "text", b"bytes"])
    def test_value_roundtrip_aead(self, value):
        envelope = Aead(b"k" * 16)
        assert open_value(envelope, seal_value(envelope, value)) == value

    @pytest.mark.parametrize("value", [42, "final", 6.3])
    def test_value_roundtrip_deterministic(self, value):
        envelope = Deterministic(b"k" * 16)
        assert open_value(envelope, seal_value(envelope, value)) == value
