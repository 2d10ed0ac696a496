"""Block cipher modes: NIST vectors, padding, GCM authentication."""

import pytest
from hypothesis import given, strategies as st

from tests.crypto.reference.aes import AES
from tests.crypto.reference.modes import (
    _GHash,
    _gf128_mul,
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    gcm_decrypt,
    gcm_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
    xor_bytes,
)
from repro.errors import CryptoError, IntegrityError

SP800_38A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


class TestCtr:
    def test_nist_sp800_38a_f51(self):
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        out = ctr_transform(AES(SP800_38A_KEY), counter, plaintext)
        assert out.hex() == "874d6191b620e3261bef6864990db6ce"

    def test_transform_is_involutive(self):
        cipher = AES(bytes(16))
        nonce = bytes(range(16))
        data = b"some plaintext of odd length!"
        once = ctr_transform(cipher, nonce, data)
        assert ctr_transform(cipher, nonce, once) == data

    def test_counter_wraps_at_128_bits(self):
        cipher = AES(bytes(16))
        nonce = b"\xff" * 16
        data = bytes(48)  # forces two counter increments past the wrap
        out = ctr_transform(cipher, nonce, data)
        assert len(out) == 48
        assert ctr_transform(cipher, nonce, out) == data

    def test_rejects_short_nonce(self):
        with pytest.raises(CryptoError):
            ctr_transform(AES(bytes(16)), bytes(12), b"x")


class TestCbc:
    def test_nist_sp800_38a_f21_first_block(self):
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        out = cbc_encrypt(AES(SP800_38A_KEY), iv, plaintext)
        assert out[:16].hex() == "7649abac8119b246cee98e9b12e9197d"

    @given(data=st.binary(max_size=200))
    def test_roundtrip(self, data):
        cipher = AES(b"k" * 16)
        iv = bytes(range(16))
        assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data

    def test_rejects_truncated_ciphertext(self):
        cipher = AES(b"k" * 16)
        iv = bytes(16)
        with pytest.raises(CryptoError):
            cbc_decrypt(cipher, iv, b"short")


class TestPkcs7:
    @given(data=st.binary(max_size=100))
    def test_roundtrip(self, data):
        assert pkcs7_unpad(pkcs7_pad(data)) == data

    @given(data=st.binary(max_size=100))
    def test_padded_length_is_block_multiple(self, data):
        assert len(pkcs7_pad(data)) % 16 == 0

    def test_rejects_bad_padding(self):
        with pytest.raises(CryptoError):
            pkcs7_unpad(bytes(15) + b"\x03")
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"")
        with pytest.raises(CryptoError):
            pkcs7_unpad(bytes(16) + b"\x00" * 15 + b"\x11")


class TestGcm:
    KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    IV = bytes.fromhex("cafebabefacedbaddecaf888")
    PT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    )
    AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")

    def test_nist_test_case_4(self):
        ciphertext, tag = gcm_encrypt(AES(self.KEY), self.IV, self.PT,
                                      self.AAD)
        assert ciphertext.hex() == (
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca1"
            "2e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        )
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_nist_test_case_1_empty(self):
        ciphertext, tag = gcm_encrypt(AES(bytes(16)), bytes(12), b"")
        assert ciphertext == b""
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_decrypt_roundtrip(self):
        cipher = AES(self.KEY)
        ciphertext, tag = gcm_encrypt(cipher, self.IV, self.PT, self.AAD)
        assert gcm_decrypt(cipher, self.IV, ciphertext, tag,
                           self.AAD) == self.PT

    def test_tamper_detection(self):
        cipher = AES(self.KEY)
        ciphertext, tag = gcm_encrypt(cipher, self.IV, self.PT, self.AAD)
        flipped = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
        with pytest.raises(IntegrityError):
            gcm_decrypt(cipher, self.IV, flipped, tag, self.AAD)

    def test_aad_binding(self):
        cipher = AES(self.KEY)
        ciphertext, tag = gcm_encrypt(cipher, self.IV, self.PT, self.AAD)
        with pytest.raises(IntegrityError):
            gcm_decrypt(cipher, self.IV, ciphertext, tag, b"other aad")

    def test_non_96_bit_nonce(self):
        cipher = AES(self.KEY)
        nonce = bytes(range(20))
        ciphertext, tag = gcm_encrypt(cipher, nonce, self.PT)
        assert gcm_decrypt(cipher, nonce, ciphertext, tag) == self.PT

    @given(plaintext=st.binary(max_size=96), aad=st.binary(max_size=32))
    def test_roundtrip_property(self, plaintext, aad):
        cipher = AES(b"z" * 16)
        ciphertext, tag = gcm_encrypt(cipher, bytes(12), plaintext, aad)
        assert gcm_decrypt(cipher, bytes(12), ciphertext, tag,
                           aad) == plaintext


class TestGhash:
    @given(h=st.binary(min_size=16, max_size=16),
           x=st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_table_agrees_with_reference_multiply(self, h, x):
        ghash = _GHash(h)
        assert ghash._mul_h(x) == _gf128_mul(x, int.from_bytes(h, "big"))

    def test_rejects_unaligned_input(self):
        with pytest.raises(CryptoError):
            _GHash(bytes(16)).digest(b"misaligned")


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0", b"\xff\x00") == b"\xf0\xf0"
