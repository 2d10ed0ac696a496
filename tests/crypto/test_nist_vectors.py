"""Extended NIST test-vector coverage.

The basic vectors live next to each primitive's tests; this module adds
the longer multi-block series from NIST SP 800-38A (CBC, CTR over four
blocks) and the GCM specification's 192/256-bit-key test cases, pinning
the key-schedule paths the short vectors miss.
"""

import pytest

from tests.crypto.reference.aes import AES
from tests.crypto.reference.modes import (
    cbc_encrypt,
    ctr_transform,
    gcm_decrypt,
    gcm_encrypt,
)

KEY128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
KEY192 = bytes.fromhex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b")
KEY256 = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
)

# Four-block plaintext of SP 800-38A.
PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


class TestSp800_38aCtr:
    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")

    @pytest.mark.parametrize("key,expected", [
        (KEY128,
         "874d6191b620e3261bef6864990db6ce"
         "9806f66b7970fdff8617187bb9fffdff"
         "5ae4df3edbd5d35e5b4f09020db03eab"
         "1e031dda2fbe03d1792170a0f3009cee"),
        (KEY192,
         "1abc932417521ca24f2b0459fe7e6e0b"
         "090339ec0aa6faefd5ccc2c6f4ce8e94"
         "1e36b26bd1ebc670d1bd1d665620abf7"
         "4f78a7f6d29809585a97daec58c6b050"),
        (KEY256,
         "601ec313775789a5b7a7f504bbf3d228"
         "f443e3ca4d62b59aca84e990cacaf5c5"
         "2b0930daa23de94ce87017ba2d84988d"
         "dfc9c58db67aada613c2dd08457941a6"),
    ])
    def test_ctr_four_blocks(self, key, expected):
        out = ctr_transform(AES(key), self.COUNTER, PLAINTEXT)
        assert out.hex() == expected


class TestSp800_38aCbc:
    IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

    @pytest.mark.parametrize("key,expected", [
        (KEY128,
         "7649abac8119b246cee98e9b12e9197d"
         "5086cb9b507219ee95db113a917678b2"
         "73bed6b8e3c1743b7116e69e22229516"
         "3ff1caa1681fac09120eca307586e1a7"),
        (KEY256,
         "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
         "9cfc4e967edb808d679f777bc6702c7d"
         "39f23369a9d9bacfa530e26304231461"
         "b2eb05e2c39be9fcda6c19078c6a9d1b"),
    ])
    def test_cbc_four_blocks(self, key, expected):
        # Our cbc_encrypt pads; compare the first four blocks only.
        out = cbc_encrypt(AES(key), self.IV, PLAINTEXT)
        assert out[:64].hex() == expected


class TestGcmLongerKeys:
    """GCM spec test cases 7/8 (192-bit) and 13/14/15 (256-bit)."""

    def test_case_7_empty_192(self):
        ciphertext, tag = gcm_encrypt(AES(bytes(24)), bytes(12), b"")
        assert ciphertext == b""
        assert tag.hex() == "cd33b28ac773f74ba00ed1f312572435"

    def test_case_8_single_block_192(self):
        ciphertext, tag = gcm_encrypt(AES(bytes(24)), bytes(12), bytes(16))
        assert ciphertext.hex() == "98e7247c07f0fe411c267e4384b0f600"
        assert tag.hex() == "2ff58d80033927ab8ef4d4587514f0fb"

    def test_case_13_empty_256(self):
        ciphertext, tag = gcm_encrypt(AES(bytes(32)), bytes(12), b"")
        assert ciphertext == b""
        assert tag.hex() == "530f8afbc74536b9a963b4f1c4cb738b"

    def test_case_14_single_block_256(self):
        ciphertext, tag = gcm_encrypt(AES(bytes(32)), bytes(12), bytes(16))
        assert ciphertext.hex() == "cea7403d4d606b6e074ec5d3baf39d18"
        assert tag.hex() == "d0d1c8a799996bf0265b98b5d48ab919"

    def test_case_15_full_message_256(self):
        key = bytes.fromhex(
            "feffe9928665731c6d6a8f9467308308"
            "feffe9928665731c6d6a8f9467308308"
        )
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        plaintext = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b391aafd255"
        )
        ciphertext, tag = gcm_encrypt(AES(key), iv, plaintext)
        assert ciphertext.hex() == (
            "522dc1f099567d07f47f37a32a84427d"
            "643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838"
            "c5f61e6393ba7a0abcc9f662898015ad"
        )
        assert tag.hex() == "b094dac5d93471bdec1a502270e3cc6c"
        assert gcm_decrypt(AES(key), iv, ciphertext, tag) == plaintext
