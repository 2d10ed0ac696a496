"""Obfuscator masks for Paillier encryption."""

import pytest

from repro.crypto import paillier
from repro.crypto.primitives.random import DeterministicRandom

PAILLIER_BITS = 256


@pytest.fixture(scope="module")
def key():
    return paillier.generate_keypair(
        PAILLIER_BITS, DeterministicRandom(b"paillier-pool").randbelow
    )


class TestObfuscator:
    def test_mask_is_in_group(self, key):
        mask = paillier.obfuscator(key.public)
        assert 0 < mask < key.public.n_squared

    def test_encrypt_with_mask_matches_encrypt(self, key):
        # encrypt() is defined as encrypt_with_mask over a fresh mask;
        # a precomputed mask must decrypt identically.
        mask = paillier.obfuscator(key.public)
        ciphertext = paillier.encrypt_with_mask(key.public, 1234, mask)
        assert paillier.decrypt(key, ciphertext) == 1234

    def test_masked_encryption_stays_homomorphic(self, key):
        ea = paillier.encrypt_with_mask(
            key.public, 30, paillier.obfuscator(key.public)
        )
        eb = paillier.encrypt_with_mask(
            key.public, 12, paillier.obfuscator(key.public)
        )
        assert paillier.decrypt(key, ea + eb) == 42
