"""The OpenSSL modexp substrate against the builtin ``pow``.

``repro.crypto.primitives.bignum.powmod`` runs every secret-exponent
exponentiation on ``BN_mod_exp_mont_consttime``.  It must return the
integer ``pow`` returns — keys derived from seeded coins and ciphertexts
under replayed coins depend on it — and it must refuse what the
Montgomery ladder cannot take instead of falling back.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import elgamal, oprf, paillier, rsa
from repro.crypto.primitives import numbers
from repro.crypto.primitives.bignum import powmod
from repro.crypto.primitives.random import DeterministicRandom
from repro.errors import CryptoError

#: Every module that imports ``powmod`` by name.
CALLERS = (paillier, elgamal, rsa, oprf, numbers)


@st.composite
def operands(draw):
    bits = draw(st.integers(2, 4096))
    modulus = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    exponent = draw(st.integers(0, 2 * bits).flatmap(
        lambda width: st.integers(0, (1 << width) - 1)))
    base = draw(st.one_of(
        st.sampled_from([0, 1, modulus - 1, modulus, modulus + 1]),
        st.integers(0, modulus - 1),
        st.integers(modulus, modulus << 64),
        st.integers(-(modulus << 8), -1),
    ))
    return base, exponent, modulus


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(operands())
    def test_matches_builtin_pow(self, args):
        assert powmod(*args) == pow(*args)

    @pytest.mark.parametrize("modulus", [3, 5, 2**61 - 1, 2**127 - 1])
    def test_edge_exponents(self, modulus):
        for base in (0, 1, 2, modulus - 1, modulus, -1, -modulus - 2):
            for exponent in (0, 1, 2, modulus - 1, modulus, 2**200 + 1):
                assert powmod(base, exponent, modulus) == pow(
                    base, exponent, modulus)


class TestRefusals:
    @pytest.mark.parametrize("modulus", [2, 4, 2**64, 2**1024 + 2])
    def test_even_modulus(self, modulus):
        with pytest.raises(CryptoError):
            powmod(3, 5, modulus)

    @pytest.mark.parametrize("modulus", [1, 0, -1, -7])
    def test_modulus_at_most_one(self, modulus):
        with pytest.raises(CryptoError):
            powmod(3, 5, modulus)

    @pytest.mark.parametrize("exponent", [-1, -2**100])
    def test_negative_exponent(self, exponent):
        # pow would invert the base; powmod never falls back to it.
        with pytest.raises(CryptoError):
            powmod(3, exponent, 101)


def test_concurrent_calls_agree():
    """8 threads × 300 calls: one ``BN_CTX`` per call, no shared state."""
    coins = DeterministicRandom(b"powmod/threads")
    cases = []
    for _ in range(64):
        modulus = coins.randbelow(1 << 1024) | (1 << 1023) | 1
        args = (coins.randbelow(modulus), coins.randbelow(1 << 512),
                modulus)
        cases.append((args, pow(*args)))
    failures = []

    def worker(offset):
        for i in range(300):
            args, expected = cases[(offset * 37 + i) % len(cases)]
            if powmod(*args) != expected:
                failures.append((offset, i))

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []


def derived(seed):
    """Keys from seeded coins, plus one operation under each key."""
    coins = DeterministicRandom(seed).randbelow
    paillier_key = paillier.generate_keypair(1024, coins)
    rsa_key = rsa.generate_keypair(1024, coins)
    elgamal_key = elgamal.generate_keypair(256, coins)
    group = oprf.generate_group(256, coins)
    oprf_key = oprf.generate_key(group, DeterministicRandom(seed))
    client = oprf.OprfClient(group, DeterministicRandom(seed))
    state, blinded = client.blind(b"value")
    mask = paillier.FixedBaseObfuscator(paillier_key, coins).mask()
    ciphertext = paillier.encrypt_with_mask(paillier_key.public, -7, mask)
    elgamal_ct = elgamal.encrypt(elgamal_key.public, 5, coins)
    return (
        paillier_key, paillier_key.crt, mask,
        paillier.decrypt(paillier_key, ciphertext),
        rsa_key, rsa_key.invert(12345),
        elgamal_key, elgamal_ct, elgamal.decrypt(elgamal_key, elgamal_ct),
        group, blinded,
        client.finalize(b"value", state,
                        oprf.evaluate_blinded(group, oprf_key, blinded)),
        oprf.unblinded_evaluate(group, oprf_key, b"value"),
    )


def test_keys_and_ciphertexts_are_bit_identical(monkeypatch):
    native = derived(b"powmod/keys")
    for module in CALLERS:
        monkeypatch.setattr(module, "powmod", pow)
    assert derived(b"powmod/keys") == native
