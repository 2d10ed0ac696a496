"""Paillier on the factors: the mod-p²/mod-q² kernels against the
textbook mod-n² formulas they replace, integer for integer."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import paillier
from repro.crypto.primitives.random import DeterministicRandom
from repro.errors import CryptoError


PROPERTY_BITS = (256, 512)


@functools.lru_cache(maxsize=None)
def keypair(bits):
    return paillier.generate_keypair(
        bits, DeterministicRandom(f"paillier-crt/{bits}").randbelow
    )


@pytest.fixture(scope="module", params=PROPERTY_BITS)
def key(request):
    return keypair(request.param)


def textbook_decrypt(private, ciphertext):
    """Paillier'99 §4: ``L(c^λ mod n²)·μ mod n``, signed."""
    public = private.public
    u = pow(ciphertext.value, private.lam, public.n_squared)
    return paillier._unembed_signed(
        public, (u - 1) // public.n * private.mu % public.n
    )


class ReplayCoins:
    """``randbelow`` that replays a script: the cold ``r₀``, then the
    given exponents ``k`` (as ``k - 1``, undoing the ``+ 1``)."""

    def __init__(self, r0, exponents):
        self._script = [r0 - 1] + [k - 1 for k in exponents]

    def randbelow(self, upper):
        value = self._script.pop(0)
        assert 0 <= value < upper
        return value


def fixed_base(private, exponents, r0=0x1234567):
    fixed = paillier.FixedBaseObfuscator(
        private, ReplayCoins(r0, exponents).randbelow
    )
    beta = pow(r0, private.public.n, private.public.n_squared)
    return fixed, beta


class TestMaskBitIdentity:
    """CRT(β^(k mod p-1) mod p², β^(k mod q-1) mod q²) == β^k mod n²."""

    def test_edge_exponents(self, key):
        n = key.public.n
        exponents = [1, key.p - 1, key.q - 1, n - 1, key.p, key.q,
                     (key.p - 1) * (key.q - 1)]
        fixed, beta = fixed_base(key, exponents)
        for k in exponents:
            assert fixed.mask() == pow(beta, k, key.public.n_squared)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_exponents(self, data):
        key = keypair(data.draw(st.sampled_from(PROPERTY_BITS)))
        k = data.draw(st.integers(1, key.public.n - 1))
        r0 = data.draw(st.integers(2, 2 ** 64))
        fixed, beta = fixed_base(key, [k], r0)
        assert fixed.mask() == pow(beta, k, key.public.n_squared)

    def test_1024_bit_key(self):
        key = keypair(1024)
        coins = DeterministicRandom(b"paillier-crt/1024/masks")
        exponents = [coins.randbelow(key.public.n - 1) + 1
                     for _ in range(3)]
        fixed, beta = fixed_base(key, exponents)
        for k in exponents:
            mask = fixed.mask()
            assert mask == pow(beta, k, key.public.n_squared)
            ciphertext = paillier.encrypt_with_mask(key.public, -k % 997,
                                                    mask)
            assert paillier.decrypt(key, ciphertext) == -k % 997
            assert textbook_decrypt(key, ciphertext) == -k % 997


class TestUniformMask:
    """The key holder's mask — r^(n mod p(p−1)) mod p² and
    r^(n mod q(q−1)) mod q², recombined — is ``pow(r, n, n²)`` for the
    same ``r``, so the default path's ciphertexts are those of the
    public-key formula."""

    def test_edge_units(self, key):
        n = key.public.n
        for r in (1, 2, key.p - 1, key.q + 1, n - 1):
            assert paillier.mask(key, ReplayCoins(r, []).randbelow) == pow(
                r, n, key.public.n_squared
            )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_units(self, data):
        key = keypair(data.draw(st.sampled_from(PROPERTY_BITS)))
        r = data.draw(st.integers(1, key.public.n - 1))
        assert paillier.mask(key, ReplayCoins(r, []).randbelow) \
            == paillier.obfuscator(key.public, ReplayCoins(r, []).randbelow)

    def test_1024_bit_key(self):
        key = keypair(1024)
        coins = DeterministicRandom(b"paillier-crt/1024/uniform")
        for _ in range(3):
            r = coins.randbelow(key.public.n - 1) + 1
            assert paillier.mask(key, ReplayCoins(r, []).randbelow) == pow(
                r, key.public.n, key.public.n_squared
            )


class TestDecryptEquivalence:
    """§7 decryption returns what the textbook formula returns."""

    def both(self, key, ciphertext):
        value = paillier.decrypt(key, ciphertext)
        assert value == textbook_decrypt(key, ciphertext)
        return value

    def test_zero_and_capacity_bounds(self, key):
        bound = key.public.max_plaintext
        for message in (0, 1, -1, bound, -bound, bound - 1, 1 - bound):
            ciphertext = paillier.encrypt(key.public, message)
            assert self.both(key, ciphertext) == message

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_signed_values(self, data):
        key = keypair(data.draw(st.sampled_from(PROPERTY_BITS)))
        bound = key.public.max_plaintext
        message = data.draw(st.integers(-bound, bound))
        assert self.both(
            key, paillier.encrypt(key.public, message)
        ) == message

    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(-10**12, 10**12), b=st.integers(-10**12, 10**12),
           scalar=st.integers(-10**6, 10**6))
    def test_homomorphic_results(self, a, b, scalar):
        key = keypair(256)
        ea = paillier.encrypt(key.public, a)
        eb = paillier.encrypt(key.public, b)
        assert self.both(key, ea + eb) == a + b
        assert self.both(key, ea * scalar) == a * scalar
        assert self.both(key, ea.add_plain(b)) == a + b
        assert self.both(key, ea.add_plain(-b)) == a - b

    def test_non_unit_takes_the_textbook_branch(self, key):
        # c = p is no honest ciphertext and no unit of Z_{n²}: the §7
        # decomposition does not apply, so the result is by definition
        # whatever the textbook formula yields.
        for value in (key.p, key.q, key.p * key.q, 0):
            bogus = paillier.Ciphertext(key.public, value)
            assert paillier.decrypt(key, bogus) == textbook_decrypt(
                key, bogus
            )

    def test_wrong_key_still_rejected(self, key):
        other = keypair(128)
        with pytest.raises(CryptoError):
            paillier.decrypt(key, paillier.encrypt(other.public, 5))
        with pytest.raises(CryptoError):
            paillier.encrypt(key.public, 1) + paillier.encrypt(
                other.public, 1
            )

    def test_capacity_is_unchanged(self, key):
        # Decrypting from one prime alone would shrink the plaintext
        # space to p; the recombined result keeps all of Z_n.
        assert key.public.max_plaintext == (key.public.n - 1) // 3
        assert key.public.max_plaintext > max(key.p, key.q)

    def test_per_key_constants(self, key):
        crt = key.crt
        assert crt is key.crt  # derived once, cached on the key
        assert crt.p_squared == key.p ** 2
        assert crt.q_squared == key.q ** 2
        assert crt.p_inv_q * key.p % key.q == 1
        assert (crt.p_squared_inv_q_squared * crt.p_squared
                % crt.q_squared) == 1
        # With g = n + 1, L_p(g^(p-1) mod p²) = (p-1)·q mod p = -q.
        assert crt.h_p * -key.q % key.p == 1
        assert crt.h_q * -key.p % key.q == 1


class TestFixedBaseEncrypt:
    def test_round_trips_and_stays_probabilistic(self, key):
        fixed = paillier.FixedBaseObfuscator(key)
        for message in (0, 42, -17, key.public.max_plaintext):
            assert paillier.decrypt(key, fixed.encrypt(message)) == message
        assert len({fixed.encrypt(5).value for _ in range(6)}) == 6
