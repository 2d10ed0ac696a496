"""The OpenSSL AES-GCM path against the pure-Python reference.

``repro.crypto.primitives.gcm`` replaces the from-scratch T-table AES and
GHASH that now live in ``tests/crypto/reference``.  GCM is a standard, so
every ciphertext, tag and DET token must stay byte-identical: the cloud
state and every pinned fingerprint depend on it.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primitives.gcm import AesGcm
from repro.crypto.primitives.hmac_prf import hkdf, prf
from repro.crypto.primitives.random import DeterministicRandom
from repro.crypto.symmetric import Aead, Deterministic
from repro.errors import CryptoError, IntegrityError
from tests.crypto.reference.aes import AES
from tests.crypto.reference.modes import gcm_decrypt, gcm_encrypt

keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size))
payloads = st.binary(max_size=300)
aads = st.binary(max_size=40)


class TestDifferential:
    @settings(max_examples=150)
    @given(key=keys, nonce=st.binary(min_size=12, max_size=12),
           plaintext=payloads, aad=aads)
    def test_native_decrypt_opens_reference_boxes(self, key, nonce,
                                                  plaintext, aad):
        ciphertext, tag = gcm_encrypt(AES(key), nonce, plaintext, aad)
        assert Aead(key).decrypt(nonce + ciphertext + tag, aad) == plaintext

    @settings(max_examples=150)
    @given(key=keys, seed=st.binary(min_size=1, max_size=8),
           plaintext=payloads, aad=aads)
    def test_reference_opens_native_boxes_byte_for_byte(self, key, seed,
                                                        plaintext, aad):
        sealed = Aead(key, rng=DeterministicRandom(seed)).encrypt(plaintext,
                                                                  aad)
        nonce, ciphertext, tag = sealed[:12], sealed[12:-16], sealed[-16:]
        assert (ciphertext, tag) == gcm_encrypt(AES(key), nonce, plaintext,
                                                aad)
        assert gcm_decrypt(AES(key), nonce, ciphertext, tag,
                           aad) == plaintext

    @settings(max_examples=150)
    @given(key=keys, plaintext=payloads, aad=aads)
    def test_deterministic_tokens_are_unchanged(self, key, plaintext, aad):
        nonce = prf(hkdf(key, b"det-mac", 32), aad, plaintext)[:12]
        ciphertext, tag = gcm_encrypt(AES(hkdf(key, b"det-enc", 16)), nonce,
                                      plaintext, aad)
        envelope = Deterministic(key)
        assert envelope.encrypt(plaintext, aad) == nonce + ciphertext + tag
        assert envelope.decrypt(nonce + ciphertext + tag, aad) == plaintext


K1 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
P64 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")
AAD4 = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")

# (case, key, iv, plaintext, aad, ciphertext hex, tag hex) from the GCM
# specification (McGrew & Viega), appendix B.
SPEC_CASES = [
    (1, bytes(16), bytes(12), b"", b"", "",
     "58e2fccefa7e3061367f1d57a4e7455a"),
    (4, K1, IV, P64[:60], AAD4,
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"),
    (7, bytes(24), bytes(12), b"", b"", "",
     "cd33b28ac773f74ba00ed1f312572435"),
    (8, bytes(24), bytes(12), bytes(16), b"",
     "98e7247c07f0fe411c267e4384b0f600", "2ff58d80033927ab8ef4d4587514f0fb"),
    (13, bytes(32), bytes(12), b"", b"", "",
     "530f8afbc74536b9a963b4f1c4cb738b"),
    (14, bytes(32), bytes(12), bytes(16), b"",
     "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919"),
    (15, K1 + K1, IV, P64, b"",
     "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
     "b094dac5d93471bdec1a502270e3cc6c"),
]


@pytest.mark.parametrize("case,key,iv,plaintext,aad,ct_hex,tag_hex",
                         SPEC_CASES, ids=[f"case{c[0]}" for c in SPEC_CASES])
def test_gcm_spec_vectors(case, key, iv, plaintext, aad, ct_hex, tag_hex):
    ciphertext, tag = AesGcm(key).encrypt(iv, plaintext, aad)
    assert (ciphertext.hex(), tag.hex()) == (ct_hex, tag_hex)
    assert Aead(key).decrypt(iv + ciphertext + tag, aad) == plaintext


class TestRejections:
    KEY = b"k" * 16

    def sealed(self):
        return bytearray(Aead(self.KEY).encrypt(b"payload", b"context"))

    @pytest.mark.parametrize("index", [-1, 12, 0], ids=["tag", "ciphertext",
                                                         "nonce"])
    def test_tampered_box(self, index):
        box = self.sealed()
        box[index] ^= 1
        with pytest.raises(IntegrityError):
            Aead(self.KEY).decrypt(bytes(box), b"context")

    def test_tampered_aad(self):
        with pytest.raises(IntegrityError):
            Aead(self.KEY).decrypt(bytes(self.sealed()), b"contexT")

    def test_wrong_key(self):
        with pytest.raises(IntegrityError):
            Aead(b"K" * 16).decrypt(bytes(self.sealed()), b"context")

    def test_short_box(self):
        with pytest.raises(CryptoError):
            Aead(self.KEY).decrypt(bytes(27))

    @pytest.mark.parametrize("size", [0, 8, 15, 17, 31, 33, 64])
    def test_bad_key_length(self, size):
        with pytest.raises(CryptoError):
            Aead(bytes(size))
        with pytest.raises(CryptoError):
            AesGcm(bytes(size))

    def test_only_96_bit_nonces_and_128_bit_tags(self):
        cipher = AesGcm(self.KEY)
        ciphertext, tag = cipher.encrypt(bytes(12), b"m")
        with pytest.raises(CryptoError):
            cipher.encrypt(bytes(16), b"m")
        with pytest.raises(CryptoError):
            cipher.decrypt(bytes(8), ciphertext, tag)
        with pytest.raises(CryptoError):
            cipher.decrypt(bytes(12), ciphertext, tag[:12])


def test_threads_round_trip_on_distinct_keys():
    threads, rounds = 8, 500
    expected = [[Deterministic(bytes([t + 1]) * 32).encrypt(b"%d" % i)
                 for i in range(rounds)] for t in range(threads)]
    failures = []

    def worker(t):
        aead = Aead(bytes([t + 1]) * 16)
        det = Deterministic(bytes([t + 1]) * 32)
        for i in range(rounds):
            payload, aad = b"%d:%d" % (t, i) * (i % 7), b"%d" % t
            try:
                if (aead.decrypt(aead.encrypt(payload, aad), aad) != payload
                        or det.encrypt(b"%d" % i) != expected[t][i]):
                    failures.append((t, i))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append((t, i, exc))

    pool = [threading.Thread(target=worker, args=(t,))
            for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []
