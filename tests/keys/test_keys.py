"""Key management: simulated HSM and the per-application keystore."""

import pytest

from repro.errors import KeyManagementError
from repro.keys.hsm import SimulatedHsm
from repro.keys.keystore import KeyStore


class TestHsm:
    def test_master_key_lifecycle(self):
        hsm = SimulatedHsm()
        hsm.create_master_key("m")
        assert hsm.has_master_key("m")
        hsm.destroy_master_key("m")
        assert not hsm.has_master_key("m")

    def test_duplicate_master_rejected(self):
        hsm = SimulatedHsm()
        hsm.create_master_key("m")
        with pytest.raises(KeyManagementError):
            hsm.create_master_key("m")

    def test_destroy_unknown_rejected(self):
        with pytest.raises(KeyManagementError):
            SimulatedHsm().destroy_master_key("nope")

    def test_wrap_unwrap(self):
        hsm = SimulatedHsm()
        hsm.create_master_key("m")
        key, wrapped = hsm.generate_wrapped_key("m", 32, context=b"ctx")
        assert len(key) == 32
        assert hsm.unwrap("m", wrapped, context=b"ctx") == key

    def test_unwrap_wrong_context_fails(self):
        hsm = SimulatedHsm()
        hsm.create_master_key("m")
        _, wrapped = hsm.generate_wrapped_key("m", context=b"a")
        with pytest.raises(KeyManagementError):
            hsm.unwrap("m", wrapped, context=b"b")

    def test_unwrap_wrong_master_fails(self):
        hsm = SimulatedHsm()
        hsm.create_master_key("m1")
        hsm.create_master_key("m2")
        _, wrapped = hsm.generate_wrapped_key("m1")
        with pytest.raises(KeyManagementError):
            hsm.unwrap("m2", wrapped)

    def test_short_data_key_rejected(self):
        hsm = SimulatedHsm()
        hsm.create_master_key("m")
        with pytest.raises(KeyManagementError):
            hsm.generate_wrapped_key("m", length=8)

    def test_wrap_requires_master(self):
        with pytest.raises(KeyManagementError):
            SimulatedHsm().wrap("nope", b"k" * 16)

    def test_counters_are_monotonic_and_per_label(self):
        hsm = SimulatedHsm()
        assert hsm.read("writes/a") == 0
        assert [hsm.advance("writes/a") for _ in range(3)] == [1, 2, 3]
        assert hsm.read("writes/a") == 3
        assert hsm.read("writes/b") == 0

    def test_counter_is_shared_by_every_holder(self):
        """Two keystores over one HSM — two gateways — see one counter."""
        hsm = SimulatedHsm()
        a, b = KeyStore("app", hsm), KeyStore("app", hsm)
        a.hsm.advance("writes/app")
        assert b.hsm.read("writes/app") == 1

    def test_concurrent_advances_are_never_lost(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        hsm = SimulatedHsm()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                values = list(pool.map(lambda _: hsm.advance("c"),
                                       range(2000), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(values) == list(range(1, 2001))
        assert hsm.read("c") == 2000


class TestKeyStore:
    def test_derivation_is_deterministic(self):
        store = KeyStore("app")
        assert store.derive("f", "det") == store.derive("f", "det")

    def test_namespace_separation(self):
        store = KeyStore("app")
        keys = {
            store.derive("f1", "det"),
            store.derive("f2", "det"),
            store.derive("f1", "rnd"),
            store.derive("f1", "det", "other-purpose"),
        }
        assert len(keys) == 4

    def test_applications_are_isolated(self):
        hsm = SimulatedHsm()
        a = KeyStore("app-a", hsm)
        b = KeyStore("app-b", hsm)
        assert a.derive("f", "det") != b.derive("f", "det")

    def test_custom_length(self):
        assert len(KeyStore("app").derive("f", "t", length=16)) == 16

    def test_paillier_keypair_cached(self):
        store = KeyStore("app")
        k1 = store.paillier_keypair("value", bits=128)
        k2 = store.paillier_keypair("value", bits=128)
        assert k1 is k2
        k3 = store.paillier_keypair("other", bits=128)
        assert k3 is not k1

    def test_rsa_keypair_cached(self):
        store = KeyStore("app")
        assert store.rsa_keypair("f", bits=512) is store.rsa_keypair(
            "f", bits=512
        )

    def test_elgamal_keypair_cached(self):
        store = KeyStore("app")
        assert store.elgamal_keypair("f", bits=64) is store.elgamal_keypair(
            "f", bits=64
        )

    def test_rotation_changes_derived_keys(self):
        store = KeyStore("app")
        before = store.derive("f", "det")
        keypair_before = store.paillier_keypair("f", bits=128)
        store.rotate_root()
        assert store.derive("f", "det") != before
        assert store.paillier_keypair("f", bits=128) is not keypair_before

    def test_requires_application_name(self):
        with pytest.raises(KeyManagementError):
            KeyStore("")
