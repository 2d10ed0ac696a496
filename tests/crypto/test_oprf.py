"""DH-OPRF primitive and its HSM integration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.oprf import (
    OprfClient,
    evaluate_blinded,
    generate_group,
    generate_key,
    unblinded_evaluate,
)
from repro.crypto.primitives.random import DeterministicRandom
from repro.errors import CryptoError, KeyManagementError
from repro.keys.hsm import SimulatedHsm

GROUP_BITS = 128  # small for test speed; size-independent properties


@pytest.fixture(scope="module")
def group():
    return generate_group(GROUP_BITS,
                          DeterministicRandom(b"oprf-group").randbelow)


@pytest.fixture(scope="module")
def key(group):
    return generate_key(group, DeterministicRandom(b"oprf-key"))


def non_residue(group):
    """The smallest element outside the order-q subgroup besides p - 1."""
    return next(a for a in range(2, group.p)
                if pow(a, group.q, group.p) != 1)


class TestProtocol:
    @given(data=st.binary(min_size=1, max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_blinded_equals_direct_evaluation(self, group, key, data):
        client = OprfClient(group)
        state, blinded = client.blind(data)
        evaluated = evaluate_blinded(group, key, blinded)
        output = client.finalize(data, state, evaluated)
        assert output == unblinded_evaluate(group, key, data)

    def test_deterministic_across_blindings(self, group, key):
        client = OprfClient(group)
        outputs = set()
        for _ in range(5):
            state, blinded = client.blind(b"same input")
            evaluated = evaluate_blinded(group, key, blinded)
            outputs.add(client.finalize(b"same input", state, evaluated))
        assert len(outputs) == 1

    def test_blinding_randomises_the_wire(self, group, key):
        client = OprfClient(group)
        _, blinded_a = client.blind(b"input")
        _, blinded_b = client.blind(b"input")
        assert blinded_a != blinded_b  # the server can't link inputs

    def test_different_inputs_different_outputs(self, group, key):
        assert unblinded_evaluate(group, key, b"a") != unblinded_evaluate(
            group, key, b"b"
        )

    def test_different_keys_different_outputs(self, group):
        k1 = generate_key(group, DeterministicRandom(b"k1"))
        k2 = generate_key(group, DeterministicRandom(b"k2"))
        assert unblinded_evaluate(group, k1, b"x") != unblinded_evaluate(
            group, k2, b"x"
        )

    def test_rejects_out_of_group_elements(self, group, key):
        with pytest.raises(CryptoError):
            evaluate_blinded(group, key, 0)
        with pytest.raises(CryptoError):
            evaluate_blinded(group, key, group.p)
        client = OprfClient(group)
        with pytest.raises(CryptoError):
            client.finalize(b"x", 3, group.p + 5)

    def test_rejects_elements_outside_the_subgroup(self, group, key):
        # p - 1 has order 2: p - 1 raised to the key is 1 or p - 1, the
        # key's parity.  Any non-residue leaks the same bit.
        client = OprfClient(group)
        for element in (group.p - 1, non_residue(group)):
            with pytest.raises(CryptoError):
                evaluate_blinded(group, key, element)
            with pytest.raises(CryptoError):
                client.finalize(b"x", 3, element)

    def test_hash_to_group_lands_in_subgroup(self, group):
        for data in (b"a", b"b", b"longer input value"):
            element = group.hash_to_group(data)
            # Quadratic residues have order q: element^q == 1.
            assert pow(element, group.q, group.p) == 1


class TestHsmIntegration:
    def test_create_and_evaluate(self):
        hsm = SimulatedHsm(DeterministicRandom(b"hsm"))
        group = hsm.create_oprf_key("idx", group_bits=128)
        client = OprfClient(group)
        state, blinded = client.blind(b"value")
        output = client.finalize(b"value", state,
                                 hsm.oprf_evaluate("idx", blinded))
        # Re-derivation is stable.
        state2, blinded2 = client.blind(b"value")
        output2 = client.finalize(b"value", state2,
                                  hsm.oprf_evaluate("idx", blinded2))
        assert output == output2

    def test_oracle_refuses_elements_outside_the_subgroup(self):
        hsm = SimulatedHsm(DeterministicRandom(b"hsm-parity"))
        group = hsm.create_oprf_key("idx", group_bits=128)
        _, blinded = OprfClient(group).blind(b"value")
        for element in (group.p - 1, non_residue(group)):
            with pytest.raises(CryptoError):
                hsm.oprf_evaluate("idx", element)
            with pytest.raises(CryptoError):
                hsm.oprf_evaluate_many("idx", [blinded, element])

    def test_idempotent_creation(self):
        hsm = SimulatedHsm(DeterministicRandom(b"hsm2"))
        g1 = hsm.create_oprf_key("idx", group_bits=128)
        g2 = hsm.create_oprf_key("idx", group_bits=128)
        assert g1 == g2

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyManagementError):
            SimulatedHsm().oprf_evaluate("ghost", 4)

    def test_key_isolation_between_labels(self):
        hsm = SimulatedHsm(DeterministicRandom(b"hsm3"))
        ga = hsm.create_oprf_key("a", group_bits=128)
        hsm.create_oprf_key("b", group_bits=128)
        client = OprfClient(ga)
        state, blinded = client.blind(b"x")
        out_a = client.finalize(b"x", state,
                                hsm.oprf_evaluate("a", blinded))
        # Same blinded element under the other label gives a different
        # function (possibly a different group; guard for that).
        try:
            out_b = client.finalize(b"x", state,
                                    hsm.oprf_evaluate("b", blinded))
        except (CryptoError, KeyManagementError):
            return
        assert out_a != out_b
