"""Blind-index equality tactic: OPRF tokens with HSM-held keys.

An extension tactic in the spirit of the related work the paper cites
(Ionic's "encrypted search system with an advanced query construction
mechanism based on EC-OPRF"): equality tokens are oblivious-PRF outputs
whose key never leaves the (simulated) HSM.

Why an operator would pick this over DET at the same class (4,
*equalities*): with DET, any party holding the gateway's derived key can
compute tokens for candidate values offline — a stolen gateway image
enables unbounded dictionary attacks.  With the blind index, every token
derivation is a mediated HSM round: the module sees only blinded group
elements (learning nothing about the values), the gateway never holds
the PRF key, and token derivation becomes rate-limitable and auditable
at the HSM.  The cost is one modular exponentiation round trip per
token.  The index is the one both equality-token tactics share
(:mod:`repro.tactics.eq_index`).

SPI surface: Setup, Insertion, Update, Deletion, EqQuery, EqResolution //
Setup, Insertion, Update, Deletion, EqQuery.
"""

from __future__ import annotations

from repro.crypto.encoding import Value, encode_value
from repro.crypto.oprf import OprfClient
from repro.tactics.eq_index import EqIndexCloud, EqIndexGateway

OPRF_GROUP_BITS = 256


class BlindIndexGateway(EqIndexGateway):
    """Trusted-zone half: blinds values, lets the HSM evaluate."""

    ARG = "tag"

    def setup(self) -> None:
        label = f"oprf/{self.ctx.application}/{self.ctx.field}"
        self._hsm_label = label
        # The group handle (and with it the hash-to-group subkey state)
        # is derived once here; per-call work is one blind/evaluate/
        # finalize round, and the finished tags are memoised per
        # (field, key-version) so repeated eq_query/resolve_eq traffic
        # skips the HSM round entirely.
        group = self.ctx.keystore.hsm.create_oprf_key(
            label, OPRF_GROUP_BITS
        )
        self._client = OprfClient(group)
        super().setup()

    def _token_cold(self, value: Value) -> bytes:
        """One blinded HSM round: value -> OPRF tag."""
        data = encode_value(value)
        state, blinded = self._client.blind(data)
        evaluated = self.ctx.keystore.hsm.oprf_evaluate(
            self._hsm_label, blinded
        )
        return self._client.finalize(data, state, evaluated)

    def _tokens_batch(self, values: list[Value]) -> list[bytes]:
        """One multi-element HSM round for a whole batch of values."""
        data = [encode_value(value) for value in values]
        blind = [self._client.blind(item) for item in data]
        evaluated = self.ctx.keystore.hsm.oprf_evaluate_many(
            self._hsm_label, [blinded for _, blinded in blind]
        )
        return [
            self._client.finalize(item, state, output)
            for item, (state, _), output in zip(data, blind, evaluated)
        ]


class BlindIndexCloud(EqIndexCloud):
    """Untrusted-zone half: the tag -> ids index."""

    ARG = "tag"
    SET_PREFIX = b"tags"
