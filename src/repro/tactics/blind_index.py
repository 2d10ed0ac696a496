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
token.

SPI surface: Setup, Insertion, Update, Deletion, EqQuery, EqResolution //
Setup, Insertion, Update, Deletion, EqQuery.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.encoding import Value, encode_value
from repro.crypto.oprf import OprfClient
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic

OPRF_GROUP_BITS = 256


class BlindIndexGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayUpdate,
    spi.GatewayDeletion,
    spi.GatewayEqQuery,
    spi.GatewayEqResolution,
):
    """Trusted-zone half: blinds values, lets the HSM evaluate."""

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
        self._token_cache = self.kernels.cache()
        self.ctx.call("setup")

    def _token(self, value: Value) -> bytes:
        """One blinded HSM round: value -> OPRF tag (LRU-memoised — the
        OPRF is deterministic)."""
        key = encode_value(value)
        token = self._token_cache.get(key)
        if token is None:
            token = self._token_cold(value)
            self._token_cache.put(key, token)
        return token

    def _token_cold(self, value: Value) -> bytes:
        data = encode_value(value)
        state, blinded = self._client.blind(data)
        evaluated = self.ctx.keystore.hsm.oprf_evaluate(
            self._hsm_label, blinded
        )
        return self._client.finalize(data, state, evaluated)

    # -- batch SPI ----------------------------------------------------------------

    def token(self, value: Value) -> bytes:
        return self._token(value)

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

    def tokens_many(self, values: list[Value]) -> list[bytes]:
        return self.kernels.dedup_map(
            values, self._token_cold, key=encode_value,
            cache=self._token_cache, batch=self._tokens_batch,
        )

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        tags = self.tokens_many([value for _, value in entries])

        def finish() -> None:
            for (doc_id, _), tag in zip(entries, tags):
                self.ctx.call("insert", doc_id=doc_id, tag=tag)

        return finish

    def insert(self, doc_id: str, value: Value) -> None:
        self.ctx.call("insert", doc_id=doc_id, tag=self._token(value))

    def update(self, doc_id: str, old_value: Value,
               new_value: Value) -> None:
        self.ctx.call(
            "update",
            doc_id=doc_id,
            old_tag=self._token(old_value),
            new_tag=self._token(new_value),
        )

    def delete(self, doc_id: str, value: Value) -> None:
        self.ctx.call("delete", doc_id=doc_id, tag=self._token(value))

    def eq_args(self, value: Value) -> dict[str, Any]:
        """The cloud ``eq_query`` arguments for ``value`` (see DET)."""
        return {"tag": self._token(value)}

    def eq_query(self, value: Value) -> Any:
        return self.ctx.call("eq_query", **self.eq_args(value))

    def resolve_eq(self, raw: Any) -> set[str]:
        return set(raw)


class BlindIndexCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudUpdate,
    spi.CloudDeletion,
    spi.CloudEqQuery,
):
    """Untrusted-zone half: a tag -> ids index (like DET's shape)."""

    def setup(self, **params: Any) -> None:
        self._namespace = self.ctx.state_key(b"tags")
        # doc_id -> tag reverse map; lets shard migration enumerate the
        # entries of one document without scanning every tag set.
        self._map_name = self.ctx.state_key(b"by-doc")

    def _tag_set(self, tag: bytes) -> bytes:
        return self._namespace + b"/" + tag

    def insert(self, doc_id: str, tag: bytes) -> None:
        if not isinstance(tag, bytes):
            raise TacticError("blind-index tag must be bytes")
        self.ctx.kv.set_add(self._tag_set(tag), doc_id.encode())
        self.ctx.kv.map_put(self._map_name, doc_id.encode(), tag)

    def update(self, doc_id: str, old_tag: bytes, new_tag: bytes) -> None:
        self.ctx.kv.set_remove(self._tag_set(old_tag), doc_id.encode())
        self.insert(doc_id, new_tag)

    def delete(self, doc_id: str, tag: bytes) -> None:
        self.ctx.kv.set_remove(self._tag_set(tag), doc_id.encode())
        self.ctx.kv.map_delete(self._map_name, doc_id.encode())

    def eq_query(self, tag: bytes) -> list[str]:
        return sorted(
            member.decode()
            for member in self.ctx.kv.set_members(self._tag_set(tag))
        )

    # -- shard migration hooks (doc-keyed) -------------------------------------
    # An entry of the ``doc_id -> tag`` map carries its tag set too.

    def _import_entry(self, key: bytes, tag: bytes) -> None:
        self.insert(key.decode(), tag)

    def _evict_entry(self, key: bytes, tag: bytes) -> None:
        self.delete(key.decode(), tag)
