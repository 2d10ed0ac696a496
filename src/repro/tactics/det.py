"""DET: deterministic encryption, protection class 4 (*equalities*).

Equal plaintexts map to equal ciphertexts (SIV-style AES-GCM with a
PRF-derived nonce), so the ciphertext itself is an equality-search token
the cloud can index directly — sub-linear search with no protocol state,
which is why the paper's benchmark uses DET for five of its eight tactic
instances.  The cost is leaking which documents share a value even before
any query runs (snapshot adversary).

SPI surface (Table 2 row: 9 gateway / 6 cloud): Setup, Insertion,
DocIDGen, SecureEnc, Update, Retrieval, Deletion, EqQuery, EqResolution //
Setup, Insertion, Update, Retrieval, Deletion, EqQuery.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.encoding import Value, encode_value
from repro.crypto.symmetric import Deterministic, open_value, seal_value
from repro.errors import DocumentNotFound, TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic, random_doc_id


class DetGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayDocIDGen,
    spi.GatewaySecureEnc,
    spi.GatewayUpdate,
    spi.GatewayRetrieval,
    spi.GatewayDeletion,
    spi.GatewayEqQuery,
    spi.GatewayEqResolution,
):
    """Trusted-zone half of the DET tactic."""

    def setup(self) -> None:
        # Subkey derivation happens once here (the Deterministic cipher
        # HKDFs its enc/mac subkeys at construction), and the sealed
        # tokens themselves are memoised — so the eq_query/resolve_eq
        # path re-derives nothing per call.
        self._det = Deterministic(self.ctx.derive_key("value"))
        self._token_cache = self.kernels.cache()
        self.ctx.call("setup")

    # -- SecureEnc / DocIDGen ----------------------------------------------------

    def seal(self, value: Value) -> bytes:
        key = encode_value(value)
        token = self._token_cache.get(key)
        if token is None:
            token = seal_value(self._det, value)
            self._token_cache.put(key, token)
        return token

    def open(self, blob: bytes) -> Value:
        return open_value(self._det, blob)

    def generate_doc_id(self) -> str:
        return random_doc_id()

    # -- batch SPI ----------------------------------------------------------------
    # DET seals are deterministic, so a batch costs one AES-SIV pass per
    # *distinct* value (dedup + LRU via the kernel dispatcher).

    def token(self, value: Value) -> bytes:
        return self.seal(value)

    def tokens_many(self, values: list[Value]) -> list[bytes]:
        return self.kernels.dedup_map(
            values, lambda v: seal_value(self._det, v),
            key=encode_value, cache=self._token_cache,
        )

    def seal_many(self, values: list[Value]) -> list[bytes]:
        return self.tokens_many(values)

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        tokens = self.tokens_many([value for _, value in entries])

        def finish() -> None:
            for (doc_id, _), token in zip(entries, tokens):
                self.ctx.call("insert", doc_id=doc_id, token=token)

        return finish

    # -- CRUD ----------------------------------------------------------------------

    def insert(self, doc_id: str, value: Value) -> None:
        self.ctx.call("insert", doc_id=doc_id, token=self.seal(value))

    def update(self, doc_id: str, old_value: Value,
               new_value: Value) -> None:
        self.ctx.call(
            "update",
            doc_id=doc_id,
            old_token=self.seal(old_value),
            new_token=self.seal(new_value),
        )

    def delete(self, doc_id: str, value: Value) -> None:
        self.ctx.call("delete", doc_id=doc_id, token=self.seal(value))

    def retrieve(self, doc_id: str) -> Value:
        token = self.ctx.call("retrieve", doc_id=doc_id)
        if token is None:
            raise DocumentNotFound(doc_id)
        return self.open(token)

    # -- Equality search --------------------------------------------------------------

    def eq_args(self, value: Value) -> dict[str, Any]:
        """The cloud ``eq_query`` arguments for ``value`` — sent alone
        here, or inside a co-located find's one per-shard round."""
        return {"token": self.seal(value)}

    def eq_query(self, value: Value) -> Any:
        return self.ctx.call("eq_query", **self.eq_args(value))

    def resolve_eq(self, raw: Any) -> set[str]:
        return set(raw)


class DetCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudUpdate,
    spi.CloudRetrieval,
    spi.CloudDeletion,
    spi.CloudEqQuery,
):
    """Untrusted-zone half: a token -> ids inverted index.

    Two KV structures: a set per token holding matching document ids, and
    a map doc_id -> token so updates and deletes need no client round
    trip for the old token.
    """

    def setup(self, **params: Any) -> None:
        self._map_name = self.ctx.state_key(b"by-doc")

    def _token_set(self, token: bytes) -> bytes:
        return self.ctx.state_key(b"token", token)

    def insert(self, doc_id: str, token: bytes) -> None:
        if not isinstance(token, bytes):
            raise TacticError("DET insert expects a token blob")
        self.ctx.kv.set_add(self._token_set(token), doc_id.encode())
        self.ctx.kv.map_put(self._map_name, doc_id.encode(), token)

    def update(self, doc_id: str, old_token: bytes,
               new_token: bytes) -> None:
        self.ctx.kv.set_remove(self._token_set(old_token), doc_id.encode())
        self.insert(doc_id, new_token)

    def delete(self, doc_id: str, token: bytes) -> None:
        self.ctx.kv.set_remove(self._token_set(token), doc_id.encode())
        self.ctx.kv.map_delete(self._map_name, doc_id.encode())

    def retrieve(self, doc_id: str) -> bytes | None:
        return self.ctx.kv.map_get(self._map_name, doc_id.encode())

    def eq_query(self, token: bytes) -> list[str]:
        return sorted(
            member.decode()
            for member in self.ctx.kv.set_members(self._token_set(token))
        )

    # -- shard migration hooks (doc-keyed) -------------------------------------
    # An entry of the ``doc_id -> token`` map carries its token set too.

    def _import_entry(self, key: bytes, token: bytes) -> None:
        self.insert(key.decode(), token)

    def _evict_entry(self, key: bytes, token: bytes) -> None:
        self.delete(key.decode(), token)
