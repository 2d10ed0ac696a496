"""The halves both equality-token tactics share: one token -> ids index.

DET and the blind index sit in the same leakage class (class 4,
*equalities*) and run the same protocol.  The gateway maps a value to a
deterministic token; the cloud keeps, per token, the set of document
ids carrying it, plus a ``doc_id -> token`` map so updates, deletes and
shard migration need no client round trip for the old token.  They
differ only in the token function: DET's is a SIV-style deterministic
seal under a gateway-held key, the blind index's an oblivious PRF whose
key never leaves the HSM.

Tokens are deterministic, so the gateway memoises them per instance
(under the key epoch) and a batch derives one token per distinct value.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.crypto.encoding import Value, encode_value
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic


class EqIndexGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayUpdate,
    spi.GatewayDeletion,
    spi.GatewayEqQuery,
    spi.GatewayEqResolution,
):
    """Trusted-zone half of an equality-token tactic.

    A subclass names its wire argument ``ARG``, builds its token
    function in ``setup`` before calling this one, and derives one token
    in :meth:`_token_cold`.  ``_tokens_batch``, when set, derives a
    whole batch of missing tokens in one call.
    """

    ARG: str
    _tokens_batch: Callable[[list[Value]], list[bytes]] | None = None

    def _token_cold(self, value: Value) -> bytes:
        raise NotImplementedError

    def setup(self) -> None:
        self._token_cache = self.kernels.cache()
        self.ctx.call("setup")

    def token(self, value: Value) -> bytes:
        key = encode_value(value)
        token = self._token_cache.get(key)
        if token is None:
            token = self._token_cold(value)
            self._token_cache.put(key, token)
        return token

    def tokens_many(self, values: list[Value]) -> list[bytes]:
        return self.kernels.dedup_map(
            values, self._token_cold, key=encode_value,
            cache=self._token_cache, batch=self._tokens_batch,
        )

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        tokens = self.tokens_many([value for _, value in entries])
        return lambda: self._insert_many([
            {"doc_id": doc_id, self.ARG: token}
            for (doc_id, _), token in zip(entries, tokens)
        ])

    def insert(self, doc_id: str, value: Value) -> None:
        self.ctx.call("insert", doc_id=doc_id, **self.eq_args(value))

    def update(self, doc_id: str, old_value: Value,
               new_value: Value) -> None:
        self.ctx.call("update", doc_id=doc_id, **{
            "old_" + self.ARG: self.token(old_value),
            "new_" + self.ARG: self.token(new_value),
        })

    def delete(self, doc_id: str, value: Value) -> None:
        self.ctx.call("delete", doc_id=doc_id, **self.eq_args(value))

    def eq_args(self, value: Value) -> dict[str, Any]:
        """The token argument for ``value``: what an insert or delete
        sends, and the cloud ``eq_query`` arguments — sent alone here,
        or inside a co-located find's one per-shard round."""
        return {self.ARG: self.token(value)}

    def eq_query(self, value: Value) -> Any:
        return self.ctx.call("eq_query", **self.eq_args(value))

    def resolve_eq(self, raw: Any) -> set[str]:
        return set(raw)


class EqIndexCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudUpdate,
    spi.CloudDeletion,
    spi.CloudEqQuery,
):
    """Untrusted-zone half: a set of ids per token, and the
    ``doc_id -> token`` map (which also carries shard migration).

    A subclass names the wire argument ``ARG`` (``old_``/``new_``
    prefixed in an update) and the state-key part ``SET_PREFIX`` the
    id sets live under.
    """

    ARG: str
    SET_PREFIX: bytes

    def setup(self, **params: Any) -> None:
        self._map_name = self.ctx.state_key(b"by-doc")

    def _tokens(self, args: dict[str, Any], *prefixes: str) -> list[bytes]:
        """The token arguments ``prefix + ARG`` of one call, checked."""
        names = [prefix + self.ARG for prefix in prefixes]
        tokens = [args.get(name) for name in names]
        if len(args) != len(names) or not all(
            isinstance(token, bytes) for token in tokens
        ):
            raise TacticError(
                f"{self.ctx.tactic} expects bytes {', '.join(names)}"
            )
        return tokens

    def _ids(self, token: bytes) -> bytes:
        return self.ctx.state_key(self.SET_PREFIX, token)

    def _put(self, doc_id: str, token: bytes) -> None:
        self.ctx.kv.set_add(self._ids(token), doc_id.encode())
        self.ctx.kv.map_put(self._map_name, doc_id.encode(), token)

    def _drop(self, doc_id: str, token: bytes) -> None:
        self.ctx.kv.set_remove(self._ids(token), doc_id.encode())
        self.ctx.kv.map_delete(self._map_name, doc_id.encode())

    def insert(self, doc_id: str, **token: bytes) -> None:
        self._put(doc_id, *self._tokens(token, ""))

    def update(self, doc_id: str, **tokens: bytes) -> None:
        old, new = self._tokens(tokens, "old_", "new_")
        self.ctx.kv.set_remove(self._ids(old), doc_id.encode())
        self._put(doc_id, new)

    def delete(self, doc_id: str, **token: bytes) -> None:
        self._drop(doc_id, *self._tokens(token, ""))

    def eq_query(self, **token: bytes) -> list[str]:
        [token_bytes] = self._tokens(token, "")
        return sorted(
            member.decode()
            for member in self.ctx.kv.set_members(self._ids(token_bytes))
        )

    # -- shard migration hooks (doc-keyed) -------------------------------------
    # An entry of the ``doc_id -> token`` map carries its id set too.

    def _import_entry(self, key: bytes, token: bytes) -> None:
        self._put(key.decode(), token)

    def _evict_entry(self, key: bytes, token: bytes) -> None:
        self._drop(key.decode(), token)
