"""Sophos (Σoφoς): forward-private SSE from a trapdoor permutation
(Bost, CCS 2016).

Protection class 2 (*identifiers*).  Per keyword the gateway holds a
search-token chain rooted at a random point of Z_n: each insertion steps
the token *backwards* through the RSA trapdoor permutation (private key),
and stores the entry at ``H1(k_w, ST)``.  The cloud, handed the newest
token at search time, can only walk *forwards* with the public key —
entries written after a search use tokens the server cannot predict,
which is precisely forward privacy.

Table 2 lists *key management* as this tactic's challenge: unlike the
purely symmetric schemes, Sophos needs an RSA keypair whose private half
must never leave the trusted zone; the keystore provides it.  Sophos has
no deletion sub-protocol (additions only); ``update`` appends the new
value and relies on the middleware's gateway-side result verification to
drop stale matches.

SPI surface (Table 2 row: 6 gateway / 4 cloud): Setup, Insertion,
DocIDGen, Update, EqQuery, EqResolution // Setup, Insertion, Update,
EqQuery.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.encoding import Value, encode_value
from repro.crypto.primitives.hmac_prf import prf, prg
from repro.crypto.primitives.numbers import bytes_to_int, int_to_bytes
from repro.crypto.primitives.random import default_random
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import (
    CloudTactic,
    GatewayTactic,
    keyword_key,
    random_doc_id,
)

RSA_BITS = 1024


def _mask_id(k_w: bytes, token: bytes, doc_id: str) -> bytes:
    body = doc_id.encode("utf-8")
    pad = prg(prf(k_w, b"h2", token), len(body), label=b"sophos-pad")
    return bytes(a ^ b for a, b in zip(body, pad))


def _unmask_id(k_w: bytes, token: bytes, masked: bytes) -> str:
    pad = prg(prf(k_w, b"h2", token), len(masked), label=b"sophos-pad")
    return bytes(a ^ b for a, b in zip(masked, pad)).decode("utf-8")


def _address(k_w: bytes, token: bytes) -> bytes:
    return prf(k_w, b"h1", token)


class SophosGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayDocIDGen,
    spi.GatewayUpdate,
    spi.GatewayEqQuery,
    spi.GatewayEqResolution,
):
    """Trusted-zone half: private-key token stepping."""

    def setup(self) -> None:
        self._master = self.ctx.derive_key("index")
        self._private = self.ctx.keystore.rsa_keypair(
            self.ctx.field, self.ctx.tactic, RSA_BITS
        )
        public = self._private.public
        self.ctx.call("setup", n=public.n, e=public.e)

    def generate_doc_id(self) -> str:
        return random_doc_id()

    # -- keyword state (newest token + count) ----------------------------------

    def _keyword(self, value: Value) -> bytes:
        return encode_value(value)

    def _state_key(self, keyword: bytes) -> bytes:
        return self.ctx.state_key(b"st", prf(self._master, b"st", keyword))

    def _load_state(self, keyword: bytes) -> tuple[int, int] | None:
        blob = self.ctx.local_kv.get(self._state_key(keyword))
        if blob is None:
            return None
        count = int.from_bytes(blob[:8], "big")
        return count, bytes_to_int(blob[8:])

    def _store_state(self, keyword: bytes, count: int, token: int) -> None:
        blob = count.to_bytes(8, "big") + int_to_bytes(
            token, self._private.byte_length
        )
        self.ctx.local_kv.put(self._state_key(keyword), blob)

    # -- insertion -----------------------------------------------------------------

    def insert(self, doc_id: str, value: Value) -> None:
        keyword = self._keyword(value)
        k_w = keyword_key(self._master, keyword)
        state = self._load_state(keyword)
        if state is None:
            count = 1
            token = bytes_to_int(
                default_random().token_bytes(self._private.byte_length)
            ) % self._private.n
        else:
            old_count, old_token = state
            count = old_count + 1
            token = self._private.invert(old_token)
        token_bytes = int_to_bytes(token, self._private.byte_length)
        self.ctx.call(
            "insert",
            address=_address(k_w, token_bytes),
            payload=_mask_id(k_w, token_bytes, doc_id),
        )
        self._store_state(keyword, count, token)

    def update(self, doc_id: str, old_value: Value,
               new_value: Value) -> None:
        # Additions only: the stale old-value entry remains and is filtered
        # by the middleware's gateway-side verification.
        self.insert(doc_id, new_value)

    # -- search ----------------------------------------------------------------------

    def eq_query(self, value: Value) -> Any:
        keyword = self._keyword(value)
        state = self._load_state(keyword)
        if state is None:
            return {"ids": []}
        count, token = state
        k_w = keyword_key(self._master, keyword)
        ids = self.ctx.call(
            "eq_query",
            k_w=k_w,
            token=int_to_bytes(token, self._private.byte_length),
            count=count,
        )
        return {"ids": ids}

    def resolve_eq(self, raw: Any) -> set[str]:
        return set(raw["ids"])


class SophosCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudUpdate,
    spi.CloudEqQuery,
):
    """Untrusted-zone half: public-key forward walking.

    The walk skips missing addresses, so the entries of one keyword
    chain may scatter across shards and the router's union-merge stays
    correct.
    """

    def setup(self, n: int, e: int) -> None:
        self._n = n
        self._e = e
        self._map_name = self.ctx.state_key(b"index")

    def insert(self, address: bytes, payload: bytes) -> None:
        if not isinstance(address, bytes) or not isinstance(payload, bytes):
            raise TacticError("Sophos entries are byte blobs")
        self.ctx.kv.map_put(self._map_name, address, payload)

    def update(self, address: bytes, payload: bytes) -> None:
        self.insert(address=address, payload=payload)

    def eq_query(self, k_w: bytes, token: bytes, count: int) -> list[str]:
        """Walk the permutation forwards, harvesting all entries."""
        byte_length = (self._n.bit_length() + 7) // 8
        current = bytes_to_int(token)
        ids = []
        for _ in range(count):
            token_bytes = int_to_bytes(current, byte_length)
            masked = self.ctx.kv.map_get(
                self._map_name, _address(k_w, token_bytes)
            )
            if masked is not None:
                ids.append(_unmask_id(k_w, token_bytes, masked))
            current = pow(current, self._e, self._n)
        return ids
