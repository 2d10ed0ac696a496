"""RND: probabilistic encryption, protection class 1 (*structure*).

The most secure and least functional tactic in Table 2.  Values are
AES-GCM encrypted with fresh randomness, so the cloud learns nothing but
sizes.  Equality search exists but is *inefficient* by design (the
'Challenge' column of Table 2): the cloud must return every stored
ciphertext for the field, and the gateway decrypts and compares — a
linear, bandwidth-heavy protocol.  That is the price of leaking nothing.

SPI surface (Table 2 row: 6 gateway / 4 cloud): Setup, Insertion,
SecureEnc, Retrieval, EqQuery, EqResolution // Setup, Insertion,
Retrieval, EqQuery.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.encoding import Value
from repro.crypto.symmetric import Aead, open_value, seal_value
from repro.errors import DocumentNotFound, TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic


class RndGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewaySecureEnc,
    spi.GatewayRetrieval,
    spi.GatewayEqQuery,
    spi.GatewayEqResolution,
):
    """Trusted-zone half of the RND tactic."""

    def setup(self) -> None:
        self._aead = Aead(self.ctx.derive_key("value"))
        self.ctx.call("setup")

    # -- SecureEnc ------------------------------------------------------------

    def seal(self, value: Value) -> bytes:
        return seal_value(self._aead, value)

    def open(self, blob: bytes) -> Value:
        return open_value(self._aead, blob)

    # -- Insertion / Retrieval ---------------------------------------------------

    def insert(self, doc_id: str, value: Value) -> None:
        self.ctx.call("insert", doc_id=doc_id, blob=self.seal(value))

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        # Probabilistic seals cannot dedup; sealing in the begin phase
        # keeps all crypto ahead of the first emitted RPC.
        blobs = self.seal_many([value for _, value in entries])
        return lambda: self._insert_many([
            {"doc_id": doc_id, "blob": blob}
            for (doc_id, _), blob in zip(entries, blobs)
        ])

    def retrieve(self, doc_id: str) -> Value:
        blob = self.ctx.call("retrieve", doc_id=doc_id)
        if blob is None:
            raise DocumentNotFound(doc_id)
        return self.open(blob)

    # -- Equality search (exhaustive) ------------------------------------------------

    def eq_query(self, value: Value) -> Any:
        """Fetch *all* ciphertexts; comparison happens at the gateway."""
        return {"value": value, "entries": self.ctx.call("eq_query")}

    def resolve_eq(self, raw: Any) -> set[str]:
        target = raw["value"]
        matches = set()
        for doc_id, blob in raw["entries"]:
            if self.open(blob) == target:
                matches.add(doc_id)
        return matches


class RndCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudRetrieval,
    spi.CloudEqQuery,
):
    """Untrusted-zone half: an opaque blob store keyed by document id."""

    def setup(self, **params: Any) -> None:
        self._map_name = self.ctx.state_key(b"values")

    def insert(self, doc_id: str, blob: bytes) -> None:
        if not isinstance(blob, bytes):
            raise TacticError("RND insert expects a ciphertext blob")
        self.ctx.kv.map_put(self._map_name, doc_id.encode(), blob)

    def retrieve(self, doc_id: str) -> bytes | None:
        return self.ctx.kv.map_get(self._map_name, doc_id.encode())

    def eq_query(self) -> list[tuple[str, bytes]]:
        """The exhaustive scan: every (doc_id, ciphertext) pair."""
        return [
            (field.decode(), blob)
            for field, blob in self.ctx.kv.map_items(self._map_name)
        ]
