"""DET: deterministic encryption, protection class 4 (*equalities*).

Equal plaintexts map to equal ciphertexts (SIV-style AES-GCM with a
PRF-derived nonce), so the ciphertext itself is an equality-search token
the cloud can index directly — sub-linear search with no protocol state,
which is why the paper's benchmark uses DET for five of its eight tactic
instances.  The cost is leaking which documents share a value even before
any query runs (snapshot adversary).

The index is the one both equality-token tactics share
(:mod:`repro.tactics.eq_index`); DET adds what a token that *is* the
ciphertext allows: SecureEnc, DocIDGen and Retrieval of the stored value.

SPI surface (Table 2 row: 9 gateway / 6 cloud): Setup, Insertion,
DocIDGen, SecureEnc, Update, Retrieval, Deletion, EqQuery, EqResolution //
Setup, Insertion, Update, Retrieval, Deletion, EqQuery.
"""

from __future__ import annotations

from repro.crypto.encoding import Value
from repro.crypto.symmetric import Deterministic, open_value, seal_value
from repro.errors import DocumentNotFound
from repro.spi import interfaces as spi
from repro.tactics.base import random_doc_id
from repro.tactics.eq_index import EqIndexCloud, EqIndexGateway


class DetGateway(
    EqIndexGateway,
    spi.GatewayDocIDGen,
    spi.GatewaySecureEnc,
    spi.GatewayRetrieval,
):
    """Trusted-zone half of the DET tactic."""

    ARG = "token"

    def setup(self) -> None:
        # Subkey derivation happens once here (the Deterministic cipher
        # HKDFs its enc/mac subkeys at construction), and the sealed
        # tokens themselves are memoised — so the eq_query/resolve_eq
        # path re-derives nothing per call.
        self._det = Deterministic(self.ctx.derive_key("value"))
        super().setup()

    def _token_cold(self, value: Value) -> bytes:
        return seal_value(self._det, value)

    # -- SecureEnc / DocIDGen ----------------------------------------------------
    # A DET seal is the equality token, so a batch costs one AES-SIV pass
    # per *distinct* value.

    def seal(self, value: Value) -> bytes:
        return self.token(value)

    def seal_many(self, values: list[Value]) -> list[bytes]:
        return self.tokens_many(values)

    def open(self, blob: bytes) -> Value:
        return open_value(self._det, blob)

    def generate_doc_id(self) -> str:
        return random_doc_id()

    def retrieve(self, doc_id: str) -> Value:
        token = self.ctx.call("retrieve", doc_id=doc_id)
        if token is None:
            raise DocumentNotFound(doc_id)
        return self.open(token)


class DetCloud(EqIndexCloud, spi.CloudRetrieval):
    """Untrusted-zone half: the token -> ids index, whose
    ``doc_id -> token`` map also answers Retrieval."""

    ARG = "token"
    SET_PREFIX = b"token"

    def retrieve(self, doc_id: str) -> bytes | None:
        return self.ctx.kv.map_get(self._map_name, doc_id.encode())
