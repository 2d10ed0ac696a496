"""ElGamal product-aggregate tactic (extension beyond the paper's catalog).

The paper's background section pairs Paillier (additive) with ElGamal
(multiplicative) as the classic partially homomorphic schemes; its Table 2
ships only Paillier.  This tactic demonstrates the crypto-agility claim:
a new scheme slots into the same 3/3 SPI surface as Paillier — Setup,
Insertion, AggFunctionResolution // Setup, Insertion, AggFunction — and
the selector picks it automatically for fields annotated with the
``product`` aggregate.  Values must be positive integers (geometric
aggregation, e.g. compounding factors).

Encryption is :func:`repro.crypto.elgamal.encrypt` under every
configuration: its two exponentiations by the coins ``r`` run on
OpenSSL's constant-time ``powmod``, so ``CryptoConfig.precompute``
selects nothing here.
"""

from __future__ import annotations

import time

from repro.crypto import elgamal
from repro.crypto.encoding import Value
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic, residue

KEY_BITS = 256


class ElGamalGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayAggFunctionResolution,
):
    """Trusted-zone half: encryption and product resolution."""

    def setup(self) -> None:
        self._private = self.ctx.keystore.elgamal_keypair(
            self.ctx.field, self.ctx.tactic, KEY_BITS
        )
        public = self._private.public
        self.ctx.call("setup", p=public.p, g=public.g, h=public.h)

    @staticmethod
    def _validate(value: Value) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise TacticError(
                "ElGamal product tactic requires positive integer values"
            )

    def insert(self, doc_id: str, value: Value) -> None:
        self._validate(value)
        ciphertext = elgamal.encrypt(self._private.public, value)
        self.ctx.call(
            "insert", doc_id=doc_id, c1=ciphertext.c1, c2=ciphertext.c2
        )

    # -- batch SPI ----------------------------------------------------------------

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        """Begin: validate and encrypt every value (booked as the
        ``elgamal_encrypt`` kernel).  Finish: send them in one slot."""
        for _, value in entries:
            self._validate(value)
        started = time.perf_counter()
        public = self._private.public
        ciphertexts = [elgamal.encrypt(public, value) for _, value in entries]
        self.kernels.record("elgamal_encrypt",
                            time.perf_counter() - started)
        return lambda: self._insert_many([
            {"doc_id": doc_id, "c1": ciphertext.c1, "c2": ciphertext.c2}
            for (doc_id, _), ciphertext in zip(entries, ciphertexts)
        ])

    def aggregate(self, function: str,
                  doc_ids: list[str] | None = None) -> Value:
        parts = self.ctx.call("aggregate", doc_ids=doc_ids)
        return self.resolve_aggregate(
            function, parts, sum(part["count"] for part in parts)
        )

    def resolve_aggregate(self, function: str, raw: list[dict],
                          count: int) -> Value:
        """``raw`` holds one partial per shard, folded component-wise."""
        if function == "count":
            return count
        if function != "product":
            raise TacticError(f"ElGamal cannot resolve aggregate {function!r}")
        if count == 0:
            return None
        public = self._private.public
        c1, c2 = 1, 1
        for part in raw:
            c1 = c1 * part["c1"] % public.p
            c2 = c2 * part["c2"] % public.p
        return elgamal.decrypt(
            self._private, elgamal.ElGamalCiphertext(public, c1, c2)
        )


class ElGamalCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudAggFunction,
):
    """Untrusted-zone half: component-wise blind multiplication."""

    def setup(self, p: int, g: int, h: int) -> None:
        self._public = elgamal.ElGamalPublicKey(p, g, h)
        self._map_name = self.ctx.state_key(b"ct")
        self._element_bytes = (p.bit_length() + 7) // 8

    def insert(self, doc_id: str, c1: int, c2: int) -> None:
        p = self._public.p
        blob = (residue(c1, p).to_bytes(self._element_bytes, "big")
                + residue(c2, p).to_bytes(self._element_bytes, "big"))
        self.ctx.kv.map_put(self._map_name, doc_id.encode(), blob)

    def _decode(self, blob: bytes) -> tuple[int, int]:
        return (int.from_bytes(blob[:self._element_bytes], "big"),
                int.from_bytes(blob[self._element_bytes:], "big"))

    def aggregate(self, doc_ids: list[str] | None = None) -> list[dict]:
        if doc_ids is None:
            selected = [
                self._decode(blob)
                for _, blob in self.ctx.kv.map_items(self._map_name)
            ]
        else:
            selected = []
            for doc_id in doc_ids:
                blob = self.ctx.kv.map_get(self._map_name,
                                           doc_id.encode())
                if blob is not None:
                    selected.append(self._decode(blob))
        p = self._public.p
        product_c1, product_c2 = 1, 1
        for c1, c2 in selected:
            product_c1 = product_c1 * c1 % p
            product_c2 = product_c2 * c2 % p
        return [{"c1": product_c1, "c2": product_c2,
                 "count": len(selected)}]
