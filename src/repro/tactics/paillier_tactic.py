"""Paillier aggregate tactic: blind sums and averages in the cloud.

No protection class / leakage row in Table 2 ('-'): this tactic answers no
search queries, it only stores additively homomorphic ciphertexts and
multiplies them on demand.  The cloud computes ``E(sum)`` as the modular
product of the selected ciphertexts; the gateway's
``AggFunctionResolution`` decrypts and — for averages — divides by the
count (the paper's example: *the average heart rate of a patient*).

Table 2's 'Key management' challenge applies: the Paillier private key
must stay in the trusted zone; only ``n`` crosses to the cloud at setup.

SPI surface (Table 2 rows Sum/Average: 3 gateway / 3 cloud): Setup,
Insertion, AggFunctionResolution // Setup, Insertion, AggFunction.
"""

from __future__ import annotations

import time

from repro.crypto import paillier
from repro.crypto.encoding import Value
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic, residue

KEY_BITS = 1024
FIXED_POINT_SCALE = 6


class PaillierGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayAggFunctionResolution,
):
    """Trusted-zone half: encryption and aggregate resolution."""

    def setup(self) -> None:
        self._private = self.ctx.keystore.paillier_keypair(
            self.ctx.field, self.ctx.tactic, KEY_BITS
        )
        self._codec = paillier.FixedPointCodec(FIXED_POINT_SCALE)
        #: Fixed-base mask generation (CryptoConfig.precompute): one cold
        #: mask β at setup, fresh masks as β^k mod p² and q² — half-length
        #: exponents where a uniform r^n reduces n mod p(p−1) and q(q−1).
        #: Both run on OpenSSL's constant-time powmod in the half-width
        #: groups, inline, on the thread that encrypts.
        self._fixed_base = (
            paillier.FixedBaseObfuscator(self._private)
            if self.crypto.precompute else None
        )
        self.ctx.call("setup", n=self._private.public.n)

    def _encode(self, value: Value) -> int:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TacticError(
                f"Paillier protects numeric fields only, got "
                f"{type(value).__name__}"
            )
        return self._codec.encode(value)

    def _encrypt(self, encoded: int) -> paillier.Ciphertext:
        if self._fixed_base is not None:
            return self._fixed_base.encrypt(encoded)
        return paillier.encrypt_with_mask(self._private.public, encoded,
                                          paillier.mask(self._private))

    def insert(self, doc_id: str, value: Value) -> None:
        ciphertext = self._encrypt(self._encode(value))
        self.ctx.call("insert", doc_id=doc_id, ciphertext=ciphertext.value)

    # -- batch SPI ----------------------------------------------------------------

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        """Begin: encode and encrypt every plaintext (booked as the
        ``paillier_encrypt`` kernel).  Finish: send them in one slot."""
        started = time.perf_counter()
        ciphertexts = [
            self._encrypt(self._encode(value)) for _, value in entries
        ]
        self.kernels.record("paillier_encrypt",
                            time.perf_counter() - started)
        return lambda: self._insert_many([
            {"doc_id": doc_id, "ciphertext": ciphertext.value}
            for (doc_id, _), ciphertext in zip(entries, ciphertexts)
        ])

    # -- aggregate protocol -------------------------------------------------------

    def aggregate(self, function: str,
                  doc_ids: list[str] | None = None) -> Value:
        """Run the full protocol: blind cloud evaluation + resolution."""
        parts = self.ctx.call("aggregate", doc_ids=doc_ids)
        return self.resolve_aggregate(
            function, parts, sum(part["count"] for part in parts)
        )

    def resolve_aggregate(self, function: str, raw: list[dict],
                          count: int) -> Value:
        """``raw`` holds one partial per shard: E(a)·E(b) = E(a+b)."""
        if function == "count":
            return count
        if count == 0:
            return None
        public = self._private.public
        product = 1
        for part in raw:
            product = product * part["ct"] % public.n_squared
        decoded_sum = paillier.decrypt(
            self._private, paillier.Ciphertext(public, product)
        )
        if function == "sum":
            return self._codec.decode(decoded_sum)
        if function == "avg":
            return self._codec.decode_mean(decoded_sum, count)
        raise TacticError(f"Paillier cannot resolve aggregate {function!r}")


class PaillierCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudAggFunction,
):
    """Untrusted-zone half: ciphertext storage and blind multiplication."""

    def setup(self, n: int) -> None:
        self._public = paillier.PaillierPublicKey(n)
        self._map_name = self.ctx.state_key(b"ct")

    def insert(self, doc_id: str, ciphertext: int) -> None:
        residue(ciphertext, self._public.n_squared)
        length = (ciphertext.bit_length() + 7) // 8 or 1
        self.ctx.kv.map_put(
            self._map_name, doc_id.encode(),
            ciphertext.to_bytes(length, "big"),
        )

    def _get(self, doc_id: str) -> int | None:
        blob = self.ctx.kv.map_get(self._map_name, doc_id.encode())
        return None if blob is None else int.from_bytes(blob, "big")

    def aggregate(self, doc_ids: list[str] | None = None) -> list[dict]:
        """Homomorphically sum the selected values.

        ``doc_ids`` of None aggregates everything stored; unknown ids are
        skipped (they may have been deleted from the document store).
        The reply is a list of partials — one from a single zone — so a
        shard router can concatenate its nodes' replies.
        """
        if doc_ids is None:
            selected = [
                int.from_bytes(blob, "big")
                for _, blob in self.ctx.kv.map_items(self._map_name)
            ]
        else:
            selected = [
                ciphertext for ciphertext in
                (self._get(d) for d in doc_ids)
                if ciphertext is not None
            ]
        n_squared = self._public.n_squared
        product = 1
        for ciphertext in selected:
            product = product * ciphertext % n_squared
        return [{"ct": product, "count": len(selected)}]
