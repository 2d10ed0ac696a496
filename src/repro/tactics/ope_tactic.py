"""OPE range tactic, protection class 5 (*order*).

Numeric values are mapped through the IEEE-754 order-preserving integer
embedding, encrypted with Boldyreva OPE, and stored in the sorted index
both order tactics share (:mod:`repro.tactics.sorted_index`) — range
queries are two binary searches.  The ciphertexts are themselves
ordered numbers, which is maximal leakage (Table 2 puts
OPE and ORE in class 5) but buys the cheapest possible range protocol:
no per-candidate cryptography at query time.

Because floats are compressed into a 40-bit ordered code, distinct values
extremely close together can share a code; the cloud then returns a
slightly widened candidate set and the middleware's gateway-side
verification trims it — candidates are always a superset of the true
result.  Inserting an existing document id replaces its previous entry
(insert-as-upsert), so the 3-interface SPI surface of Table 2 suffices
without a separate update protocol.

SPI surface (Table 2 row: 3 gateway / 3 cloud): Setup, Insertion,
RangeQuery // Setup, Insertion, RangeQuery.
"""

from __future__ import annotations

from repro.crypto.kernels.config import TOKEN_CACHE_CAPACITY
from repro.crypto.ope import Ope
from repro.errors import TacticError
from repro.tactics.sorted_index import SortedIndexCloud, SortedIndexGateway

DOMAIN_BITS = 40
RANGE_BITS = 56


class OpeGateway(SortedIndexGateway):
    """Trusted-zone half: order-preserving encryption of numeric codes."""

    CODE_BITS = DOMAIN_BITS

    def setup(self) -> None:
        # The Boldyreva sampler memoises interior split nodes: a batch
        # of clustered values shares long prefix paths down the
        # recursion tree, so each hypergeometric split is sampled once
        # per node instead of once per value.  Splits are deterministic
        # PRF functions of the key and node, so the memo never changes
        # a ciphertext.
        self._ope = Ope(
            self.ctx.derive_key("ope"),
            domain_bits=DOMAIN_BITS,
            range_bits=RANGE_BITS,
            cache_nodes=TOKEN_CACHE_CAPACITY,
        )
        super().setup()

    def _encrypt(self, code: int) -> int:
        return self._ope.encrypt(code)


class OpeCloud(SortedIndexCloud):
    """Untrusted-zone half: the ciphertext integers are the sort keys."""

    def _entry(self, ciphertext: int) -> tuple[int, bytes]:
        if not isinstance(ciphertext, int):
            raise TacticError("OPE ciphertext must be an integer")
        return ciphertext, ciphertext.to_bytes(8, "big")

    def _unpack(self, blob: bytes) -> int:
        return int.from_bytes(blob, "big")
