"""ORE range tactic, protection class 5 (*order*).

Same role as the OPE tactic, built on CLWW order-revealing encryption:
ciphertexts are not numbers, so the cloud cannot read order off the
stored values directly — it must invoke the public ``compare`` routine.
The cloud keeps the sorted index both order tactics share
(:mod:`repro.tactics.sorted_index`), ordered by that comparator, so
range queries are still two binary searches, each comparison costing a
pass over the ternary digit vectors.  The ablation benchmark contrasts
this with OPE's cheaper comparisons and larger per-encryption cost.

Insert-as-upsert, like the OPE tactic, keeps the SPI surface at the
3/3 interfaces of Table 2: Setup, Insertion, RangeQuery on both sides.
"""

from __future__ import annotations

from repro.crypto.ore import Ore, OreCiphertext
from repro.errors import TacticError
from repro.tactics.sorted_index import SortedIndexCloud, SortedIndexGateway

PLAINTEXT_BITS = 40


class OreGateway(SortedIndexGateway):
    """Trusted-zone half: CLWW encryption of numeric codes (the digit
    loop stays inline: cheap AES rounds, not worth a pickle round
    trip)."""

    CODE_BITS = PLAINTEXT_BITS

    def setup(self) -> None:
        self._ore = Ore(self.ctx.derive_key("ore"), bits=PLAINTEXT_BITS)
        super().setup()

    def _encrypt(self, code: int) -> bytes:
        return self._ore.encrypt(code).to_bytes()


class OreCloud(SortedIndexCloud):
    """Untrusted-zone half: parsed ciphertexts are the sort keys, ordered
    by the public comparator; keyed scans ship their bytes."""

    def _entry(self, ciphertext: bytes) -> tuple[OreCiphertext, bytes]:
        if not isinstance(ciphertext, bytes):
            raise TacticError("ORE ciphertext must be bytes")
        return OreCiphertext.from_bytes(ciphertext), ciphertext

    def _unpack(self, blob: bytes) -> OreCiphertext:
        return OreCiphertext.from_bytes(blob)

    def _wire(self, key: OreCiphertext) -> bytes:
        return key.to_bytes()
