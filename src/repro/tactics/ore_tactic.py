"""ORE range tactic, protection class 5 (*order*).

Same role as the OPE tactic, built on CLWW order-revealing encryption:
ciphertexts are not numbers, so the cloud cannot read order off the
stored values directly — it must invoke the public ``compare`` routine.
The cloud index is kept sorted under that comparator, so range queries
are still two binary searches, each comparison costing a pass over the
ternary digit vectors.  The ablation benchmark contrasts this with OPE's
cheaper comparisons and larger per-encryption cost.

Insert-as-upsert, like the OPE tactic, keeps the SPI surface at the
3/3 interfaces of Table 2: Setup, Insertion, RangeQuery on both sides.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.crypto.encoding import Value, encode_value, value_to_ordered_int
from repro.crypto.ore import Ore, OreCiphertext, compare
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic, export_ring

PLAINTEXT_BITS = 40


class OreGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayRangeQuery,
):
    """Trusted-zone half: CLWW encryption of numeric codes."""

    def setup(self) -> None:
        self._ore = Ore(self.ctx.derive_key("ore"), bits=PLAINTEXT_BITS)
        self._code_cache = self.kernels.cache()
        self.ctx.call("setup")

    def _encode(self, value: Value) -> bytes:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TacticError(
                f"ORE protects numeric fields only, got "
                f"{type(value).__name__}"
            )
        return self._ore.encrypt(
            value_to_ordered_int(value, bits=PLAINTEXT_BITS)
        ).to_bytes()

    def insert(self, doc_id: str, value: Value) -> None:
        self.ctx.call("insert", doc_id=doc_id, ciphertext=self._encode(value))

    # -- batch SPI ----------------------------------------------------------------
    # CLWW encryption is a deterministic PRF per digit, so batches dedup
    # exactly; the digit-vector loop itself stays gateway-inline (cheap
    # AES rounds, not worth a pickle round trip).

    def token(self, value: Value) -> bytes:
        return self._encode(value)

    def tokens_many(self, values: list[Value]) -> list[bytes]:
        return self.kernels.dedup_map(
            values, self._encode, key=encode_value,
            cache=self._code_cache,
        )

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        codes = self.tokens_many([value for _, value in entries])

        def finish() -> None:
            for (doc_id, _), code in zip(entries, codes):
                self.ctx.call("insert", doc_id=doc_id, ciphertext=code)

        return finish

    def range_args(self, low: Value, high: Value) -> dict[str, Any]:
        """The cloud ``range_query`` arguments for ``[low, high]`` — sent
        alone here, or inside a co-located find's one per-shard round."""
        return {
            "low": None if low is None else self._encode(low),
            "high": None if high is None else self._encode(high),
        }

    def range_query(self, low: Value, high: Value) -> set[str]:
        return set(
            self.ctx.call("range_query", **self.range_args(low, high))
        )

    def ordered_ids(self, low: Value = None, high: Value = None,
                    limit: int | None = None,
                    descending: bool = False) -> list[str]:
        """Document ids in value order (extension beyond the Table 1 SPI:
        the order tactics can serve ORDER BY and min/max for free)."""
        low_ct = None if low is None else self._encode(low)
        high_ct = None if high is None else self._encode(high)
        return self.ctx.call("ordered_range", low=low_ct, high=high_ct,
                             limit=limit, descending=descending)


class OreCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudRangeQuery,
):
    """Untrusted-zone half: a comparator-sorted ciphertext index."""

    def setup(self, **params: Any) -> None:
        self._map_name = self.ctx.state_key(b"ct")
        # Dispatch threads share the view below: writes, scans and
        # shard eviction hold this lock (see OPE).
        self._lock = threading.Lock()
        # Rebuild the comparator-sorted view from the durable KV map.
        self._sorted: list[tuple[OreCiphertext, str]] = []
        self._by_doc: dict[str, OreCiphertext] = {}
        for key, blob in self.ctx.kv.map_items(self._map_name):
            parsed = OreCiphertext.from_bytes(blob)
            self._sorted.insert(self._bisect(parsed, right=True),
                                (parsed, key.decode()))
            self._by_doc[key.decode()] = parsed

    def _bisect(self, ciphertext: OreCiphertext, right: bool) -> int:
        """Binary search with the public ORE comparator."""
        lo, hi = 0, len(self._sorted)
        while lo < hi:
            mid = (lo + hi) // 2
            ordering = compare(self._sorted[mid][0], ciphertext)
            if ordering < 0 or (right and ordering == 0):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def insert(self, doc_id: str, ciphertext: bytes) -> None:
        if not isinstance(ciphertext, bytes):
            raise TacticError("ORE ciphertext must be bytes")
        parsed = OreCiphertext.from_bytes(ciphertext)
        with self._lock:
            self.ctx.kv.map_put(self._map_name, doc_id.encode(), ciphertext)
            previous = self._by_doc.get(doc_id)
            if previous is not None:
                index = self._bisect(previous, right=False)
                while index < len(self._sorted):
                    entry_ct, entry_id = self._sorted[index]
                    if compare(entry_ct, previous) != 0:
                        break
                    if entry_id == doc_id:
                        self._sorted.pop(index)
                        break
                    index += 1
            self._sorted.insert(self._bisect(parsed, right=True),
                                (parsed, doc_id))
            self._by_doc[doc_id] = parsed

    def _slice(self, low: bytes | None, high: bytes | None) -> list[str]:
        with self._lock:
            start = 0 if low is None else self._bisect(
                OreCiphertext.from_bytes(low), right=False
            )
            end = len(self._sorted) if high is None else self._bisect(
                OreCiphertext.from_bytes(high), right=True
            )
            return [doc_id for _, doc_id in self._sorted[start:end]]

    def range_query(self, low: bytes | None,
                    high: bytes | None) -> list[str]:
        return self._slice(low, high)

    def ordered_range(self, low: bytes | None, high: bytes | None,
                      limit: int | None = None,
                      descending: bool = False) -> list[str]:
        ids = self._slice(low, high)
        if descending:
            ids.reverse()
        return ids if limit is None else ids[:limit]

    def ordered_range_keyed(self, low: bytes | None, high: bytes | None,
                            limit: int | None = None,
                            descending: bool = False
                            ) -> list[tuple[bytes, str]]:
        """Like ``ordered_range`` but pairs each id with its raw
        ciphertext, so a sharded router can order-merge partial results
        through the public ``compare`` routine."""
        with self._lock:
            start = 0 if low is None else self._bisect(
                OreCiphertext.from_bytes(low), right=False
            )
            end = len(self._sorted) if high is None else self._bisect(
                OreCiphertext.from_bytes(high), right=True
            )
            pairs = self._sorted[start:end]
        if descending:
            pairs = pairs[::-1]
        if limit is not None:
            pairs = pairs[:limit]
        return [
            (self.ctx.kv.map_get(self._map_name, doc_id.encode()), doc_id)
            for _, doc_id in pairs
        ]

    # -- shard migration SPI (doc-keyed) ---------------------------------------

    def _remove_entry(self, doc_id: str) -> None:
        with self._lock:
            previous = self._by_doc.pop(doc_id, None)
            if previous is None:
                return
            index = self._bisect(previous, right=False)
            while index < len(self._sorted):
                entry_ct, entry_id = self._sorted[index]
                if compare(entry_ct, previous) != 0:
                    break
                if entry_id == doc_id:
                    self._sorted.pop(index)
                    break
                index += 1
            self.ctx.kv.map_delete(self._map_name, doc_id.encode())

    def shard_export(self, spec: dict[str, Any]) -> list:
        ring, origin = export_ring(spec)
        return [
            (key.decode(), blob)
            for key, blob in self.ctx.kv.map_items(self._map_name)
            if ring.owner(key.decode()) != origin
        ]

    def shard_import(self, entries: list) -> None:
        for doc_id, blob in entries:
            self.insert(doc_id, blob)

    def shard_evict(self, spec: dict[str, Any]) -> None:
        ring, origin = export_ring(spec)
        with self._lock:
            foreign = [doc_id for doc_id in self._by_doc
                       if ring.owner(doc_id) != origin]
        for doc_id in foreign:
            self._remove_entry(doc_id)
