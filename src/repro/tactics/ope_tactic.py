"""OPE range tactic, protection class 5 (*order*).

Numeric values are mapped through the IEEE-754 order-preserving integer
embedding, encrypted with Boldyreva OPE, and stored in a cloud-side
sorted index — range queries are two binary searches.  The ciphertexts
are themselves ordered numbers, which is maximal leakage (Table 2 puts
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

import bisect
import threading
from typing import Any

from repro.crypto.encoding import Value, encode_value, value_to_ordered_int
from repro.crypto.kernels.config import TOKEN_CACHE_CAPACITY
from repro.crypto.ope import Ope
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic, export_ring

DOMAIN_BITS = 40
RANGE_BITS = 56


class OpeGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayRangeQuery,
):
    """Trusted-zone half: order-preserving encryption of numeric codes."""

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
        self._code_cache = self.kernels.cache()
        self.ctx.call("setup")

    def _encode(self, value: Value) -> int:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TacticError(
                f"OPE protects numeric fields only, got "
                f"{type(value).__name__}"
            )
        return self._ope.encrypt(
            value_to_ordered_int(value, bits=DOMAIN_BITS)
        )

    def insert(self, doc_id: str, value: Value) -> None:
        self.ctx.call("insert", doc_id=doc_id, ciphertext=self._encode(value))

    # -- batch SPI ----------------------------------------------------------------
    # OPE's batch win is dedup + the node memo above, both exact.

    def token(self, value: Value) -> int:
        return self._encode(value)

    def tokens_many(self, values: list[Value]) -> list[int]:
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


class OpeCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudRangeQuery,
):
    """Untrusted-zone half: a sorted (ciphertext, doc_id) index."""

    def setup(self, **params: Any) -> None:
        self._map_name = self.ctx.state_key(b"ct")
        # Dispatch threads share the view below: writes, scans and
        # shard eviction hold this lock, so a migration never iterates
        # a dict an insert is resizing.
        self._lock = threading.Lock()
        # The sorted index is an in-memory view rebuilt from the durable
        # KV map, so a restarted cloud zone recovers it.
        self._by_doc: dict[str, int] = {
            key.decode(): int.from_bytes(blob, "big")
            for key, blob in self.ctx.kv.map_items(self._map_name)
        }
        self._sorted: list[tuple[int, str]] = sorted(
            (ciphertext, doc_id)
            for doc_id, ciphertext in self._by_doc.items()
        )

    def insert(self, doc_id: str, ciphertext: int) -> None:
        if not isinstance(ciphertext, int):
            raise TacticError("OPE ciphertext must be an integer")
        with self._lock:
            self.ctx.kv.map_put(self._map_name, doc_id.encode(),
                                ciphertext.to_bytes(8, "big"))
            previous = self._by_doc.get(doc_id)
            if previous is not None:
                index = bisect.bisect_left(self._sorted, (previous, doc_id))
                if index < len(self._sorted) and self._sorted[index] == (
                    previous, doc_id
                ):
                    self._sorted.pop(index)
            bisect.insort(self._sorted, (ciphertext, doc_id))
            self._by_doc[doc_id] = ciphertext

    def _slice(self, low: int | None, high: int | None) -> list[str]:
        with self._lock:
            start = 0 if low is None else bisect.bisect_left(
                self._sorted, (low, "")
            )
            end = len(self._sorted) if high is None else bisect.bisect_right(
                self._sorted, (high, chr(0x10FFFF))
            )
            return [doc_id for _, doc_id in self._sorted[start:end]]

    def range_query(self, low: int | None, high: int | None) -> list[str]:
        return self._slice(low, high)

    def ordered_range(self, low: int | None, high: int | None,
                      limit: int | None = None,
                      descending: bool = False) -> list[str]:
        ids = self._slice(low, high)
        if descending:
            ids.reverse()
        return ids if limit is None else ids[:limit]

    def ordered_range_keyed(self, low: int | None, high: int | None,
                            limit: int | None = None,
                            descending: bool = False
                            ) -> list[tuple[int, str]]:
        """Like ``ordered_range`` but keeps the sort keys, so a sharded
        router can order-merge partial results from several nodes."""
        with self._lock:
            start = 0 if low is None else bisect.bisect_left(
                self._sorted, (low, "")
            )
            end = len(self._sorted) if high is None else bisect.bisect_right(
                self._sorted, (high, chr(0x10FFFF))
            )
            pairs = self._sorted[start:end]
        if descending:
            pairs = pairs[::-1]
        if limit is not None:
            pairs = pairs[:limit]
        return pairs

    # -- shard migration SPI (doc-keyed) ---------------------------------------

    def _remove_entry(self, doc_id: str) -> None:
        with self._lock:
            ciphertext = self._by_doc.pop(doc_id, None)
            if ciphertext is None:
                return
            index = bisect.bisect_left(self._sorted, (ciphertext, doc_id))
            if index < len(self._sorted) and self._sorted[index] == (
                ciphertext, doc_id
            ):
                self._sorted.pop(index)
            self.ctx.kv.map_delete(self._map_name, doc_id.encode())

    def shard_export(self, spec: dict[str, Any]) -> list:
        ring, origin = export_ring(spec)
        with self._lock:
            entries = list(self._by_doc.items())
        return [
            (doc_id, ciphertext) for doc_id, ciphertext in entries
            if ring.owner(doc_id) != origin
        ]

    def shard_import(self, entries: list) -> None:
        for doc_id, ciphertext in entries:
            self.insert(doc_id, ciphertext)

    def shard_evict(self, spec: dict[str, Any]) -> None:
        ring, origin = export_ring(spec)
        with self._lock:
            foreign = [doc_id for doc_id in self._by_doc
                       if ring.owner(doc_id) != origin]
        for doc_id in foreign:
            self._remove_entry(doc_id)
