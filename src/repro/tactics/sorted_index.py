"""The halves both order tactics share: one ``(key, doc_id)`` index.

OPE and ORE sit in the same leakage class (Table 2, class 5: *order*)
and run the same protocol.  The gateway maps a numeric value to an
ordered integer code and encrypts it; the cloud keeps a list of
``(key, doc_id)`` pairs in ascending order, so a range query is two
binary searches.  They differ only in the cipher and so in what a key
is: OPE's ciphertext is itself an ordered integer, ORE's is an
:class:`~repro.crypto.ore.OreCiphertext` that orders through the public
``compare``.

Ties break by ``doc_id`` everywhere: on one zone, across shards (the
router merges by the same pair) and after a restart rebuilds the view
from the durable KV map, so a ``limit`` that cuts through equal values
returns the same documents on every topology.

Inserting an existing document id replaces its entry (insert-as-upsert),
which keeps the SPI surface at Table 2's 3/3 interfaces.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any

from repro.crypto.encoding import Value, encode_value, value_to_ordered_int
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import CloudTactic, GatewayTactic


class SortedIndexGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayRangeQuery,
):
    """Trusted-zone half of an order tactic.

    A subclass names the code width ``CODE_BITS``, builds its cipher in
    ``setup`` before calling this one, and encrypts a code in
    :meth:`_encrypt`.  Encryption is deterministic, so batches dedup
    exactly through the kernels' token cache.
    """

    CODE_BITS: int

    def _encrypt(self, code: int) -> Any:
        raise NotImplementedError

    def setup(self) -> None:
        self._code_cache = self.kernels.cache()
        self.ctx.call("setup")

    def _encode(self, value: Value) -> Any:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TacticError(
                f"{self.ctx.tactic.upper()} protects numeric fields only, "
                f"got {type(value).__name__}"
            )
        return self._encrypt(value_to_ordered_int(value,
                                                  bits=self.CODE_BITS))

    def insert(self, doc_id: str, value: Value) -> None:
        self.ctx.call("insert", doc_id=doc_id, ciphertext=self._encode(value))

    # -- batch SPI -------------------------------------------------------

    def token(self, value: Value) -> Any:
        return self._encode(value)

    def tokens_many(self, values: list[Value]) -> list[Any]:
        return self.kernels.dedup_map(
            values, self._encode, key=encode_value,
            cache=self._code_cache,
        )

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        codes = self.tokens_many([value for _, value in entries])
        return lambda: self._insert_many([
            {"doc_id": doc_id, "ciphertext": code}
            for (doc_id, _), code in zip(entries, codes)
        ])

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
        return self.ctx.call("ordered_range", **self.range_args(low, high),
                             limit=limit, descending=descending)


class SortedIndexCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudRangeQuery,
):
    """Untrusted-zone half of an order tactic: a sorted ``(key, doc_id)``
    view over the durable ``doc_id -> blob`` KV map.

    Subclasses say what a key is: :meth:`_entry` checks a wire ciphertext
    and returns its ``(key, blob)``, :meth:`_unpack` reads a stored blob
    back, and :meth:`_wire` turns a key into what a keyed scan ships.
    """

    def _entry(self, ciphertext: Any) -> tuple[Any, bytes]:
        raise NotImplementedError

    def _unpack(self, blob: bytes) -> Any:
        raise NotImplementedError

    def _wire(self, key: Any) -> Any:
        return key

    def setup(self, **params: Any) -> None:
        self._map_name = self.ctx.state_key(b"ct")
        # Dispatch threads share the view below: writes and scans hold
        # this lock, so a scan never slices a list an insert is moving.
        self._lock = threading.Lock()
        # The view is rebuilt from the durable KV map, so a restarted
        # cloud zone recovers it.
        self._by_doc: dict[str, Any] = {
            key.decode(): self._unpack(blob)
            for key, blob in self.ctx.kv.map_items(self._map_name)
        }
        self._sorted: list[tuple[Any, str]] = sorted(
            (key, doc_id) for doc_id, key in self._by_doc.items()
        )

    def insert(self, doc_id: str, ciphertext: Any) -> None:
        key, blob = self._entry(ciphertext)
        self._put(doc_id, key, blob)

    def _put(self, doc_id: str, key: Any, blob: bytes) -> None:
        with self._lock:
            self.ctx.kv.map_put(self._map_name, doc_id.encode(), blob)
            self._drop(doc_id)
            bisect.insort(self._sorted, (key, doc_id))
            self._by_doc[doc_id] = key

    def _drop(self, doc_id: str) -> None:
        """Take ``doc_id`` out of the view; the caller holds the lock."""
        key = self._by_doc.pop(doc_id, None)
        if key is None:
            return
        index = bisect.bisect_left(self._sorted, (key, doc_id))
        if index < len(self._sorted) and self._sorted[index][1] == doc_id:
            self._sorted.pop(index)

    def _slice(self, low: Any, high: Any, limit: int | None = None,
               descending: bool = False) -> list[tuple[Any, str]]:
        """The pairs with ``low <= key <= high`` (a ``None`` bound is
        open) in direction, the first ``limit`` of them."""
        with self._lock:
            start = 0 if low is None else bisect.bisect_left(
                self._sorted, (self._entry(low)[0], "")
            )
            end = len(self._sorted) if high is None else bisect.bisect_right(
                self._sorted, (self._entry(high)[0], chr(0x10FFFF))
            )
            pairs = self._sorted[start:end]
        if descending:
            pairs.reverse()
        return pairs if limit is None else pairs[:limit]

    def range_query(self, low: Any, high: Any) -> list[str]:
        return [doc_id for _, doc_id in self._slice(low, high)]

    def ordered_range(self, low: Any, high: Any, limit: int | None = None,
                      descending: bool = False) -> list[str]:
        return [doc_id for _, doc_id in self._slice(low, high, limit,
                                                    descending)]

    def ordered_range_keyed(self, low: Any, high: Any,
                            limit: int | None = None,
                            descending: bool = False) -> list[tuple]:
        """Like ``ordered_range`` but keeps each id's key (in its wire
        form), so a sharded router can order-merge partial results."""
        return [(self._wire(key), doc_id) for key, doc_id in self._slice(
            low, high, limit, descending
        )]

    # -- shard migration hooks -------------------------------------------

    def _import_entry(self, key: bytes, blob: bytes) -> None:
        self._put(key.decode(), self._unpack(blob), blob)

    def _evict_entry(self, key: bytes, blob: bytes) -> None:
        with self._lock:
            self._drop(key.decode())
            self.ctx.kv.map_delete(self._map_name, key)
