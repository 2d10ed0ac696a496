"""Mitra: forward- and backward-private SSE (Chamani et al., CCS 2018).

Protection class 2 (*identifiers*).  The gateway keeps a per-keyword
counter (the paper's 'Local storage' challenge for this tactic); each
update stores one entry at the pseudorandom address ``PRF(k_w, c)`` whose
payload — document id plus an add/delete flag — is masked with an
independent PRF pad.  Because addresses of future updates are
unpredictable without the counter, inserts leak nothing about past
queries (forward privacy), and because deletions are masked tombstones
resolved only at the gateway, the server never learns which entries
cancelled out (backward privacy of type II).

Search sends the ``c`` addresses; the cloud returns the masked payloads
and the gateway unmasks, replays tombstones and yields the surviving ids.
Entries are append-only and the counter names every one, so the gateway
memoises each keyword's surviving ids up to the count it folded, from
searches and from its own acknowledged writes: a search after this
gateway's own writes sends nothing, and one after ``k`` entries it did
not fold (another writer's) sends only those ``k`` addresses.

SPI surface (Table 2 row: 7 gateway / 5 cloud): Setup, Insertion,
DocIDGen, Update, Deletion, EqQuery, EqResolution // Setup, Insertion,
Update, Deletion, EqQuery.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.crypto.encoding import Value, encode_value
from repro.crypto.kernels.executor import LruCache
from repro.crypto.primitives.hmac_prf import prf, prg
from repro.errors import TacticError
from repro.spi import interfaces as spi
from repro.tactics.base import (
    CloudTactic,
    GatewayTactic,
    keyword_key,
    random_doc_id,
)

_ADD = 0
_DELETE = 1


def _xor_pad(pad_seed: bytes, data: bytes) -> bytes:
    pad = prg(pad_seed, len(data), label=b"mitra-pad")
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(pad, "big")).to_bytes(len(data), "big")


def _mask_payload(pad_seed: bytes, op: int, doc_id: str) -> bytes:
    return _xor_pad(pad_seed, bytes([op]) + doc_id.encode("utf-8"))


def _fold(alive: set[str], op: int, doc_id: str) -> None:
    """Replay one entry onto a keyword's surviving ids."""
    if op == _ADD:
        alive.add(doc_id)
    elif op == _DELETE:
        alive.discard(doc_id)
    else:
        raise TacticError(f"invalid Mitra op byte {op}")


def _extend(entries: list[tuple], memo: tuple | None) -> tuple | None:
    """``memo`` advanced by the ``(n, op, doc_id)`` entries (sorted by
    ``n``) that continue it without a gap; ``memo`` itself when none
    does.  No memo continues only from the keyword's first entry."""
    base, alive = memo or (0, frozenset())
    count, ids = base, set(alive)
    for n, op, doc_id in entries:
        if n > count + 1:
            break
        if n == count + 1:
            _fold(ids, op, doc_id)
            count = n
    return (count, frozenset(ids)) if count > base else memo


def _advance(memo: LruCache, by_key: dict[bytes, list[tuple]]) -> None:
    for key, entries in by_key.items():
        memo.update(key, partial(_extend, entries))


def _unmask_payload(pad_seed: bytes, masked: Any) -> tuple[int, str]:
    """``(op, doc_id)`` of one cloud entry, or :class:`TacticError` when
    the cloud sent something no gateway ever masked."""
    if not isinstance(masked, bytes) or not masked:
        raise TacticError("malformed Mitra payload")
    body = _xor_pad(pad_seed, masked)
    try:
        return body[0], body[1:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TacticError("Mitra payload holds no document id") from exc


class MitraGateway(
    GatewayTactic,
    spi.GatewaySetup,
    spi.GatewayInsertion,
    spi.GatewayDocIDGen,
    spi.GatewayUpdate,
    spi.GatewayDeletion,
    spi.GatewayEqQuery,
    spi.GatewayEqResolution,
):
    """Trusted-zone half: counters, trapdoors and tombstone resolution."""

    def setup(self) -> None:
        self._master = self.ctx.derive_key("index")
        #: Keyword memo: counter key -> ``(count, frozenset(alive ids))``
        #: folded over entries ``1..count``.  Taken per ``setup()``, so
        #: a re-key starts cold; keyed by the hashed keyword, never the
        #: plaintext.  Searches and acknowledged own writes fill it, so
        #: a keyword holds every live id written under it: at most
        #: ``TOKEN_CACHE_CAPACITY`` (4,096) keywords of ~450 B each plus
        #: ~115 B per live document of those keywords.
        self._memo = self.kernels.cache()
        self.ctx.call("setup")

    def generate_doc_id(self) -> str:
        return random_doc_id()

    # -- keyword state ---------------------------------------------------------

    def _keyword(self, value: Value) -> bytes:
        return encode_value(value)

    def _counter_key(self, keyword: bytes) -> bytes:
        # Hash the keyword so plaintext values never sit in gateway state.
        return self.ctx.state_key(b"cnt", prf(self._master, b"cnt", keyword))

    # -- update protocol ----------------------------------------------------------

    def _entry(self, op: int, doc_id: str, value: Value,
               wrote: list[tuple]) -> dict[str, bytes]:
        """Reserve the keyword's next counter, note the entry in
        ``wrote`` for :meth:`_on_ack`, and build it."""
        keyword = self._keyword(value)
        k_w = keyword_key(self._master, keyword)
        key = self._counter_key(keyword)
        count = self.ctx.local_kv.counter_increment(key)
        wrote.append((key, count, op, doc_id))
        counter_bytes = count.to_bytes(8, "big")
        address = prf(k_w, b"addr", counter_bytes)
        pad_seed = prf(k_w, b"pad", counter_bytes)
        return {"address": address,
                "payload": _mask_payload(pad_seed, op, doc_id)}

    def _append(self, op: int, doc_id: str, value: Value) -> None:
        wrote: list[tuple] = []
        self.ctx.call("insert", **self._entry(op, doc_id, value, wrote))
        self._on_ack(wrote)

    def _on_ack(self, wrote: list[tuple]) -> None:
        """Once the cloud acknowledges ``wrote``, fold it onto the memo
        of the key it was written under: one atomic update per keyword,
        in counter order, stopping at the first gap (an entry still in
        flight, or another writer's), which the next search fetches."""
        by_key: dict[bytes, list[tuple]] = {}
        for key, count, op, doc_id in sorted(wrote):
            by_key.setdefault(key, []).append((count, op, doc_id))
        self.ctx.after_ack(partial(_advance, self._memo, by_key))

    def insert(self, doc_id: str, value: Value) -> None:
        self._append(_ADD, doc_id, value)

    def index_many_begin(self, entries: list[tuple[str, Value]]):
        # The counters are reserved in finish, right before the entries
        # leave, as the per-entry protocol does.
        def finish() -> None:
            wrote: list[tuple] = []
            self._insert_many([self._entry(_ADD, doc_id, value, wrote)
                               for doc_id, value in entries])
            self._on_ack(wrote)

        return finish

    def delete(self, doc_id: str, value: Value) -> None:
        self._append(_DELETE, doc_id, value)

    def update(self, doc_id: str, old_value: Value,
               new_value: Value) -> None:
        self.delete(doc_id, old_value)
        self.insert(doc_id, new_value)

    # -- search protocol -------------------------------------------------------------

    def eq_query(self, value: Value) -> Any:
        """Fetch the entries past the keyword's memo: none when the
        counter has not moved, all ``1..c`` without a usable memo (cold,
        or a counter rolled back below it)."""
        keyword = self._keyword(value)
        key = self._counter_key(keyword)
        count = self.ctx.local_kv.counter_get(key)
        held = self._memo.get(key)
        cold = held is None or held[0] > count
        memo = (0, frozenset()) if cold else held
        masked: list = []
        if cold or count > memo[0]:
            k_w = keyword_key(self._master, keyword)
            masked = self.ctx.call("eq_query", addresses=[
                prf(k_w, b"addr", c.to_bytes(8, "big"))
                for c in range(memo[0] + 1, count + 1)
            ])
        return {"keyword": keyword, "key": key, "count": count,
                "memo": memo, "held": held, "masked": masked}

    def resolve_eq(self, raw: Any) -> set[str]:
        keyword = raw["keyword"]
        k_w = keyword_key(self._master, keyword)
        base, alive_before = raw["memo"]
        if base + len(raw["masked"]) != raw["count"]:
            raise TacticError("cloud lost a Mitra index entry")
        alive = set(alive_before)
        for index, masked in enumerate(raw["masked"], start=base + 1):
            if masked is None:
                raise TacticError("cloud lost a Mitra index entry")
            pad_seed = prf(k_w, b"pad", index.to_bytes(8, "big"))
            _fold(alive, *_unmask_payload(pad_seed, masked))
        # Stored once every entry up to the count unmasked, over a lower
        # count or the memo this search began from (so one a rolled-back
        # counter left ahead): a late fold never moves the memo back.
        fold = (raw["count"], frozenset(alive))
        self._memo.update(raw["key"], lambda old: (
            fold if old is None or old[0] < fold[0] or old is raw["held"]
            else old))
        return alive


class MitraCloud(
    CloudTactic,
    spi.CloudSetup,
    spi.CloudInsertion,
    spi.CloudUpdate,
    spi.CloudDeletion,
    spi.CloudEqQuery,
):
    """Untrusted-zone half: a flat pseudorandom-address store.

    Adds, deletes and updates are indistinguishable entries; the cloud
    routes them all through the same append path.
    """

    def setup(self, **params: Any) -> None:
        self._map_name = self.ctx.state_key(b"index")

    def insert(self, address: bytes, payload: bytes) -> None:
        if not isinstance(address, bytes) or not isinstance(payload, bytes):
            raise TacticError("Mitra entries are byte blobs")
        self.ctx.kv.map_put(self._map_name, address, payload)

    # Deletion and update are masked appends: same wire shape on purpose.
    def update(self, address: bytes, payload: bytes) -> None:
        self.insert(address=address, payload=payload)

    def delete(self, address: bytes, payload: bytes) -> None:
        self.insert(address=address, payload=payload)

    def eq_query(self, addresses: list[bytes]) -> list[bytes | None]:
        return [
            self.ctx.kv.map_get(self._map_name, address)
            for address in addresses
        ]
