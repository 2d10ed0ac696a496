"""2Lev-style dynamic encrypted multimap (Cash et al., NDSS 2014 lineage).

The Clusion library the paper builds on provides 2Lev as its workhorse
encrypted multimap; BIEX-2Lev composes several of them.  This module
implements the equivalent substrate:

* :class:`TwoLevClient` (gateway): derives per-label search tokens and
  value keys, encrypts the stored items (document-id blobs) and decrypts
  lookup responses.  The server never sees labels or items in the clear.
* :class:`TwoLevStore` (cloud): a token-addressed bucket store.  Each
  bucket maps an opaque per-document *tag* to a signed reference count
  plus the encrypted item, which makes add/update/delete idempotent
  without client-side tombstone replay.

Leakage: bucket sizes (result counts per blinded label) and tag equality
within a bucket — the standard dynamic-multimap profile underlying the
*predicates*-level classification of BIEX.
"""

from __future__ import annotations

from repro.crypto.primitives.hmac_prf import prf
from repro.crypto.symmetric import Aead
from repro.errors import TacticError
from repro.stores.kv import KeyValueStore


class TwoLevClient:
    """Gateway-side keying and encryption for one multimap."""

    def __init__(self, master_key: bytes, namespace: bytes = b"mm"):
        if not master_key:
            raise TacticError("multimap master key must be non-empty")
        self._master = master_key
        self._namespace = namespace

    def token(self, label: bytes) -> bytes:
        """The opaque bucket address the cloud sees for ``label``."""
        return prf(self._master, b"token", self._namespace, label)

    def _value_aead(self, label: bytes) -> Aead:
        key = prf(self._master, b"value", self._namespace, label)
        return Aead(key[:16])

    def seal_item(self, label: bytes, item: bytes) -> bytes:
        return self._value_aead(label).encrypt(item)

    def open_item(self, label: bytes, blob: bytes) -> bytes:
        return self._value_aead(label).decrypt(blob)


def _pack(count: int, enc_item: bytes) -> bytes:
    return count.to_bytes(4, "big", signed=True) + enc_item


def _unpack(packed: bytes) -> tuple[int, bytes]:
    return int.from_bytes(packed[:4], "big", signed=True), packed[4:]


class TwoLevStore:
    """Cloud-side bucket store (token -> {tag -> (count, enc_item)})."""

    def __init__(self, kv: KeyValueStore, namespace: bytes):
        self._kv = kv
        self._namespace = namespace

    def _bucket(self, token: bytes) -> bytes:
        return self._namespace + b"/bucket/" + token

    def upsert(self, token: bytes, tag: bytes, enc_item: bytes,
               delta: int = 1) -> None:
        """Adjust the reference count of ``tag`` in the bucket.

        A positive net count means the item is live; deletes decrement and
        a re-insert after delete revives the entry — no tombstone replay
        needed at the gateway.
        """
        bucket = self._bucket(token)
        existing = self._kv.map_get(bucket, tag)
        if existing is None:
            count = delta
        else:
            count = _unpack(existing)[0] + delta
        if enc_item == b"" and existing is not None:
            enc_item = _unpack(existing)[1]
        self._kv.map_put(bucket, tag, _pack(count, enc_item))

    def lookup(self, token: bytes) -> list[tuple[bytes, bytes]]:
        """Live ``(tag, enc_item)`` pairs of a bucket."""
        results = []
        for tag, packed in self._kv.map_items(self._bucket(token)):
            count, enc_item = _unpack(packed)
            if count > 0:
                results.append((tag, enc_item))
        return results

    def contains(self, token: bytes, tag: bytes) -> bool:
        packed = self._kv.map_get(self._bucket(token), tag)
        return packed is not None and _unpack(packed)[0] > 0

    def bucket_size(self, token: bytes) -> int:
        return sum(
            1 for _, packed in self._kv.map_items(self._bucket(token))
            if _unpack(packed)[0] > 0
        )
