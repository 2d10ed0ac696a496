"""Shared machinery for tactic implementations.

Tactics are distributed protocols: a gateway half (trusted zone, holds
keys) and a cloud half (untrusted zone, holds encrypted structures).  Both
halves receive their dependency context (§4.2 commonalities) at
construction.  This module adds the pieces nearly every tactic needs:

* :class:`GatewayTactic` / :class:`CloudTactic` — context-holding bases,
  including the gateway-side **batch SPI** (``seal_many`` /
  ``tokens_many`` / ``index_many``): default implementations loop over
  the per-value protocol methods, so every tactic is batch-callable,
  while the hot tactics override them with vectorised kernels
  (dedup/LRU token maps, fixed-base Paillier masks).
  ``index_many_begin`` splits a batch insertion into a *begin* phase
  (all the crypto) and a *finish* callable (network: emit the index
  entries), which is what lets the plan engine's one bulk-insert loop
  book crypto and wire time separately and finish every field into a
  single batch frame.  A batch finish sends its entries as one
  ``insert_many`` slot, which every cloud half inherits.
* :class:`IdCipher` — encryption of document identifiers stored inside
  secure indexes (AEAD, so index values are IND-CPA blobs).
* :func:`residue` — the range check the aggregate cloud halves apply
  to every ciphertext component before storing it.
* :func:`canonical_term` — the ``field=value`` keyword encoding used by
  the SSE tactics, built on the canonical value codec.
* :func:`random_doc_id` — the DocIDGen implementation shared by tactics
  that generate unlinkable identifiers.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.crypto.encoding import Value, encode_value
from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.kernels.executor import CryptoExecutor, inline_executor
from repro.crypto.primitives.hmac_prf import prf
from repro.crypto.primitives.random import default_random
from repro.crypto.symmetric import Aead
from repro.errors import TacticError
from repro.shard.ring import HashRing, spec_ring
from repro.spi.context import CloudTacticContext, GatewayTacticContext


class GatewayTactic:
    """Base for gateway-side tactic halves."""

    def __init__(self, ctx: GatewayTacticContext):
        self.ctx = ctx

    # -- crypto kernel access ----------------------------------------------------

    @property
    def kernels(self) -> CryptoExecutor:
        """The runtime's shared kernel dispatcher (inline fallback for
        bare harnesses constructed without one)."""
        kernels = getattr(self.ctx, "kernels", None)
        return kernels if kernels is not None else inline_executor()

    @property
    def crypto(self) -> CryptoConfig:
        return self.kernels.config

    # -- batch SPI ---------------------------------------------------------------
    # Default implementations loop over the per-value protocol methods,
    # so the batch surface exists on every tactic — the plan engine's
    # bulk insert calls it for every configuration.

    def token(self, value: Value) -> Any:
        """The single-value search-token/code hook behind ``tokens_many``.

        Only meaningful for tactics whose equality/range protocol is
        driven by a deterministic per-value token (DET seals,
        blind-index tags, OPE/ORE codes); stateful-protocol tactics
        (Sophos, Mitra) have no such surface.
        """
        raise TacticError(
            f"{type(self).__name__} exposes no token surface"
        )

    def seal_many(self, values: list[Value]) -> list[bytes]:
        """Batch SecureEnc: one sealed blob per value."""
        return [self.seal(value) for value in values]  # type: ignore[attr-defined]

    def tokens_many(self, values: list[Value]) -> list[Any]:
        """Batch token derivation: one token per value, order-preserving."""
        return [self.token(value) for value in values]

    def index_many(self, entries: list[tuple[str, Value]]) -> None:
        """Batch Insertion over ``(doc_id, value)`` pairs."""
        self.index_many_begin(entries)()

    def index_many_begin(
        self, entries: list[tuple[str, Value]]
    ) -> Callable[[], None]:
        """Start a batch insertion; the returned callable completes it.

        The *begin* phase performs the plaintext-dependent crypto;
        calling the returned *finish* emits the index RPCs.  The engine
        begins every field of a bulk write first and finishes them in
        order into one batch-collector scope.  The default is the
        general case: the per-entry protocol loop, entirely in finish.
        """
        def finish() -> None:
            for doc_id, value in entries:
                self.insert(doc_id, value)  # type: ignore[attr-defined]

        return finish

    def _insert_many(self, rows: list[dict[str, Any]]) -> None:
        """A batch finish's send: one ``insert_many`` slot, each row the
        keyword arguments of the per-entry ``insert``."""
        if rows:
            self.ctx.call("insert_many", entries=rows)


class CloudTactic:
    """Base for cloud-side tactic halves.

    Provides both halves of the shard-migration SPI.  The whole key
    namespace of this tactic instance relocates via
    ``shard_dump``/``shard_load``/``shard_drop``; pinned tactics (BIEX)
    rely on exactly this.  Entry-keyed tactics keep one entry per shard
    key (a document id or an index address) in the KV map they name
    ``_map_name``, and ``shard_export``/``shard_import``/``shard_evict``
    move only the entries whose ring owner changed, as raw
    ``(key, blob)`` pairs.  A tactic with structures derived from that
    map overrides the two per-entry hooks, ``_import_entry`` and
    ``_evict_entry``.
    """

    #: The ``shard key -> blob`` KV map of an entry-keyed tactic.
    _map_name: bytes

    def __init__(self, ctx: CloudTacticContext):
        self.ctx = ctx

    def insert_many(self, entries: list[dict[str, Any]]) -> None:
        """Batch Insertion: the per-entry ``insert`` (and its checks)
        over each entry's keyword arguments, in order."""
        for entry in entries:
            self.insert(**entry)  # type: ignore[attr-defined]

    def shard_dump(self) -> dict[str, Any]:
        """Everything this instance stores, as a wire-shippable blob."""
        return self.ctx.kv.namespace_dump(self.ctx.state_key(b""))

    def shard_load(self, dump: dict[str, Any]) -> None:
        self.ctx.kv.namespace_load(dump)

    def shard_drop(self) -> int:
        return self.ctx.kv.namespace_drop(self.ctx.state_key(b""))

    def shard_export(self, spec: dict[str, Any]) -> list:
        """The entries this node no longer owns under ``spec``'s ring."""
        ring, origin = export_ring(spec)
        return [
            (key, blob)
            for key, blob in self.ctx.kv.map_items(self._map_name)
            if ring.owner(key) != origin
        ]

    def shard_import(self, entries: list) -> None:
        for key, blob in entries:
            self._import_entry(key, blob)

    def shard_evict(self, spec: dict[str, Any]) -> None:
        ring, origin = export_ring(spec)
        for key, blob in self.ctx.kv.map_items(self._map_name):
            if ring.owner(key) != origin:
                self._evict_entry(key, blob)

    def _import_entry(self, key: bytes, blob: bytes) -> None:
        self.ctx.kv.map_put(self._map_name, key, blob)

    def _evict_entry(self, key: bytes, blob: bytes) -> None:
        self.ctx.kv.map_delete(self._map_name, key)

    def state_digest(self) -> str:
        """Order-independent digest of this instance's secure-index state.

        The integrity subsystem's tactic SPI: a hex commitment over the
        same ``shard_dump`` enumeration the migration SPI ships, so the
        digest is stable across resharding and restarts.  Tactics with
        volatile caches outside their kv namespace need no override —
        only durable index state is committed.
        """
        from repro.integrity.tracker import digest_of_namespace_dump

        return digest_of_namespace_dump(self.shard_dump())


def export_ring(spec: dict[str, Any]) -> tuple[HashRing, str | None]:
    """Rebuild ``(ring, origin)`` for a ``shard_export``/``shard_evict``
    ownership check.

    An entry leaves ``origin`` when ``ring.owner(key) != origin`` — which
    covers both directions: on a node *join* the origin is still a ring
    member and sheds ~1/N of its keys; on a *leave* the origin is absent
    from the new ring, so every entry tests foreign and drains.
    """
    return spec_ring(spec)


class IdCipher:
    """Encrypts/decrypts document ids stored in secure indexes."""

    def __init__(self, key: bytes):
        self._aead = Aead(key[:16])

    def seal(self, doc_id: str) -> bytes:
        return self._aead.encrypt(doc_id.encode("utf-8"))

    def open(self, blob: bytes) -> str:
        return self._aead.decrypt(blob).decode("utf-8")


def residue(value: Any, modulus: int) -> int:
    """A ciphertext component off the wire, checked: an ``int`` in
    ``[0, modulus)`` or :class:`TacticError`."""
    if type(value) is not int or not 0 <= value < modulus:
        raise TacticError("ciphertext component out of range")
    return value


def canonical_term(field: str, value: Value) -> bytes:
    """The keyword bytes for a ``field == value`` term."""
    return field.encode("utf-8") + b"\x00" + encode_value(value)


def keyword_key(master: bytes, term: bytes, purpose: bytes = b"kw") -> bytes:
    """Per-keyword subkey derivation used by the SSE tactics."""
    return prf(master, purpose, term)


def random_doc_id() -> str:
    """Generate an unlinkable 128-bit document identifier."""
    return default_random().token_bytes(16).hex()
