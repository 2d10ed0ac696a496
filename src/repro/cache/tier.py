"""The gateway read-cache tier: tokens, results, documents.

Three levels, all trusted-zone-resident and all *coherence-checked*:

* **Token caches** (level 1) live inside the crypto executor / tactic
  instances (:meth:`repro.crypto.kernels.executor.CryptoExecutor.cache`)
  in every configuration, tier or not, and memoise deterministic
  trapdoors — DET seals, blind-index HSM-OPRF tokens, OPE/ORE codes —
  per plaintext value under the instance's key material.  They need no
  freshness protocol: the mapping is a pure function of the key epoch,
  and key rotation rebuilds the instances.  The tier only reports them.

* **The search-result cache** (level 2) keys whole query results by
  compiled plan shape + parameter values + principal.  Entries carry
  the coherence token captured *before* the query executed; a hit is
  served only while the current token still equals it — with no write
  since the last ledger sync, a check that never leaves the gateway.
  Parameter plaintext never lands in a key: the key holds a SHA-256
  digest of the (shape, params) tuple.

* **The document cache** (level 3) holds decrypted documents (and
  negative entries for missing ids) per (schema, principal, id),
  invalidated by local writes (read-your-writes) and by any freshness
  advance — a ledger stamp that moved, a topology epoch bump, or a key
  rotation — for cross-gateway writes.

Coherence protocol
------------------

The *coherence token* is ``(topology epoch, key-root epoch, ledger
stamp)``; result entries additionally carry the schema's local
write-version.  Fill tokens are captured when a read **begins** (before
any id resolution or fetch), so state that advances mid-operation makes
the freshly stored entries fail their first validation instead of
serving the in-between snapshot.  Fills and hit validations are the
same call, :meth:`VerifyingTransport.coherence_stamp`: the ledger
re-syncs (``report()`` per shard) only when the HSM write counter that
every gateway sharing the HSM advances around each write has moved, so
a write from any of them turns the next hit into a miss, and a hit with
no write in between is validated locally.  A local hit trusts that
counter and plaintext this gateway verified itself; a cloud-side
rollback surfaces at the next read that reaches the cloud.  A tampered
or rolled-back report raises through
:meth:`FreshnessLedger.accept_report` exactly as on an uncached
verified read.  Topology and key epochs are part of the token too, so
a reshard or a rotation still turns hits into misses.

Without integrity configured the ledger stamp is ``None`` and coherence
degrades to local write-versions plus TTL — correct under the
single-writer-per-gateway deployment, bounded-staleness otherwise
(which is why the concurrent-writer benchmarks run with integrity on).

Leakage admission: a schema whose sensitive fields include any class
below :data:`repro.cache.config.PLAINTEXT_FLOOR` (a C1 field) is never
admitted to the plaintext-bearing levels; id-only and count results
carry no field plaintext and cache regardless.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterable

from repro.cache.config import (
    DOCUMENT_CAPACITY,
    DOCUMENT_MAX_BYTES,
    DOCUMENT_TTL_S,
    PLAINTEXT_FLOOR,
    RESULT_CAPACITY,
    RESULT_TTL_S,
)
from repro.cache.lru import TtlLruCache
from repro.errors import TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gateway.service import GatewayRuntime

#: Lookup sentinels: ``MISS`` — nothing (valid) cached; ``NEGATIVE`` —
#: the id is known-absent (cached DocumentNotFound).
MISS = object()
NEGATIVE = object()

#: The requesting principal, installed per logical operation by the
#: gateway runtime (and defaulting to the shared anonymous scope for
#: direct embedded use).  Context-local like the batch scopes, so
#: concurrent operations on pooled threads or asyncio tasks never see
#: each other's principal.
_PRINCIPAL: ContextVar[str] = ContextVar(
    "datablinder_cache_principal", default=""
)


def set_principal(principal: str | None):
    """Bind the cache principal for the current context."""
    return _PRINCIPAL.set(principal or "")


def current_principal() -> str:
    return _PRINCIPAL.get()


def _approx_size(document: Any) -> int:
    """Cheap plaintext-size estimate for the byte budget."""
    from repro.net import message

    try:
        return len(message.encode(document))
    except TransportError:
        return 256


def _copy_result(value: Any) -> Any:
    if isinstance(value, list):
        return copy.deepcopy(value)
    if isinstance(value, set):
        return set(value)
    if isinstance(value, dict):
        return copy.deepcopy(value)
    return value


class GatewayCacheTier:
    """Owner of the result/document caches and the coherence protocol."""

    def __init__(self, runtime: "GatewayRuntime"):
        self.runtime = runtime
        self.documents = TtlLruCache(DOCUMENT_CAPACITY, ttl_s=DOCUMENT_TTL_S,
                                     max_bytes=DOCUMENT_MAX_BYTES)
        self.results = TtlLruCache(RESULT_CAPACITY, ttl_s=RESULT_TTL_S)
        self._write_versions: dict[str, int] = {}
        self._admitted: dict[str, bool] = {}
        self._lock = threading.Lock()
        self.coherence_validations = 0
        self.resynced_validations = 0
        self.stamp_mismatches = 0

    # -- leakage admission ---------------------------------------------------

    def register_schema(self, schema) -> None:
        """Decide plaintext admission for one schema, once."""
        admitted = all(
            int(spec.annotation.protection_class) >= PLAINTEXT_FLOOR
            for spec in schema.sensitive_fields()
        )
        with self._lock:
            self._admitted[schema.name] = admitted

    def admits_plaintext(self, schema_name: str) -> bool:
        with self._lock:
            return self._admitted.get(schema_name, False)

    # -- local write-versioning ---------------------------------------------

    def write_version(self, schema_name: str) -> int:
        with self._lock:
            return self._write_versions.get(schema_name, 0)

    def note_local_write(self, schema_name: str,
                         doc_ids: Iterable[str] = ()) -> None:
        """Read-your-writes: bump the schema's version (dropping its
        result entries lazily) and invalidate the written ids — positive
        *and* negative entries, so an insert of a previously-missing id
        clears its cached absence."""
        with self._lock:
            self._write_versions[schema_name] = (
                self._write_versions.get(schema_name, 0) + 1
            )
        ids = set(doc_ids)
        if ids:
            self.documents.invalidate_where(
                lambda key: key[0] == schema_name and key[2] in ids
            )

    # -- coherence tokens ----------------------------------------------------

    def token(self, validating: bool = False) -> tuple:
        """``(topology epoch, key-root epoch, ledger stamp)``.

        One call both for stamping entries (captured before a read
        begins) and for validating a hit; ``validating`` only counts the
        check, as local or re-synced.  Raises
        :class:`repro.errors.IntegrityError` /
        :class:`repro.errors.StaleStateError` when a re-synced report is
        itself tampered or rolled back, exactly as a verified fetch
        would.
        """
        verifier = self.runtime.verifier
        ledger_stamp, resynced = (
            verifier.coherence_stamp() if verifier is not None
            else (None, False)
        )
        if validating:
            with self._lock:
                self.coherence_validations += 1
                self.resynced_validations += resynced
        return (
            self.runtime.topology_epoch(),
            self.runtime.keystore.root_epoch,
            ledger_stamp,
        )

    def note_stamp_mismatch(self) -> None:
        with self._lock:
            self.stamp_mismatches += 1

    # -- document level ------------------------------------------------------

    def read_scope(self, schema_name: str) -> "DocumentReadScope | None":
        """A per-operation view over the document cache, or ``None``
        when the schema is not admitted."""
        if not self.admits_plaintext(schema_name):
            return None
        return DocumentReadScope(self, schema_name)

    # -- result level --------------------------------------------------------

    def _result_key(self, schema_name: str, plan_key: Any,
                    extra: Any) -> tuple:
        digest = hashlib.sha256(
            repr((plan_key, extra)).encode()
        ).hexdigest()
        return (schema_name, current_principal(), digest)

    def result_lookup(self, schema_name: str, plan_key: Any, extra: Any,
                      plaintext: bool) -> Any:
        if plaintext and not self.admits_plaintext(schema_name):
            return MISS
        key = self._result_key(schema_name, plan_key, extra)
        value, token, found = self.results.lookup(key)
        if not found:
            return MISS
        expected = (self.token(validating=True),
                    self.write_version(schema_name))
        if token != expected:
            self.results.invalidate(key)
            self.note_stamp_mismatch()
            return MISS
        return _copy_result(value)

    def result_fill_token(self, schema_name: str) -> tuple:
        """Captured before executing the query the entry will hold."""
        return (self.token(), self.write_version(schema_name))

    def result_store(self, schema_name: str, plan_key: Any, extra: Any,
                     value: Any, fill_token: tuple,
                     plaintext: bool) -> None:
        if plaintext and not self.admits_plaintext(schema_name):
            return
        key = self._result_key(schema_name, plan_key, extra)
        self.results.put(key, _copy_result(value), token=fill_token)

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        token_stats = self.runtime.kernels.token_cache_stats()
        with self._lock:
            coherence = {
                "validations": {
                    "local": (self.coherence_validations
                              - self.resynced_validations),
                    "resynced": self.resynced_validations,
                },
                "stamp_mismatches": self.stamp_mismatches,
            }
            admitted = dict(self._admitted)
        return {
            "tokens": token_stats,
            "results": self.results.stats(),
            "documents": self.documents.stats(),
            "coherence": coherence,
            "admitted": admitted,
        }


class DocumentReadScope:
    """One read operation's validated window onto the document cache.

    The fill token is captured at construction — before the operation
    resolves ids or fetches anything — and the validation token is
    computed lazily on the first actual hit, then memoised, so one
    operation checks the ledger once however many of its candidate ids
    hit.
    """

    __slots__ = ("_tier", "_schema", "_principal", "_fill", "_validated")

    def __init__(self, tier: GatewayCacheTier, schema_name: str):
        self._tier = tier
        self._schema = schema_name
        self._principal = current_principal()
        self._fill = tier.token()
        self._validated: tuple | None = None

    def _key(self, doc_id: str) -> tuple:
        return (self._schema, self._principal, doc_id)

    def _validation(self) -> tuple:
        if self._validated is None:
            self._validated = self._tier.token(validating=True)
        return self._validated

    def lookup(self, doc_id: str) -> Any:
        """``MISS``, ``NEGATIVE``, or a private copy of the document."""
        cache = self._tier.documents
        value, token, found = cache.lookup(self._key(doc_id))
        if not found:
            return MISS
        if token != self._validation():
            cache.invalidate(self._key(doc_id))
            self._tier.note_stamp_mismatch()
            return MISS
        if value is NEGATIVE:
            return NEGATIVE
        return copy.deepcopy(value)

    def store(self, doc_id: str, document: dict) -> None:
        self._tier.documents.put(
            self._key(doc_id), copy.deepcopy(document),
            token=self._fill, size=_approx_size(document),
        )

    def store_negative(self, doc_id: str) -> None:
        self._tier.documents.put(
            self._key(doc_id), NEGATIVE, token=self._fill, size=1
        )
