"""The untrusted zone: cloud-side services.

A :class:`CloudZone` owns the cloud resources of the deployment view
(Fig. 3) — the document store ("MongoDB"), the KV secure-index store
("Redis") — and a :class:`repro.net.rpc.ServiceHost` exposing:

* ``admin`` — provisioning: create per-application stores, instantiate
  cloud tactic halves from the registry (the cloud side of the strategy
  pattern's dynamic loading).
* ``docs/<application>`` — encrypted-document CRUD, and the co-located
  find (``lookup_fetch``): a tactic half's id lookup answered together
  with the first chunk of its documents.
* ``tactic/<application>/<field>/<tactic>`` — one service per provisioned
  cloud tactic instance.

The zone is transport-agnostic: wrap ``zone.host`` in an
:class:`repro.net.InProcTransport` for single-process runs or serve it
with :class:`repro.net.TcpRpcServer` for a real two-process deployment.
"""

from __future__ import annotations

import functools
import threading
from pathlib import Path
from typing import Any, Callable

from repro.errors import TransportError
from repro.net.rpc import ServiceHost
from repro.spi.context import CloudTacticContext, service_name
from repro.stores.docstore import Document, DocumentStore
from repro.stores.inverted import InvertedIndex
from repro.stores.kv import KeyValueStore

#: Every zone's document store indexes the ``schema`` tag, so one
#: schema's ids are read off the index instead of a full scan.
SCHEMA_INDEX = ("schema",)


class DocumentService:
    """Encrypted-document CRUD over one application's docstore.

    Plaintext (non-sensitive) string fields are additionally fed into an
    inverted text index (the Elasticsearch role), so applications get
    ranked full-text search over the data they chose *not* to protect —
    sensitive fields never reach the index by construction (they arrive
    as an opaque encrypted body).
    """

    def __init__(self, store: DocumentStore,
                 lookup: Callable[[str, str, dict], list[str]]):
        self._store = store
        #: The zone's co-located id lookup (``CloudZone._index_lookup``).
        self._lookup = lookup
        self._text_index = InvertedIndex()
        # A durable store comes back replayed; its text index with it.
        for document in store.iter_documents():
            self._index_text(document)
        self._integrity = None

    def attach_integrity(self, tracker) -> None:
        """Enable proven reads (set by ``CloudZone.enable_integrity``)."""
        self._integrity = tracker

    def _index_text(self, document: Document) -> None:
        plain = document.get("plain") or {}
        text = " ".join(
            value for value in plain.values() if isinstance(value, str)
        )
        if text.strip():
            self._text_index.index(document["_id"], text)
        else:
            self._text_index.remove(document["_id"])

    def insert(self, document: Document) -> str:
        doc_id = self._store.insert(document)
        self._index_text(document)
        return doc_id

    def insert_many(self, documents: list[Document]) -> list[str]:
        """Bulk insert: one RPC for a whole batch of encrypted bodies."""
        return [self.insert(document) for document in documents]

    def get_many(self, doc_ids: list[str]) -> list[Document]:
        return self._store.get_many(doc_ids)

    def get_many_proven(self, doc_ids: list[str]) -> list[Document]:
        """Bulk proven fetch; unknown ids are skipped like get_many.

        Fetch and proofs are computed under the store lock so each proof
        is against the exact tree state the body was read from — a
        concurrent writer can never produce a false mismatch.
        """
        if self._integrity is None:
            raise TransportError("integrity is not enabled for this zone")
        with self._store._lock:  # noqa: SLF001 - fetch+prove atomically
            return self._integrity.prove_documents([
                (doc_id, self._store.get(doc_id))
                for doc_id in doc_ids if self._store.contains(doc_id)
            ])

    def lookup_fetch(self, index: str, query: str, args: dict,
                     chunk: int) -> dict:
        """A co-located find: ``query(**args)`` on the tactic half
        ``index`` of this zone, answered as ``{"ids": every matching id
        (sorted), "docs": the stored documents of the first chunk}``.
        Ids of documents this store does not hold come back without a
        document, exactly as ``get_many`` would skip them."""
        ids = self._lookup(index, query, args)
        return {"ids": ids, "docs": self.get_many(ids[:chunk])}

    def lookup_fetch_proven(self, index: str, query: str, args: dict,
                            chunk: int) -> dict:
        """``lookup_fetch`` with ``get_many_proven`` envelopes."""
        ids = self._lookup(index, query, args)
        return {"ids": ids, "docs": self.get_many_proven(ids[:chunk])}

    def replace(self, document: Document) -> None:
        self._store.replace(document)
        self._index_text(document)

    def delete(self, doc_id: str) -> bool:
        existed = self._store.delete(doc_id)
        if existed:
            self._text_index.remove(doc_id)
        return existed

    def count(self, query: Document | None = None) -> int:
        return self._store.count(query)

    def all_ids(self, schema: str | None = None) -> list[str]:
        return self._store.find_ids(None if schema is None
                                    else {"schema": schema})

    def find_plain(self, query: Document,
                   limit: int | None = None) -> list[str]:
        """Filter scan over plaintext (non-sensitive) sub-fields."""
        return self._store.find_ids(query, limit=limit)

    def find_text(self, query: str, limit: int = 10,
                  require_all: bool = False,
                  schema: str | None = None) -> list[tuple[str, float]]:
        """Ranked full-text search over plaintext string fields, of
        ``schema``'s documents only when one is given."""
        among = None if schema is None else set(self.all_ids(schema))
        return [
            (hit.doc_id, hit.score)
            for hit in self._text_index.search(query, limit=limit,
                                               require_all=require_all,
                                               among=among)
        ]


class CloudAdminService:
    """Provisioning endpoint the gateway drives at schema registration."""

    def __init__(self, zone: "CloudZone"):
        self._zone = zone

    def provision_application(self, application: str) -> str:
        self._zone.application_stores(application)
        return f"docs/{application}"

    def provision_tactic(self, application: str, field: str,
                         tactic: str) -> str:
        return self._zone.provision_tactic(application, field, tactic)

    def enable_integrity(self, application: str) -> str:
        return self._zone.enable_integrity(application)

    def list_services(self) -> list[str]:
        return self._zone.host.service_names()


class CloudZone:
    """The whole untrusted zone in one object."""

    def __init__(self, registry=None, data_dir: str | Path | None = None,
                 dedup_window: int = 1024, resilience=None):
        if registry is None:
            from repro.core.registry import default_registry

            registry = default_registry()
        self.registry = registry
        #: ``dedup_window`` bounds the idempotency-key memory that makes
        #: retried gateway writes apply-at-most-once (see ServiceHost).
        #: Passing the deployment's :class:`~repro.net.resilience
        #: .ResilienceConfig` instead keeps both zones on the one knob
        #: (its ``dedup_window`` wins over the plain parameter).
        if resilience is not None:
            dedup_window = resilience.dedup_window
        self.host = ServiceHost(dedup_window=dedup_window)
        self._data_dir = Path(data_dir) if data_dir else None
        self._kv: dict[str, KeyValueStore] = {}
        self._documents: dict[str, DocumentStore] = {}
        self._trackers: dict[str, Any] = {}
        self._lock = threading.RLock()
        self.host.register("admin", CloudAdminService(self))

    # -- per-application resources ---------------------------------------------

    def application_stores(self, application: str
                           ) -> tuple[KeyValueStore, DocumentStore]:
        with self._lock:
            if application not in self._kv:
                if self._data_dir is not None:
                    base = self._data_dir / application
                    kv = KeyValueStore(base, name="index")
                    documents = DocumentStore(base, name="documents",
                                              indexed_fields=SCHEMA_INDEX)
                else:
                    kv = KeyValueStore()
                    documents = DocumentStore(indexed_fields=SCHEMA_INDEX)
                self._kv[application] = kv
                self._documents[application] = documents
                self.host.register(f"docs/{application}", DocumentService(
                    documents, functools.partial(self._index_lookup,
                                                 application),
                ))
            return self._kv[application], self._documents[application]

    def _index_lookup(self, application: str, index: str, query: str,
                      args: dict) -> list[str]:
        """Run one id lookup on a tactic half of ``application`` whose
        descriptor declares ``colocated_lookup`` — the documents service
        calls it through this zone's host for a co-located find."""
        tactic = index.rsplit("/", 1)[-1]
        if (not index.startswith(f"tactic/{application}/")
                or query not in ("eq_query", "range_query")
                or not self.registry.descriptor(tactic).colocated_lookup):
            raise TransportError(
                f"{index}.{query} is not a co-located id lookup"
            )
        return sorted(getattr(self.host.get(index), query)(**args))

    # -- tactic provisioning -------------------------------------------------------

    def provision_tactic(self, application: str, field: str,
                         tactic: str) -> str:
        """Instantiate and expose one cloud tactic half (idempotent)."""
        name = service_name(application, field, tactic)
        with self._lock:
            try:
                self.host.get(name)
                return name  # already provisioned
            except TransportError:
                pass
            kv, documents = self.application_stores(application)
            registration = self.registry.get(tactic)
            context = CloudTacticContext(
                application=application,
                field=field,
                tactic=tactic,
                kv=kv,
                documents=documents,
            )
            instance = registration.cloud_cls(context)
            self.host.register(name, instance)
            return name

    def enable_integrity(self, application: str) -> str:
        """Attach an integrity tracker to one application (idempotent).

        Creates the per-domain Merkle trees over the application's
        stores, registers the ``integrity/<application>`` report/proof
        service, and switches the document service to support proven
        reads.  The import is local so zones that never enable
        integrity pay nothing for the subsystem.
        """
        name = f"integrity/{application}"
        with self._lock:
            if application in self._trackers:
                return name
            from repro.integrity.tracker import (
                IntegrityService,
                IntegrityTracker,
            )

            kv, documents = self.application_stores(application)
            tracker = IntegrityTracker(kv, documents)
            self._trackers[application] = tracker
            self.host.register(name, IntegrityService(tracker))
            self.host.get(f"docs/{application}").attach_integrity(tracker)
            return name

    def integrity_tracker(self, application: str) -> Any:
        """Direct access to a tracker (tests, audits); None if disabled."""
        with self._lock:
            return self._trackers.get(application)

    def tactic_instance(self, application: str, field: str,
                        tactic: str) -> Any:
        """Direct access to a provisioned instance (tests, metrics)."""
        return self.host.get(service_name(application, field, tactic))

    def close(self) -> None:
        with self._lock:
            for store in self._kv.values():
                store.close()
            for store in self._documents.values():
                store.close()
