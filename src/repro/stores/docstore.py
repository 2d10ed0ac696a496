"""Mongo-like document store.

The paper stores encrypted documents in "document-oriented databases, e.g.,
MongoDB and Elasticsearch".  This module is that substrate: documents are
flat-or-nested dicts addressed by a ``_id``, with filter-based queries, a
small ``$``-operator language and optional secondary indexes on chosen
fields.  In the encrypted deployment the indexed values are ciphertext
blobs (DET tokens), so indexes treat values as opaque, hashable terms.

Thread-safe; optionally persisted via the write-ahead log.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import DocumentNotFound, StoreError
from repro.stores.persistence import Record, SnapshotStore, WriteAheadLog

Document = dict[str, Any]


def _get_path(document: Document, path: str) -> Any:
    """Resolve a dotted field path; missing segments resolve to None."""
    value: Any = document
    for segment in path.split("."):
        if not isinstance(value, dict) or segment not in value:
            return None
        value = value[segment]
    return value


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda v, arg: v == arg,
    "$ne": lambda v, arg: v != arg,
    "$gt": lambda v, arg: v is not None and v > arg,
    "$gte": lambda v, arg: v is not None and v >= arg,
    "$lt": lambda v, arg: v is not None and v < arg,
    "$lte": lambda v, arg: v is not None and v <= arg,
    "$in": lambda v, arg: v in arg,
    "$nin": lambda v, arg: v not in arg,
    "$exists": lambda v, arg: (v is not None) == bool(arg),
}


def matches(document: Document, query: Document) -> bool:
    """Evaluate a Mongo-style filter against a document.

    Supports field equality, the comparison operators above, and the
    logical combinators ``$and``, ``$or`` and ``$not``.
    """
    for key, condition in query.items():
        if key == "$and":
            if not all(matches(document, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(matches(document, sub) for sub in condition):
                return False
        elif key == "$not":
            if matches(document, condition):
                return False
        elif key.startswith("$"):
            raise StoreError(f"unknown query operator {key!r}")
        elif isinstance(condition, dict) and any(
            k.startswith("$") for k in condition
        ):
            value = _get_path(document, key)
            for op, arg in condition.items():
                comparator = _COMPARATORS.get(op)
                if comparator is None:
                    raise StoreError(f"unknown comparison operator {op!r}")
                try:
                    if not comparator(value, arg):
                        return False
                except TypeError:
                    return False
        else:
            if _get_path(document, key) != condition:
                return False
    return True


class DocumentStore(SnapshotStore):
    """A single named collection of documents.

    >>> store = DocumentStore()
    >>> store.insert({"_id": "a", "n": 1})
    'a'
    >>> store.find({"n": {"$gte": 1}})[0]["_id"]
    'a'
    """

    def __init__(self, directory: str | Path | None = None,
                 name: str = "documents",
                 indexed_fields: tuple[str, ...] = ()):
        wal = WriteAheadLog(directory, name) if directory else None
        super().__init__(wal)
        self._documents: dict[str, Document] = {}
        self._indexes: dict[str, dict[Any, set[str]]] = {
            field: {} for field in indexed_fields
        }
        self._lock = threading.RLock()
        self.recover()

    # -- CRUD ---------------------------------------------------------------

    def insert(self, document: Document) -> str:
        with self._lock:
            doc_id = document.get("_id")
            if not isinstance(doc_id, str) or not doc_id:
                raise StoreError("document requires a non-empty string _id")
            if doc_id in self._documents:
                raise StoreError(f"duplicate _id {doc_id!r}")
            self._documents[doc_id] = dict(document)
            self._index_add(doc_id, document)
            self.record({"op": "insert", "doc": document})
            return doc_id

    def get(self, doc_id: str) -> Document:
        with self._lock:
            document = self._documents.get(doc_id)
            if document is None:
                raise DocumentNotFound(doc_id)
            return dict(document)

    def get_many(self, doc_ids: list[str]) -> list[Document]:
        """Fetch several documents; unknown ids are skipped."""
        with self._lock:
            return [
                dict(self._documents[d])
                for d in doc_ids
                if d in self._documents
            ]

    def replace(self, document: Document) -> None:
        with self._lock:
            doc_id = document.get("_id")
            old = self._documents.get(doc_id)
            if old is None:
                raise DocumentNotFound(str(doc_id))
            self._index_remove(doc_id, old)
            self._documents[doc_id] = dict(document)
            self._index_add(doc_id, document)
            self.record({"op": "replace", "doc": document})

    def delete(self, doc_id: str) -> bool:
        with self._lock:
            old = self._documents.pop(doc_id, None)
            if old is None:
                return False
            self._index_remove(doc_id, old)
            self.record({"op": "delete", "id": doc_id})
            return True

    def contains(self, doc_id: str) -> bool:
        with self._lock:
            return doc_id in self._documents

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    # -- queries --------------------------------------------------------------

    def find(self, query: Document | None = None,
             limit: int | None = None) -> list[Document]:
        """Copies of the documents :meth:`find_ids` names, in its order."""
        with self._lock:
            return [dict(self._documents[doc_id])
                    for doc_id in self.find_ids(query, limit)]

    def find_ids(self, query: Document | None = None,
                 limit: int | None = None) -> list[str]:
        """Filter scan for ids only, accelerated by a secondary index
        when the query has a top-level equality on an indexed field."""
        with self._lock:
            results = []
            for doc_id in self._candidate_ids(query or {}):
                if query is None or matches(self._documents[doc_id], query):
                    results.append(doc_id)
                    if limit is not None and len(results) >= limit:
                        break
            return results

    def count(self, query: Document | None = None) -> int:
        return len(self.find_ids(query))

    def all_ids(self) -> list[str]:
        with self._lock:
            return list(self._documents)

    def iter_documents(self) -> Iterator[Document]:
        with self._lock:
            snapshot = [dict(d) for d in self._documents.values()]
        yield from snapshot

    def _candidate_ids(self, query: Document) -> list[str]:
        for field, index in self._indexes.items():
            condition = query.get(field)
            if condition is not None and not isinstance(condition, dict):
                term = self._index_term(condition)
                return sorted(index.get(term, set()))
        return list(self._documents)

    # -- secondary indexes ------------------------------------------------------

    @staticmethod
    def _index_term(value: Any) -> Any:
        return value.hex() if isinstance(value, bytes) else value

    def _index_add(self, doc_id: str, document: Document) -> None:
        for field, index in self._indexes.items():
            value = _get_path(document, field)
            if value is not None:
                index.setdefault(self._index_term(value), set()).add(doc_id)

    def _index_remove(self, doc_id: str, document: Document) -> None:
        for field, index in self._indexes.items():
            value = _get_path(document, field)
            if value is None:
                continue
            term = self._index_term(value)
            bucket = index.get(term)
            if bucket is not None:
                bucket.discard(doc_id)
                if not bucket:
                    del index[term]

    # -- metrics ------------------------------------------------------------------

    def size_in_bytes(self) -> int:
        """Approximate stored size (storage-overhead performance metric)."""

        def sizeof(value: Any) -> int:
            if isinstance(value, bytes):
                return len(value)
            if isinstance(value, str):
                return len(value.encode())
            if isinstance(value, dict):
                return sum(len(k) + sizeof(v) for k, v in value.items())
            if isinstance(value, list):
                return sum(sizeof(v) for v in value)
            return 8

        with self._lock:
            return sum(sizeof(d) for d in self._documents.values())

    # -- persistence hooks ----------------------------------------------------------

    def snapshot_state(self) -> Record:
        with self._lock:
            return {"documents": list(self._documents.values())}

    def restore_state(self, state: Record) -> None:
        with self._lock:
            self._documents = {}
            for field in self._indexes:
                self._indexes[field] = {}
            for document in state["documents"]:
                self._documents[document["_id"]] = document
                self._index_add(document["_id"], document)

    def apply_record(self, record: Record) -> None:
        op = record.get("op")
        if op == "insert":
            document = record["doc"]
            self._documents[document["_id"]] = document
            self._index_add(document["_id"], document)
        elif op == "replace":
            document = record["doc"]
            old = self._documents.get(document["_id"])
            if old is not None:
                self._index_remove(document["_id"], old)
            self._documents[document["_id"]] = document
            self._index_add(document["_id"], document)
        elif op == "delete":
            old = self._documents.pop(record["id"], None)
            if old is not None:
                self._index_remove(record["id"], old)
        else:
            raise StoreError(f"unknown log record op {op!r}")
