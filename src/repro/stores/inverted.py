"""Elasticsearch-like inverted text index.

The paper's prototype "employed document-oriented databases, e.g.,
MongoDB and Elasticsearch, to store documents and indexes".  The MongoDB
role is :mod:`repro.stores.docstore`; this module covers the
Elasticsearch role: tokenised full-text search with TF-IDF ranking over
*non-sensitive* fields (sensitive fields never reach it — their search
goes through the tactics).

Small by design: a whitespace/punctuation tokeniser with lowercase
normalisation, per-term posting lists with term frequencies, and a
cosine-free TF-IDF scorer — enough to exercise realistic plaintext search
paths in the S_A baseline and for plain fields in protected deployments.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Container

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; numbers kept, punctuation dropped."""
    return _TOKEN_PATTERN.findall(text.lower())


@dataclass(frozen=True)
class SearchHit:
    doc_id: str
    score: float


class InvertedIndex:
    """An in-memory inverted index over (doc_id, text) pairs."""

    def __init__(self) -> None:
        #: term -> {doc_id -> term frequency}
        self._postings: dict[str, dict[str, int]] = {}
        #: doc_id -> token count (for length normalisation)
        self._lengths: dict[str, int] = {}
        self._lock = threading.RLock()

    # -- maintenance -----------------------------------------------------------

    def index(self, doc_id: str, text: str) -> int:
        """(Re)index a document; returns the number of tokens."""
        tokens = tokenize(text)
        with self._lock:
            self._remove_locked(doc_id)
            for token in tokens:
                bucket = self._postings.setdefault(token, {})
                bucket[doc_id] = bucket.get(doc_id, 0) + 1
            self._lengths[doc_id] = len(tokens)
        return len(tokens)

    def remove(self, doc_id: str) -> bool:
        with self._lock:
            return self._remove_locked(doc_id)

    def _remove_locked(self, doc_id: str) -> bool:
        if doc_id not in self._lengths:
            return False
        for term in list(self._postings):
            bucket = self._postings[term]
            if doc_id in bucket:
                del bucket[doc_id]
                if not bucket:
                    del self._postings[term]
        del self._lengths[doc_id]
        return True

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._lengths)

    def document_frequency(self, term: str) -> int:
        with self._lock:
            return len(self._postings.get(term.lower(), {}))

    def search(self, query: str, limit: int = 10,
               require_all: bool = False,
               among: Container[str] | None = None) -> list[SearchHit]:
        """TF-IDF ranked search.

        ``require_all`` turns the query conjunctive (every term must
        appear); the default is disjunctive with ranking.  ``among``
        restricts the ranking to those ids, before the ``limit`` cut.
        """
        terms = tokenize(query)
        if not terms:
            return []
        with self._lock:
            total_docs = len(self._lengths) or 1
            scores: dict[str, float] = {}
            seen_terms: dict[str, set[str]] = {}
            for term in terms:
                postings = self._postings.get(term, {})
                if not postings:
                    continue
                idf = math.log(1 + total_docs / len(postings))
                for doc_id, tf in postings.items():
                    if among is not None and doc_id not in among:
                        continue
                    weight = (tf / self._lengths[doc_id]) * idf
                    scores[doc_id] = scores.get(doc_id, 0.0) + weight
                    seen_terms.setdefault(doc_id, set()).add(term)
            if require_all:
                needed = set(terms)
                scores = {
                    doc_id: score for doc_id, score in scores.items()
                    if seen_terms.get(doc_id, set()) >= needed
                }
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [SearchHit(doc_id, score)
                for doc_id, score in ranked[:limit]]

    def terms(self) -> list[str]:
        with self._lock:
            return sorted(self._postings)
