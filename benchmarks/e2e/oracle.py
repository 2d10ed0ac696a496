"""Plaintext oracle and correctness accounting.

The generator's corpus is mirrored here in plaintext, keyed by slot.
Single-client workloads compare every result exactly, after the
operation's end timestamp (off the clock).  The open-loop workload
overlaps reads with inserts, so its finds are checked against bounds:
``seed_matches <= result <= seed_matches | inserted_matches`` and every
returned document satisfies its predicate; its aggregates filter on the
write-disjoint seeded cohort and are exact.

A wrong result is a failed operation.  Nothing here retries, swallows
or reclassifies an exception: the runner records the exception's type
name and :func:`layer_of_error` maps it to the layer that raised it.
"""

from __future__ import annotations

import math
from typing import Any

from e2e.workloads import Op

REL_TOL = 1e-6

#: exception type name -> layer (module under ``src/repro/``).
ERROR_LAYERS = {
    "StaleStateError": "integrity",
    "IntegrityError": "integrity",
    "AdmissionRejected": "gateway",
    "RateLimitExceeded": "gateway",
    "DeadlineExceeded": "gateway",
    "CircuitOpenError": "net",
    "RetryExhausted": "net",
    "TransportFault": "net",
    "TransportError": "net",
    "RemoteError": "cloud",
    "DocumentNotFound": "stores",
}


def layer_of_error(type_name: str) -> str:
    if type_name.startswith("wrong"):
        return "oracle"
    return ERROR_LAYERS.get(type_name, "core")


def _matches(document: dict, op: Op) -> bool:
    if op.kind == "find_range":
        return op.value <= document[op.field] <= op.high
    if op.kind == "find_eq":
        return document[op.field] == op.value
    field_name, value = op.where
    return document[field_name] == value


class Oracle:
    """slot -> plaintext document, plus the slot -> real id table."""

    def __init__(self, corpus: list[dict], ids: list[str]):
        self.docs: dict[int, dict] = {
            slot: dict(document) for slot, document in enumerate(corpus)
        }
        self.ids: dict[int, str] = dict(enumerate(ids))
        self.seeded = len(corpus)

    # -- state ---------------------------------------------------------------

    def apply(self, op: Op, result: Any) -> None:
        """Mirror one *successful* write."""
        if op.kind == "insert":
            self.docs[op.slot] = dict(op.docs[0])
            self.ids[op.slot] = result
        elif op.kind == "insert_many":
            for offset, document in enumerate(op.docs):
                self.docs[op.slot + offset] = dict(document)
                self.ids[op.slot + offset] = result[offset]
        elif op.kind == "update":
            self.docs[op.slot].update(dict(op.changes))
        elif op.kind == "delete":
            del self.docs[op.slot]

    def matching_ids(self, op: Op, slots=None) -> set[str]:
        slots = self.docs if slots is None else slots
        return {
            self.ids[slot] for slot in slots
            if slot in self.docs and _matches(self.docs[slot], op)
        }

    def user_bytes(self) -> int:
        """Plaintext bytes of the live corpus (wire-codec encoding)."""
        from repro.net import message

        return sum(len(message.encode(d)) for d in self.docs.values())

    # -- single-client: exact -------------------------------------------------

    def check(self, op: Op, result: Any) -> str | None:
        """``None`` when ``result`` is exactly right, else what is wrong."""
        kind = op.kind
        if kind in ("insert", "insert_many"):
            expected = 1 if kind == "insert" else len(op.docs)
            got = [result] if kind == "insert" else list(result)
            if len(got) != expected or not all(
                isinstance(doc_id, str) and doc_id for doc_id in got
            ):
                return f"{kind} returned {result!r}"
            return None
        if kind == "update":
            return None
        if kind == "delete":
            return None if result is True else f"delete returned {result!r}"
        if kind == "get":
            return self.check_document(op.slot, result)
        if kind in ("find_eq", "find_range"):
            got = {document["_id"] for document in result}
            if len(got) != len(result):
                return "find returned duplicate documents"
            want = self.matching_ids(op)
            if got != want:
                return (f"find: {len(got - want)} unexpected, "
                        f"{len(want - got)} missing of {len(want)}")
            return None
        want_docs = [d for d in self.docs.values() if _matches(d, op)]
        if kind == "count":
            return (None if result == len(want_docs)
                    else f"count {result} != {len(want_docs)}")
        if kind == "avg":
            return self._check_average(op, result, want_docs)
        return f"unknown op kind {kind!r}"

    def check_document(self, slot: int, result: Any) -> str | None:
        want = self.docs[slot]
        if not isinstance(result, dict):
            return f"get returned {type(result).__name__}"
        if result.get("_id") != self.ids[slot]:
            return "get returned another document"
        for name, value in want.items():
            if result.get(name) != value:
                return f"get: field {name!r} differs"
        return None

    @staticmethod
    def _check_average(op: Op, result: Any, want_docs: list) -> str | None:
        if not want_docs:
            return "oracle: aggregate over an empty match set"
        want = sum(d[op.field] for d in want_docs) / len(want_docs)
        if not isinstance(result, (int, float)) or not math.isclose(
            result, want, rel_tol=REL_TOL
        ):
            return f"avg {result!r} != {want!r}"
        return None

    # -- open loop: bounds ----------------------------------------------------

    def check_concurrent(self, op: Op, result: Any) -> str | None:
        """Check a read that overlapped inserts (state = after the run).

        Inserts are the only writes, so the seeded documents are stable
        and anything newer may or may not have been visible.
        """
        if op.kind == "insert":
            return self.check(op, result)
        seeded = range(self.seeded)
        if op.kind == "avg":
            # Aggregates filter on the write-disjoint seeded cohort.
            docs = [self.docs[s] for s in seeded
                    if _matches(self.docs[s], op)]
            return self._check_average(op, result, docs)
        got = {document["_id"] for document in result}
        if len(got) != len(result):
            return "find returned duplicate documents"
        if not all(_matches(document, op) for document in result):
            return "find returned a document violating its predicate"
        low = self.matching_ids(op, seeded)
        high = self.matching_ids(op)
        if not low <= got <= high:
            return (f"find: {len(low - got)} seeded missing, "
                    f"{len(got - high)} unexpected")
        return None
