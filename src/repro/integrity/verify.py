"""Gateway-side verification: proof-on-fetch and the audit sweep.

:class:`VerifyingTransport` sits in the gateway's transport stack
between the batch collector (above) and the resilience wrapper (below).
It rewrites document reads to their proven variants (``get_many`` ->
``get_many_proven``, the co-located find ``lookup_fetch`` ->
``lookup_fetch_proven``), checks each returned inclusion proof against
the freshness ledger, and unwraps the plain documents — the executor
never sees the envelopes.  :meth:`audit`
is the on-demand sweep beside it: re-sync the ledger from incremental
reports, then compare roots recomputed from raw store state against
what the ledger accepted at write time.

One freshness rule: each write frame passing through advances the HSM
counter ``writes/<app>`` (shared by every gateway holding the HSM)
before it leaves and again once its reply is back, and the ledger pulls
one ``report()`` round per shard only when that counter moved since the
last sync — a read with no write in between costs no round trip.  A
write's own reply can be that sync: an ``integrity/<app> report`` slot
narrowed to the ``docs`` tree rides each leg of a write frame, and the
ledger folds it in when the two advances are consecutive and the last
sync recorded the value just before them: no other write, from any
gateway, ran in between.  Otherwise the ack is dropped (or never sent,
when the first advance rules the fold out) and the next read re-syncs.

Detection semantics (see :mod:`repro.integrity.watermark` for the
trust model):

* bit-flipped document bytes, proof, or root -> proof/leaf mismatch or
  a root the ledger never accepted -> :class:`IntegrityError`;
* a replayed old-but-valid envelope or report -> a retired root or a
  sequence regression -> :class:`StaleStateError`.

Known limitations (documented, out of scope): no non-membership
proofs (a server can deny a document exists), and a protocol-time
attacker who answers with freshly forged state *and* consistent forged
reports is only caught by the audit pass if it ever contradicts a
write the gateway remembered.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from typing import Any, Sequence

from repro.errors import IntegrityError, StaleStateError
from repro.integrity.merkle import leaf_key, verify_inclusion
from repro.integrity.watermark import FreshnessLedger
from repro.keys.hsm import SimulatedHsm
from repro.net import message
from repro.net.latency import NetworkStats
from repro.net.rpc import MUTATING_METHODS, Request, Response
from repro.net.transport import Transport, TransportLayer

_PROVEN = {"get_many": "get_many_proven",
           "lookup_fetch": "lookup_fetch_proven"}

#: Per-operation verification outcome, shared with the gateway runtime:
#: the runtime materialises a scope dict before launching an operation
#: and reads ``scope["verification"]`` after it completes.
_OP_SCOPE: ContextVar[dict | None] = ContextVar(
    "integrity_op_scope", default=None
)

VERIFICATION_KEY = "verification"


def begin_op_scope() -> dict:
    """Install a fresh outcome scope for the current context and return
    it.  The dict object is shared: tasks forked from this context see
    (and mutate) the same instance, so the creator can read the outcome
    after the operation finishes."""
    scope = {VERIFICATION_KEY: "unverified"}
    _OP_SCOPE.set(scope)
    return scope


def op_verification(scope: dict) -> str:
    return scope.get(VERIFICATION_KEY, "unverified")


def _note_outcome(outcome: str) -> None:
    scope = _OP_SCOPE.get()
    if scope is None:
        return
    if outcome == "failed" or scope.get(VERIFICATION_KEY) != "failed":
        scope[VERIFICATION_KEY] = outcome


class VerifyingTransport(TransportLayer):
    """Transport wrapper verifying every document fetch."""

    label = "integrity"

    def __init__(self, inner: Transport, application: str,
                 hsm: SimulatedHsm | None = None, sharded: bool = False):
        super().__init__(inner)
        self.application = application
        #: Whether a sharded router below keys each report per shard.
        self._sharded = sharded
        self._docs_service = f"docs/{application}"
        self._integrity_service = f"integrity/{application}"
        self.ledger = FreshnessLedger()
        self.hsm = hsm or SimulatedHsm()
        self._counter = f"writes/{application}"
        #: The write counter as read before the last report pull (None:
        #: never synced, so a restarted gateway syncs before trusting).
        self._synced_at: int | None = None
        self.resyncs = 0
        #: Shard reports that rode write frames, folded in or not.
        self.acked = 0
        self._ack = Request(self._integrity_service, "report",
                            {"trees": ["docs"]})
        self._active = False
        self._refresh_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._integrity_failures = 0
        self._stale_detected = 0

    # -- activation ----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def activate(self) -> None:
        """Turn verification on — called when a registered schema
        carries a sensitive field."""
        self._active = True

    # -- call path -----------------------------------------------------------

    def call_batch(self, requests: Sequence[Request]) -> list[Response]:
        verified = {index for index, r in enumerate(requests)
                    if self._should_verify(r.service, r.method)}
        frame = [self._rewrite(r) if index in verified else r
                 for index, r in enumerate(requests)]
        if any(r.method in MUTATING_METHODS for r in requests):
            responses = self._write(frame)
        else:
            responses = self._inner.call_batch(frame)
        checked: list[Response] = list(responses)
        for index in sorted(verified):
            response = responses[index]
            if not response.ok:
                continue
            try:
                checked[index] = Response(ok=True, result=self._check(
                    requests[index].method, response.result
                ))
            except IntegrityError as exc:
                # Typed: the slot's unwrap() re-raises this very error.
                checked[index] = Response.failed(exc)
        return checked

    # -- rewrite / verify core -----------------------------------------------

    def _should_verify(self, service: str, method: str) -> bool:
        return (
            self._active
            and service == self._docs_service
            and method in _PROVEN
        )

    def _rewrite(self, request: Request) -> Request:
        return Request(
            request.service, _PROVEN[request.method], request.kwargs
        )

    def _write(self, frame: list[Request]) -> list[Response]:
        """Ship a write frame: the HSM counter advances before it leaves
        and again after its reply returns (or is lost), so a sync
        overlapping it — from any gateway — never records a value the
        write has not superseded.  The ack rides as the last slot
        unless ``before`` already rules out its fold (a write since the
        last sync, or no sync yet: a bulk load, overlapping writers)."""
        resyncs = self.resyncs
        before = self.hsm.advance(self._counter)
        rides = self._active and self._synced_at == before - 1
        if rides:
            frame = [*frame, self._ack]
        try:
            responses = list(self._inner.call_batch(frame))
        finally:
            after = self.hsm.advance(self._counter)
        if rides:
            self._fold(responses.pop(), before, after, resyncs)
        return responses

    def _fold(self, ack: Response, before: int, after: int,
              resyncs: int) -> None:
        """Fold a write's ack and mark the ledger synced at ``after`` —
        only when its two advances are consecutive, the last sync
        recorded the value just before them, and no report round (whose
        reports may be newer than the ack) completed meanwhile."""
        if not ack.ok:
            return
        reports = self._labeled(ack.result)
        with self._stats_lock:
            self.acked += len(reports)
        if after != before + 1:
            return
        with self._refresh_lock:
            if self._synced_at != before - 1 or self.resyncs != resyncs:
                return
            self._accept(reports)
            self._synced_at = after

    def _check(self, original_method: str, result: Any) -> Any:
        """Verify proven-read envelopes, returning plain documents."""
        self._refresh(moved_only=True)
        try:
            if original_method == "get_many":
                checked = self._verify_all(result)
            else:
                # A co-located find: the ids are the index's answer (no
                # proof covers an index, as on a plain lookup); every
                # document carried with them is proven.
                if not isinstance(result, dict) or "ids" not in result:
                    raise IntegrityError(
                        "co-located find returned a malformed reply"
                    )
                checked = {"ids": result["ids"],
                           "docs": self._verify_all(result.get("docs"))}
        except IntegrityError as exc:
            self._failed(exc)
            raise
        _note_outcome("verified")
        return checked

    def _verify_all(self, envelopes: Any) -> list[dict]:
        if not isinstance(envelopes, list):
            raise IntegrityError("proven read returned a malformed reply")
        return [self._verify_envelope(envelope) for envelope in envelopes]

    def _failed(self, exc: IntegrityError) -> None:
        with self._stats_lock:
            if isinstance(exc, StaleStateError):
                self._stale_detected += 1
            else:
                self._integrity_failures += 1
        _note_outcome("failed")

    def _verify_envelope(self, envelope: Any) -> dict:
        if not isinstance(envelope, dict) or "document" not in envelope:
            raise IntegrityError(
                "proven read returned a malformed envelope"
            )
        doc_id = str(envelope.get("_id"))
        document = envelope["document"]
        root = str(envelope.get("root"))
        try:
            seq = int(envelope.get("seq") or 0)
        except (TypeError, ValueError):
            seq = 0
        classification = self.ledger.classify("docs", root, seq)
        if classification == "unknown":
            # The state may legitimately have advanced past our last
            # refresh (a write raced the read, or a reshard moved it);
            # re-sync once before declaring the root bogus.
            self._refresh()
            classification = self.ledger.classify("docs", root, seq)
        if classification == "stale":
            raise StaleStateError(
                f"document {doc_id!r} served under retired root "
                f"{root[:16]}... (seq {seq}): rolled-back state"
            )
        if classification == "unknown":
            raise IntegrityError(
                f"document {doc_id!r} served under root {root[:16]}... "
                "the ledger never accepted: tampered state"
            )
        if not isinstance(document, dict):
            raise IntegrityError(
                f"document {doc_id!r} body is not a document"
            )
        key = leaf_key(b"d", doc_id.encode())
        value = message.encode(document)
        if not verify_inclusion(root, key, value,
                                envelope.get("proof")):
            raise IntegrityError(
                f"inclusion proof for document {doc_id!r} does not "
                "verify against the accepted root: tampered state"
            )
        return document

    # -- ledger refresh ------------------------------------------------------

    def write_counter(self) -> int:
        """The HSM-held count of write sends and replies, all gateways."""
        return self.hsm.read(self._counter)

    def _refresh(self, moved_only: bool = False) -> bool:
        """Pull one ``report()`` round per shard; True when it did.

        The counter is read *before* the pull and recorded with it;
        ``moved_only`` skips the round while the counter still reads
        that value — no write, here or at a gateway sharing the HSM.
        """
        # Checked before the lock too: a local hit must not queue behind
        # another thread's report round.
        if moved_only and self.write_counter() == self._synced_at:
            return False
        with self._refresh_lock:
            counter = self.write_counter()
            if moved_only and counter == self._synced_at:
                return False
            self._accept(self._labeled(self._inner.call_request(
                Request(self._integrity_service, "report", {})
            )))
            self._synced_at = counter
            self.resyncs += 1
            return True

    def _labeled(self, reply: Any) -> dict[str, Any]:
        """A report reply keyed per endpoint: the sharded router keys
        it ``shard:<node>`` already, a lone endpoint is ``endpoint``."""
        return reply if self._sharded else {"endpoint": reply}

    def _accept(self, reports: dict[str, Any]) -> None:
        try:
            for label, report in sorted(reports.items()):
                self.ledger.accept_report(label, report)
        except IntegrityError as exc:
            self._failed(exc)
            raise

    def coherence_stamp(self) -> tuple[tuple, bool]:
        """``(ledger stamp, re-synced)`` — the cache tier's one check,
        for entry fills and hit validations alike: a report round only
        when the write counter moved.  A tampered or rolled-back report
        raises here with the same accounting as a verified read."""
        resynced = self._refresh(moved_only=True)
        return self.ledger.stamp(), resynced

    # -- audit pass ----------------------------------------------------------

    def audit(self) -> dict:
        """Background sweep: reconcile ledger vs recomputed state roots.

        Returns a summary dict; raises :class:`IntegrityError` /
        :class:`StaleStateError` when any shard's recomputed state
        contradicts what the ledger accepted at write time.
        """
        self._refresh()
        audits = self._labeled(self._inner.call_request(
            Request(self._integrity_service, "audit_report", {})
        ))
        checked = 0
        for label, audit in sorted(audits.items()):
            for tree, state in (audit.get("trees") or {}).items():
                expected = self.ledger.expect(label, tree)
                if expected is None:
                    continue
                checked += 1
                if str(state["root"]) != expected.root:
                    with self._stats_lock:
                        self._integrity_failures += 1
                    raise IntegrityError(
                        f"audit: shard {label!r} tree {tree!r} "
                        "recomputed root diverges from the ledger: "
                        "out-of-band tampering"
                    )
        return {
            "shards": len(audits),
            "roots_checked": checked,
            "cluster": {
                tree: self.ledger.cluster_root(tree)
                for tree in self.ledger.trees()
            },
        }

    # -- stats -----------------------------------------------------------------

    def own_stats(self) -> NetworkStats:
        with self._stats_lock:
            return NetworkStats(
                integrity_failures=self._integrity_failures,
                stale_detected=self._stale_detected,
            )
