"""Gateway-held freshness ledger: rollback detection via watermarks.

Authenticated encryption and Merkle proofs alone cannot catch a
*rollback*: a malicious provider that serves a complete, internally
consistent snapshot from last week passes every proof check.  What
catches it is state the attacker cannot roll back — this ledger, held
in the trusted zone.

The cloud-side :class:`repro.integrity.tracker.IntegrityTracker` stamps
every state report with a monotonic mutation sequence seeded from the
WAL ``last_snapshot_seq`` watermark (PR 2/4 machinery), so a replayed
old-but-valid snapshot arrives with a *lower* sequence than the ledger
remembers and is classified stale rather than merely unverifiable.

Trust model: **trust on write, verify on read**.  The writers are the
gateways holding the application's HSM, whose write counter tells the
verifier when to re-sync; a report that advances the sequence with a
new root is accepted (a write taking effect); a report or proof
envelope that regresses the sequence, or re-presents a retired root, is
a rollback (:class:`repro.errors.StaleStateError`); one that contradicts
the ledger at the same sequence is tampering
(:class:`repro.errors.IntegrityError`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import IntegrityError, StaleStateError
from repro.integrity.merkle import digest_root, merge_digests

#: Superseded roots the gateway's ledger remembers per (shard, tree).
RETIRED_ROOTS = 64


@dataclass(frozen=True)
class LedgerEntry:
    """Latest accepted state of one (shard label, tree) pair."""

    seq: int
    root: str
    digest: int


class FreshnessLedger:
    """Per-shard, per-tree watermarks plus a bounded retired-root memory.

    ``history`` bounds how many superseded roots are remembered per
    (label, tree): a replayed envelope carrying any remembered old root
    is reported as *stale* (rollback) instead of *unknown* (tamper),
    which is the signal operators need to tell a replay attack from
    random corruption.
    """

    def __init__(self, history: int = RETIRED_ROOTS):
        self._history_limit = max(0, int(history))
        self._latest: dict[tuple[str, str], LedgerEntry] = {}
        self._retired: dict[tuple[str, str], OrderedDict[str, int]] = {}
        self._lock = threading.Lock()

    # -- ingest -------------------------------------------------------------

    def accept_report(self, label: str, report: dict) -> None:
        """Fold one shard's state report into the ledger.

        ``report`` is the :meth:`IntegrityTracker.report` shape:
        ``{"seq": int, "trees": {tree: {"root": hex, "digest": str}}}``.
        Raises :class:`StaleStateError` on sequence regression and
        :class:`IntegrityError` on a root change without a sequence
        advance or on any malformed shape — the report itself travelled
        over the untrusted wire, so it gets the same scrutiny as any
        fetched state.
        """
        try:
            seq = int(report.get("seq", 0))
            trees = [
                (tree, str(state["root"]), int(str(state["digest"]), 16))
                for tree, state in (report.get("trees") or {}).items()
            ]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(
                f"shard {label!r} sent a malformed state report: {exc!r}"
            ) from exc
        with self._lock:
            for tree, root, digest in trees:
                key = (label, tree)
                latest = self._latest.get(key)
                if latest is not None:
                    if seq < latest.seq:
                        raise StaleStateError(
                            f"shard {label!r} tree {tree!r} reported "
                            f"seq {seq} behind ledger seq {latest.seq}: "
                            "rolled-back state"
                        )
                    if seq == latest.seq and root != latest.root:
                        raise IntegrityError(
                            f"shard {label!r} tree {tree!r} root changed "
                            f"without a sequence advance at seq {seq}: "
                            "tampered state"
                        )
                    if seq > latest.seq and root != latest.root:
                        self._retire(key, latest)
                self._latest[key] = LedgerEntry(seq, root, digest)

    def _retire(self, key: tuple[str, str], entry: LedgerEntry) -> None:
        if self._history_limit <= 0:
            return
        retired = self._retired.setdefault(key, OrderedDict())
        retired.pop(entry.root, None)
        retired[entry.root] = entry.seq
        while len(retired) > self._history_limit:
            retired.popitem(last=False)

    # -- lookup -------------------------------------------------------------

    def expect(self, label: str, tree: str) -> LedgerEntry | None:
        with self._lock:
            return self._latest.get((label, tree))

    def labels(self) -> list[str]:
        with self._lock:
            return sorted({label for label, _ in self._latest})

    def classify(self, tree: str, root: str, seq: int) -> str:
        """Classify a (root, seq) claim for ``tree`` against the ledger.

        Shard-merged reads lose which shard served an envelope, so the
        claim is checked against every shard's entry for the tree:

        * ``"current"`` — matches some shard's latest accepted root;
        * ``"stale"`` — matches a retired root, or regresses a shard
          sequence while presenting that shard's superseded state;
        * ``"unknown"`` — matches nothing the ledger ever accepted.
        """
        with self._lock:
            stale = False
            for (label, entry_tree), entry in self._latest.items():
                if entry_tree != tree:
                    continue
                if entry.root == root:
                    return "current"
                retired = self._retired.get((label, entry_tree))
                if retired is not None and root in retired:
                    stale = True
            if stale:
                return "stale"
            return "unknown"

    # -- cluster-level views -------------------------------------------------

    def cluster_digest(self, tree: str) -> int:
        """Sum of every shard's additive digest for ``tree``.

        Invariant under resharding (replication 1): migrating entries
        between shards moves leaf terms between addends without
        changing the sum.
        """
        with self._lock:
            return merge_digests(
                entry.digest
                for (label, entry_tree), entry in self._latest.items()
                if entry_tree == tree
            )

    def cluster_root(self, tree: str) -> str:
        return digest_root(self.cluster_digest(tree))

    def trees(self) -> list[str]:
        with self._lock:
            return sorted({tree for _, tree in self._latest})

    def stamp(self) -> tuple:
        """Hashable summary of every accepted (label, tree) watermark.

        The cache tier's coherence token: any accepted advance — a new
        sequence, a new root, a shard appearing or retiring — changes
        the stamp, so an entry stamped before the advance can never
        validate after it.
        """
        with self._lock:
            return tuple(sorted(
                (label, tree, entry.seq, entry.root)
                for (label, tree), entry in self._latest.items()
            ))

    def snapshot(self) -> dict:
        """Debug/report view of the ledger contents."""
        with self._lock:
            return {
                f"{label}:{tree}": {
                    "seq": entry.seq,
                    "root": entry.root,
                    "retired": len(self._retired.get((label, tree), ())),
                }
                for (label, tree), entry in sorted(self._latest.items())
            }
