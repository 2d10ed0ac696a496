"""Cloud-side integrity tracking: per-domain Merkle state + reports.

An :class:`IntegrityTracker` attaches mutation observers to one
application's stores (the KV secure-index store and the document store)
and maintains one :class:`repro.integrity.merkle.MerkleTree` per state
domain:

* ``"docs"`` — every encrypted document, leaf value =
  :func:`repro.net.message.encode` of the stored body (the same
  canonical bytes :func:`repro.analysis.snapshot.zone_fingerprint`
  hashes);
* ``"tactic/<app>/<field>/<tactic>"`` — every KV entry under that
  provisioned tactic's key namespace (the ``state_key`` prefix from
  :class:`repro.spi.context.CloudTacticContext`);
* ``"kv"`` — any KV entry outside a tactic namespace.

Every tracked mutation bumps a monotonic sequence seeded from the WAL
append watermark, so the (root, seq) pairs the tracker reports line up
with the ``last_snapshot_seq`` freshness machinery: state restored from
an old snapshot cannot reach the current sequence without replaying the
same mutations the gateway already counted.

The tracker lives in the *untrusted* zone — it is bookkeeping, not a
root of trust.  Trust comes from the gateway ledger
(:mod:`repro.integrity.watermark`) remembering what the tracker
reported at write time and refusing regressions later.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any, Iterable

from repro.integrity.merkle import MerkleTree, leaf_key
from repro.net import message
from repro.stores.docstore import DocumentStore
from repro.stores.kv import KeyValueStore

#: KV keys under this prefix belong to a provisioned tactic's namespace.
_TACTIC_PREFIX = b"tactic/"


def tree_for_key(key: bytes) -> str:
    """Map a KV key to its authenticated state domain.

    Tactic state keys are ``service_name(...).encode() + b"/" + part``
    with ``service_name = "tactic/{app}/{field}/{tactic}"`` — the first
    four ``/``-separated segments name the domain, so one tree covers
    exactly one provisioned tactic instance and stays stable when its
    entries migrate between shards.
    """
    if key.startswith(_TACTIC_PREFIX):
        parts = key.split(b"/", 4)
        if len(parts) >= 4:
            return b"/".join(parts[:4]).decode("utf-8", "replace")
    return "kv"


def _doc_key(doc_id: Any) -> bytes:
    return leaf_key(b"d", str(doc_id).encode())


def _doc_leaf(document: dict) -> tuple[bytes, bytes]:
    return _doc_key(document["_id"]), message.encode(document)


def _entry(tree: MerkleTree) -> dict:
    return {
        "root": tree.root(),
        "digest": f"{tree.digest():064x}",
        "leaves": len(tree),
    }


class IntegrityTracker:
    """Incremental Merkle state over one application's stores."""

    def __init__(self, kv: KeyValueStore, documents: DocumentStore):
        self._kv = kv
        self._documents = documents
        self._lock = threading.RLock()
        self._trees: dict[str, MerkleTree] = {}
        # report() entries, re-derived only for the trees named in
        # _touched (every tree handed out by _tree since the last report).
        self._entries: dict[str, dict] = {}
        self._touched: set[str] = set()
        self._counters: dict[bytes, int] = {}
        # Seed the sequence from the WAL append watermarks so a restart
        # from persisted state resumes at (not below) the sequence the
        # gateway last saw; in-memory stores start at 0.
        self._seq = kv.wal_sequence() + documents.wal_sequence()
        self._rebuild_from_state()
        kv.add_mutation_observer(self._on_kv_record)
        documents.add_mutation_observer(self._on_doc_record)

    # -- initial build -------------------------------------------------------

    def _tree(self, name: str) -> MerkleTree:
        self._touched.add(name)
        tree = self._trees.get(name)
        if tree is None:
            tree = self._trees[name] = MerkleTree()
        return tree

    def _rebuild_from_state(self) -> None:
        with self._lock:
            self._reset_trees(MerkleTree())
            _build_kv_trees(self._kv, self._tree, self._counters)
            docs_tree = self._trees["docs"]
            for document in self._documents.iter_documents():
                key, value = _doc_leaf(document)
                docs_tree.update(key, value)

    def _reset_trees(self, docs: MerkleTree) -> None:
        self._trees = {"docs": docs}
        self._entries = {}
        self._touched = {"docs"}
        self._counters = {}

    # -- mutation observers --------------------------------------------------

    def _on_kv_record(self, record: dict) -> None:
        with self._lock:
            op = record.get("op")
            if op == "put":
                key = record["k"]
                self._tree(tree_for_key(key)).update(
                    leaf_key(b"s", key), record["v"]
                )
            elif op == "del":
                key = record["k"]
                self._tree(tree_for_key(key)).remove(leaf_key(b"s", key))
            elif op == "mput":
                name = record["n"]
                self._tree(tree_for_key(name)).update(
                    leaf_key(b"m", name, record["f"]), record["v"]
                )
            elif op == "mdel":
                name = record["n"]
                self._tree(tree_for_key(name)).remove(
                    leaf_key(b"m", name, record["f"])
                )
            elif op == "sadd":
                name = record["n"]
                self._tree(tree_for_key(name)).update(
                    leaf_key(b"e", name, record["m"]), b"1"
                )
            elif op == "srem":
                name = record["n"]
                self._tree(tree_for_key(name)).remove(
                    leaf_key(b"e", name, record["m"])
                )
            elif op == "incr":
                name = record["n"]
                value = self._counters.get(name, 0) + record["d"]
                self._counters[name] = value
                self._set_counter_leaf(name, value)
            elif op == "cset":
                name = record["n"]
                value = record["v"]
                self._counters[name] = value
                self._set_counter_leaf(name, value)
            elif op == "flush":
                self._reset_trees(self._trees["docs"])
            self._seq += 1

    def _set_counter_leaf(self, name: bytes, value: int) -> None:
        """Commit a counter value, canonicalising 0 as leaf-absent.

        ``namespace_drop`` resets counters to 0 instead of deleting
        them; treating 0 as absence keeps the cluster digest invariant
        when a tactic namespace relocates during resharding.
        """
        tree = self._tree(tree_for_key(name))
        if value == 0:
            tree.remove(leaf_key(b"c", name))
        else:
            tree.update(leaf_key(b"c", name), str(value).encode())

    def _on_doc_record(self, record: dict) -> None:
        with self._lock:
            op = record.get("op")
            if op in ("insert", "replace"):
                key, value = _doc_leaf(record["doc"])
                self._tree("docs").update(key, value)
            elif op == "delete":
                self._tree("docs").remove(_doc_key(record["id"]))
            self._seq += 1

    # -- reports -------------------------------------------------------------

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq

    def report(self, trees: Iterable[str] | None = None) -> dict:
        """Incremental (root, digest) per tree plus the seq watermark;
        ``trees`` narrows it to those trees' roots and digests (the write
        ack), leaving the other touched trees for the next full report."""
        with self._lock:
            names = set(self._touched if trees is None else
                        self._touched.intersection(trees))
            for name in names:
                self._entries[name] = _entry(self._trees[name])
            self._touched -= names
            shown = {name: dict(entry) if trees is None else
                     {"root": entry["root"], "digest": entry["digest"]}
                     for name, entry in self._entries.items()
                     if trees is None or name in trees}
            return {"seq": self._seq, "trees": shown}

    def audit_report(self) -> dict:
        """Roots recomputed from the raw store state, bypassing the
        incremental trees.

        An attacker who edits the stores out-of-band (the snapshot
        adversary writing directly to "Redis"/"MongoDB") never fires
        the mutation observers, so the incremental report keeps
        matching the gateway ledger — but this recomputation diverges,
        which is exactly what the audit pass compares.
        """
        trees: dict[str, MerkleTree] = defaultdict(MerkleTree)
        docs_tree = trees["docs"]
        _build_kv_trees(self._kv, trees.__getitem__, {})
        for document in self._documents.iter_documents():
            key, value = _doc_leaf(document)
            docs_tree.update(key, value)
        with self._lock:
            seq = self._seq
        return {
            "seq": seq,
            "trees": {name: _entry(t) for name, t in trees.items()},
        }

    # -- proofs --------------------------------------------------------------

    def prove_documents(self, fetched: list[tuple[str, dict]]) -> list[dict]:
        """Proof envelopes for ``(doc_id, document)`` fetches, all
        against one root.

        Callers must hold the document store's lock across fetch +
        prove (see ``DocumentService.get_many_proven``) so the proofs
        are computed against the same tree state the bodies were read
        from.
        """
        with self._lock:
            tree = self._trees["docs"]
            root, seq = tree.root(), self._seq
            return [
                {
                    "_id": doc_id,
                    "document": document,
                    "proof": tree.proof(_doc_key(document["_id"])),
                    "root": root,
                    "seq": seq,
                }
                for doc_id, document in fetched
            ]

    def prove_document(self, doc_id: str, document: dict) -> dict:
        return self.prove_documents([(doc_id, document)])[0]


def _build_kv_trees(kv: KeyValueStore, tree, counters: dict) -> None:
    """Feed every KV structure into per-domain trees (raw-state scan)."""
    with kv._lock:  # noqa: SLF001 - same-package raw-state scan
        for key, value in kv._strings.items():  # noqa: SLF001
            tree(tree_for_key(key)).update(leaf_key(b"s", key), value)
        for name, bucket in kv._maps.items():  # noqa: SLF001
            domain = tree(tree_for_key(name))
            for field, value in bucket.items():
                domain.update(leaf_key(b"m", name, field), value)
        for name, members in kv._sets.items():  # noqa: SLF001
            domain = tree(tree_for_key(name))
            for member in members:
                domain.update(leaf_key(b"e", name, member), b"1")
        for name, value in kv._counters.items():  # noqa: SLF001
            counters[name] = value
            if value != 0:  # 0 is canonicalised as leaf-absent
                tree(tree_for_key(name)).update(
                    leaf_key(b"c", name), str(value).encode()
                )


def digest_of_namespace_dump(dump: dict) -> str:
    """Additive digest of a ``KeyValueStore.namespace_dump`` record.

    Computes the same per-entry leaf terms the tracker maintains for
    that namespace, so a tactic can attest its own index state
    (``CloudTactic.state_digest``) and tests can cross-check it against
    the tracker's tree digest for the tactic's domain.
    """
    tree = MerkleTree()
    for key, value in dump.get("strings", {}).items():
        tree.update(leaf_key(b"s", bytes.fromhex(key)),
                    bytes.fromhex(value))
    for name, bucket in dump.get("maps", {}).items():
        raw = bytes.fromhex(name)
        for field, value in bucket.items():
            tree.update(leaf_key(b"m", raw, bytes.fromhex(field)),
                        bytes.fromhex(value))
    for name, members in dump.get("sets", {}).items():
        raw = bytes.fromhex(name)
        for member in members:
            tree.update(leaf_key(b"e", raw, bytes.fromhex(member)), b"1")
    for name, value in dump.get("counters", {}).items():
        if value != 0:  # 0 is canonicalised as leaf-absent
            tree.update(leaf_key(b"c", bytes.fromhex(name)),
                        str(value).encode())
    return f"{tree.digest():064x}"


class IntegrityService:
    """RPC face of one application's tracker (``integrity/<app>``)."""

    def __init__(self, tracker: IntegrityTracker):
        self._tracker = tracker

    def report(self, trees: list[str] | None = None) -> dict:
        return self._tracker.report(trees)

    def audit_report(self) -> dict:
        return self._tracker.audit_report()

    def prove(self, tree: str, key: Any) -> dict:
        """Inclusion proof for an arbitrary leaf (diagnostics)."""
        raw = key if isinstance(key, bytes) else bytes.fromhex(str(key))
        with self._tracker._lock:  # noqa: SLF001 - same package
            domain = self._tracker._tree(tree)  # noqa: SLF001
            return {
                "tree": tree,
                "root": domain.root(),
                "seq": self._tracker._seq,  # noqa: SLF001
                "proof": domain.proof(raw),
            }
