"""Online resharding: node join/leave with live forwarding.

The protocol keeps reads correct at every instant of a migration:

1. ``begin_join``/``begin_leave`` installs the *previous* ring as the
   router's forwarding table and (for a join) replays the provisioning
   log so the new node hosts every service before any key moves.
2. Documents stream source -> target in chunks of
   :data:`REBALANCE_CHUNK`: each chunk is **imported before it
   is deleted**, so a concurrent read finds the document on the new
   owner (after import) or through the forwarding table on the old owner
   (before it).  ``count`` may transiently over-count the in-flight
   chunk — the documented cost of never under-serving a read.
3. Secure-index entries move through the tactic shard SPI:
   ``shard_export(spec)`` returns the entries the source no longer owns
   under the new ring (non-destructively, first element = shard key),
   ``shard_import(entries)`` merges them idempotently at the target, and
   only then ``shard_evict(spec)`` drops them at the source.  Search
   correctness tolerates the transient duplicates by construction: every
   scatter merge dedupes.
4. ``finish_migration``/``finish_leave`` drops the forwarding table and
   bumps the topology epoch again.

Pinned services (BIEX) do not move on a join; on a leave they relocate
whole via the generic ``shard_dump``/``shard_load``/``shard_drop``
namespace protocol.  Online resharding requires ``replication == 1`` —
with replicas, chunked ownership moves would need a consensus layer this
middleware deliberately does not grow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import IntegrityError, RemoteError, TransportError
from repro.net.resilience import ResilientTransport
from repro.net.transport import Transport
from repro.shard.ring import HashRing
from repro.shard.router import KEYED, ShardedTransport


@dataclass
class MigrationReport:
    """What one node join/leave moved, for logs and benchmarks."""

    node: str
    documents_moved: int = 0
    index_entries_moved: dict[str, int] = field(default_factory=dict)
    services_replayed: int = 0
    seconds: float = 0.0
    #: True when the post-migration cluster-digest invariance check ran
    #: (it runs only when integrity is enabled on the zones).
    integrity_verified: bool = False

    @property
    def index_entries_total(self) -> int:
        return sum(self.index_entries_moved.values())


#: Documents / index entries moved per chunk during resharding.
REBALANCE_CHUNK = 64


def _chunks(items: list, size: int) -> Iterable[list]:
    for offset in range(0, len(items), size):
        yield items[offset:offset + size]


class Resharder:
    """Drives online node join/leave against a :class:`ShardedTransport`."""

    def __init__(self, router: ShardedTransport,
                 chunk_size: int = REBALANCE_CHUNK):
        self._router = router
        self._chunk = chunk_size
        if self._chunk < 1:
            raise TransportError("rebalance chunk must be >= 1")

    def _require_unreplicated(self) -> None:
        if self._router.config.replication != 1:
            raise TransportError(
                "online resharding requires replication=1"
            )

    # -- join ------------------------------------------------------------------

    def add_node(self, name: str, transport: Transport
                 ) -> MigrationReport:
        """Admit ``name`` and stream its keys over, reads staying live."""
        self._require_unreplicated()
        report = MigrationReport(node=name)
        started = time.perf_counter()
        before = self._cluster_digests()
        sources = self._router.node_names()
        self._router.begin_join(name, transport)
        report.services_replayed = len(self._router.provision_log)
        try:
            ring = HashRing.from_spec(self._router.ring_spec())
            for source in sources:
                report.documents_moved += self._move_documents(
                    source, only_to=name
                )
            for service, tactic in self._router.tactic_services().items():
                if not _migratable(tactic):
                    continue  # pinned services stay put on a join
                moved = 0
                for source in sources:
                    moved += self._move_index_entries(service, source,
                                                      ring)
                report.index_entries_moved[service] = moved
        finally:
            self._router.finish_migration()
        report.integrity_verified = self._check_digests(before, name)
        report.seconds = time.perf_counter() - started
        return report

    # -- leave -----------------------------------------------------------------

    def remove_node(self, name: str) -> MigrationReport:
        """Drain ``name`` completely, then drop it from the topology."""
        self._require_unreplicated()
        report = MigrationReport(node=name)
        started = time.perf_counter()
        before = self._cluster_digests()
        self._router.begin_leave(name)
        try:
            ring = HashRing.from_spec(self._router.ring_spec())
            self._move_pins(name, ring)
            report.documents_moved += self._move_documents(name)
            for service, tactic in self._router.tactic_services().items():
                if not _migratable(tactic):
                    continue  # pinned services moved with their pin
                report.index_entries_moved[service] = (
                    self._move_index_entries(service, name, ring)
                )
        finally:
            self._router.finish_leave(name)
        report.integrity_verified = self._check_digests(before, name)
        report.seconds = time.perf_counter() - started
        return report

    def _move_pins(self, departing: str, ring: HashRing) -> None:
        for service, pins in self._router.pins().items():
            if departing not in pins:
                continue
            target = ring.owner(service)
            if target != departing:
                source = self._router.node_transport(departing)
                dump = source.call(service, "shard_dump")
                self._router.node_transport(target).call(
                    service, "shard_load", dump=dump
                )
                source.call(service, "shard_drop")
            self._router.set_pins(
                service,
                [target if pin == departing else pin for pin in pins],
            )

    # -- integrity invariance --------------------------------------------------

    def _cluster_digests(self) -> dict[str, dict[str, int]] | None:
        """Per-application additive cluster digests, or None when no
        application enabled integrity tracking (the router's
        provisioning log says which did).  A report is a read, so each
        round goes through the default retry policy; a round that fails
        every attempt raises: a digest check that cannot run is no pass.

        The additive (AdHash-style) digest of a tree is the sum of its
        shard digests, and relocating leaves between shards preserves
        that sum — so at ``replication == 1`` a migration must leave
        every cluster digest exactly where it was.
        """
        from repro.integrity.merkle import merge_digests

        enabled = dict.fromkeys(
            request.kwargs["application"]
            for request in self._router.provision_log
            if request.method == "enable_integrity"
        )
        digests: dict[str, dict[str, int]] = {}
        reports = ResilientTransport(self._router)
        for application in enabled:
            labeled = reports.call(f"integrity/{application}", "report")
            per_tree: dict[str, list[int]] = {}
            for state in labeled.values():
                for tree, entry in state["trees"].items():
                    per_tree.setdefault(tree, []).append(
                        int(str(entry["digest"]), 16)
                    )
            digests[application] = {
                tree: merged
                for tree, parts in per_tree.items()
                if (merged := merge_digests(parts)) != 0
            }
        return digests or None

    def _check_digests(self, before: dict | None, node: str) -> bool:
        if before is None:
            return False
        after = self._cluster_digests() or {}
        if after != before:
            raise IntegrityError(
                f"resharding around node {node!r} changed the cluster "
                f"digest: expected {before}, observed {after} — "
                f"entries were lost or duplicated during the migration"
            )
        return True

    # -- the streaming moves ---------------------------------------------------

    def _move_documents(self, source: str,
                        only_to: str | None = None) -> int:
        """Import-then-delete document chunks off ``source``.

        ``only_to`` restricts the move to keys now owned by one node (a
        join moves keys only toward the joiner); a drain (leave) moves
        every key to its new owner.
        """
        router = self._router
        ring = HashRing.from_spec(router.ring_spec())
        transport = router.node_transport(source)
        moved = 0
        for application in router.applications:
            service = f"docs/{application}"
            doc_ids = transport.call(service, "all_ids")
            staying: dict[str, list[str]] = {}
            for doc_id in doc_ids:
                owner = ring.owner(doc_id)
                if owner == source:
                    continue
                if only_to is not None and owner != only_to:
                    continue
                staying.setdefault(owner, []).append(doc_id)
            for target, ids in sorted(staying.items()):
                receiver = router.node_transport(target)
                for chunk in _chunks(ids, self._chunk):
                    stored = transport.call(service, "get_many",
                                            doc_ids=chunk)
                    self._import_documents(receiver, service, stored)
                    for doc_id in chunk:
                        transport.call(service, "delete", doc_id=doc_id)
                    moved += len(stored)
        return moved

    @staticmethod
    def _import_documents(receiver: Transport, service: str,
                          stored: list[dict[str, Any]]) -> None:
        try:
            receiver.call(service, "insert_many", documents=stored)
        except RemoteError:
            # A retried chunk may be half-present: fall back to per-doc
            # upsert so the move stays idempotent.
            for document in stored:
                try:
                    receiver.call(service, "insert", document=document)
                except RemoteError:
                    receiver.call(service, "replace", document=document)

    def _move_index_entries(self, service: str, source: str,
                            ring: HashRing) -> int:
        router = self._router
        transport = router.node_transport(source)
        spec = ring.spec(self_node=source)
        exported = transport.call(service, "shard_export", spec=spec)
        if not exported:
            return 0
        groups: dict[str, list[Any]] = {}
        for entry in exported:
            key = entry[0]
            groups.setdefault(ring.owner(key), []).append(entry)
        for target, entries in sorted(groups.items()):
            receiver = router.node_transport(target)
            for chunk in _chunks(entries, self._chunk):
                receiver.call(service, "shard_import", entries=chunk)
        transport.call(service, "shard_evict", spec=spec)
        return len(exported)


def _migratable(tactic: str) -> bool:
    return tactic in KEYED
