"""Append-only-log persistence with snapshots ("semi-durable" mode).

The paper deploys Redis "in a semi-persistent durability mode" on both the
gateway and the cloud to hold custom secure indexes.  This module provides
the equivalent durability substrate for :mod:`repro.stores.kv` and
:mod:`repro.stores.docstore`: mutations are appended to a JSON-lines log
in the wire codec of :mod:`repro.net.message` (bytes tagged ``__b__``),
and a snapshot compacts the log when it grows past a threshold.  Stores
replay snapshot + log on open.

Durability is *semi* in the same sense as Redis AOF with relaxed fsync:
the log is buffered and flushed on :meth:`WriteAheadLog.sync`, close, or
every ``flush_every`` records — a crash may lose the tail.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Iterator

from repro.errors import StoreError, TransportError
from repro.net.message import decode, encode

Record = dict[str, Any]


#: Magic key marking a snapshot file that carries its log high-water
#: sequence (snapshots written before this scheme load transparently).
_SEQ_KEY = "__wal_seq__"


class WriteAheadLog:
    """JSON-lines append log with snapshot compaction.

    Every appended record is stamped with a monotonic ``_seq``, and a
    snapshot records the sequence high-water mark it covers.  That pair
    closes the crash window in :meth:`write_snapshot` between replacing
    the snapshot and removing the log: a recovery that finds *both* a
    new snapshot and a stale log skips the already-snapshotted records
    instead of double-applying them (``sadd``/``mput`` are idempotent,
    but ``incr`` is not — SSE posting counters would corrupt).
    """

    def __init__(self, directory: str | Path, name: str = "store",
                 flush_every: int = 256, compact_after: int = 10_000):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log_path = self.directory / f"{name}.log"
        self.snapshot_path = self.directory / f"{name}.snapshot"
        self.flush_every = flush_every
        self.compact_after = compact_after
        self._pending = 0
        self._records_since_snapshot = 0
        self._handle = None
        self._seq = 0
        #: Highest ``_seq`` covered by the loaded snapshot (0 when no
        #: snapshot, or a legacy snapshot without a watermark, exists).
        self.last_snapshot_seq = 0

    # -- write path ---------------------------------------------------------

    def append(self, record: Record) -> None:
        if self._handle is None:
            self._handle = open(self.log_path, "ab")
        self._seq += 1
        stamped = dict(record)
        stamped["_seq"] = self._seq
        self._handle.write(encode(stamped) + b"\n")
        self._pending += 1
        self._records_since_snapshot += 1
        if self._pending >= self.flush_every:
            self.sync()

    def sync(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._pending = 0

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    @property
    def needs_compaction(self) -> bool:
        return self._records_since_snapshot >= self.compact_after

    # -- read path ----------------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[Record]:
        """Yield logged records with ``_seq > after_seq``, unstamped.

        ``after_seq`` is the loaded snapshot's watermark: records a
        crash-interrupted compaction already folded into the snapshot
        are skipped instead of applied twice.  Legacy records without a
        ``_seq`` stamp are always yielded.
        """
        if not self.log_path.exists():
            return
        with open(self.log_path, "rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = decode(line)
                except TransportError:
                    # A torn tail write is the expected crash artifact in
                    # semi-durable mode; everything before it is intact.
                    break
                seq = record.pop("_seq", None)
                if seq is not None:
                    self._seq = max(self._seq, seq)
                    if seq <= after_seq:
                        continue
                yield record

    def load_snapshot(self) -> Record | None:
        if not self.snapshot_path.exists():
            return None
        try:
            raw = decode(self.snapshot_path.read_bytes())
        except (TransportError, OSError) as exc:
            raise StoreError(f"corrupt snapshot: {exc}") from exc
        if isinstance(raw, dict) and _SEQ_KEY in raw and "state" in raw:
            seq = int(raw[_SEQ_KEY])
            self._seq = max(self._seq, seq)
            self.last_snapshot_seq = seq
            return raw["state"]
        # Legacy snapshot without a watermark: replay the whole log.
        self.last_snapshot_seq = 0
        return raw

    def write_snapshot(self, state: Record) -> None:
        """Atomically replace the snapshot and truncate the log."""
        self.close()
        temp_path = self.snapshot_path.with_suffix(".tmp")
        wrapped = {_SEQ_KEY: self._seq, "state": state}
        with open(temp_path, "wb") as handle:
            handle.write(encode(wrapped))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.snapshot_path)
        # CRASH WINDOW: the new snapshot exists but the stale log does
        # not vanish atomically with it.  The watermark above is what
        # makes a recovery straddling this window apply-once.
        if self.log_path.exists():
            os.remove(self.log_path)
        self.last_snapshot_seq = self._seq
        self._records_since_snapshot = 0


class SnapshotStore:
    """Mixin-style helper binding a store to an optional WAL.

    Stores call :meth:`record` on every mutation and implement
    ``snapshot_state``/``restore_state``/``apply_record``; the helper takes
    care of replay-on-open and compaction.
    """

    def __init__(self, wal: WriteAheadLog | None = None):
        self._wal = wal
        self._replaying = False
        self._observers: list = []

    def add_mutation_observer(self, observer) -> None:
        """Register a callable invoked with every live mutation record.

        Observers fire from :meth:`record` — i.e. under the store's own
        lock, after the mutation is applied, and never during recovery
        replay (the integrity tracker rebuilds from restored state
        instead).  With no observers registered the per-mutation cost
        is one empty-list check, so the defaults-off path is unchanged.
        """
        self._observers.append(observer)

    def wal_sequence(self) -> int:
        """Current WAL append sequence (0 for an in-memory store)."""
        return self._wal._seq if self._wal is not None else 0  # noqa: SLF001

    def recover(self) -> None:
        if self._wal is None:
            return
        self._replaying = True
        try:
            snapshot = self._wal.load_snapshot()
            if snapshot is not None:
                self.restore_state(snapshot)
            # Skip log records the snapshot already covers — a stale log
            # surviving a crash mid-compaction must not double-apply.
            for record in self._wal.replay(
                after_seq=self._wal.last_snapshot_seq
            ):
                self.apply_record(record)
        finally:
            self._replaying = False

    def record(self, record: Record) -> None:
        if self._observers and not self._replaying:
            for observer in self._observers:
                observer(record)
        if self._wal is None or self._replaying:
            return
        self._wal.append(record)
        if self._wal.needs_compaction:
            self._wal.write_snapshot(self.snapshot_state())

    def sync(self) -> None:
        if self._wal is not None:
            self._wal.sync()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.write_snapshot(self.snapshot_state())
            self._wal.close()

    # Subclass responsibilities ------------------------------------------

    def snapshot_state(self) -> Record:  # pragma: no cover - abstract
        raise NotImplementedError

    def restore_state(self, state: Record) -> None:  # pragma: no cover
        raise NotImplementedError

    def apply_record(self, record: Record) -> None:  # pragma: no cover
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
