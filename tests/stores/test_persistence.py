"""Write-ahead log: replay, torn tails, snapshot compaction."""

import json

import pytest

from repro.errors import StoreError
from repro.stores.kv import KeyValueStore
from repro.stores.persistence import WriteAheadLog


def _through_wal(tmp_path, record):
    """``record`` after a log append/replay and a snapshot write/load."""
    wal = WriteAheadLog(tmp_path, "codec")
    wal.append(record)
    wal.close()
    [replayed] = WriteAheadLog(tmp_path, "codec").replay()
    wal.write_snapshot(record)
    assert WriteAheadLog(tmp_path, "codec").load_snapshot() == record
    return replayed


class TestCodec:
    def test_bytes_roundtrip(self, tmp_path):
        record = {"op": "put", "k": b"\x00\xff", "nested": [b"a", {"v": b"b"}]}
        assert _through_wal(tmp_path, record) == record

    def test_plain_values_untouched(self, tmp_path):
        record = {"n": 1, "f": 2.5, "s": "text", "b": True, "x": None}
        assert _through_wal(tmp_path, record) == record


class TestWal:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "t")
        wal.append({"op": "a", "v": 1})
        wal.append({"op": "b", "v": b"\x01"})
        wal.close()
        replayed = list(WriteAheadLog(tmp_path, "t").replay())
        assert replayed == [{"op": "a", "v": 1}, {"op": "b", "v": b"\x01"}]

    def test_torn_tail_is_tolerated(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "t")
        wal.append({"op": "a"})
        wal.append({"op": "b"})
        wal.close()
        # Simulate a crash mid-write: append garbage to the log tail.
        with open(wal.log_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "c", "trunc')
        replayed = list(WriteAheadLog(tmp_path, "t").replay())
        assert replayed == [{"op": "a"}, {"op": "b"}]

    def test_snapshot_truncates_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "t")
        wal.append({"op": "a"})
        wal.write_snapshot({"state": [1, 2, 3]})
        assert not wal.log_path.exists()
        fresh = WriteAheadLog(tmp_path, "t")
        assert fresh.load_snapshot() == {"state": [1, 2, 3]}
        assert list(fresh.replay()) == []

    def test_corrupt_snapshot_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "t")
        wal.write_snapshot({"ok": True})
        wal.snapshot_path.write_text("{broken json", encoding="utf-8")
        with pytest.raises(StoreError):
            WriteAheadLog(tmp_path, "t").load_snapshot()

    def test_missing_snapshot_is_none(self, tmp_path):
        assert WriteAheadLog(tmp_path, "t").load_snapshot() is None

    def test_flush_every_batches_fsync(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "t", flush_every=1000)
        wal.append({"op": "a"})
        assert wal._pending == 1
        wal.sync()
        assert wal._pending == 0


class TestCompaction:
    def test_auto_compaction_threshold(self, tmp_path):
        store = KeyValueStore(tmp_path)
        store._wal.compact_after = 10  # small threshold for the test
        for i in range(25):
            store.put(f"k{i}".encode(), b"v")
        # Compaction ran at least once (log restarted since), and the
        # flushed state recovers fully.
        store.sync()
        recovered = KeyValueStore(tmp_path)
        assert len(recovered.keys()) == 25
        assert recovered._wal.load_snapshot() is not None

    def test_snapshot_plus_log_recovery(self, tmp_path):
        store = KeyValueStore(tmp_path)
        store.put(b"snapshotted", b"1")
        store._wal.write_snapshot(store.snapshot_state())
        store.put(b"logged", b"2")
        store.sync()
        recovered = KeyValueStore(tmp_path)
        assert recovered.get(b"snapshotted") == b"1"
        assert recovered.get(b"logged") == b"2"


class TestCrashMidCompaction:
    """Recovery straddling the snapshot/log-removal crash window.

    Compaction is two filesystem steps: ``os.replace`` of the snapshot,
    then ``os.remove`` of the log.  A crash in between leaves a snapshot
    that already covers every log record; replay must not apply those
    records a second time (counter increments are not idempotent).
    """

    def test_stale_log_is_not_double_applied(self, tmp_path):
        store = KeyValueStore(tmp_path)
        for _ in range(3):
            store.counter_increment(b"hits")
        store.put(b"k", b"v1")
        store.sync()
        stale_log = store._wal.log_path.read_text(encoding="utf-8")

        # Compaction step 1 (snapshot replace) succeeded...
        store._wal.write_snapshot(store.snapshot_state())
        # ...but the crash hit before step 2 (log removal).
        store._wal.log_path.write_text(stale_log, encoding="utf-8")
        store.close()

        recovered = KeyValueStore(tmp_path)
        assert recovered.counter_get(b"hits") == 3
        assert recovered.get(b"k") == b"v1"

    def test_post_snapshot_records_still_replay(self, tmp_path):
        store = KeyValueStore(tmp_path)
        store.counter_increment(b"hits")
        store.sync()
        stale_log = store._wal.log_path.read_text(encoding="utf-8")

        store._wal.write_snapshot(store.snapshot_state())
        # Crash window: stale pre-snapshot records resurface *and* new
        # writes land after them in the same log file.
        store._wal.log_path.write_text(stale_log, encoding="utf-8")
        store.counter_increment(b"hits")
        store.sync()
        store.close()

        recovered = KeyValueStore(tmp_path)
        assert recovered.counter_get(b"hits") == 2

    def test_torn_tail_after_snapshot(self, tmp_path):
        store = KeyValueStore(tmp_path)
        store.put(b"a", b"1")
        store._wal.write_snapshot(store.snapshot_state())
        store.put(b"b", b"2")
        store.sync()
        with open(store._wal.log_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "put", "tor')
        store.close()

        recovered = KeyValueStore(tmp_path)
        assert recovered.get(b"a") == b"1"
        assert recovered.get(b"b") == b"2"


class TestBytesKeyedRecovery:
    """Non-UTF-8 byte keys survive the snapshot+log round trip."""

    RAW = b"\x00\xff\xfe"

    def test_bytes_keys_survive_snapshot_and_log(self, tmp_path):
        store = KeyValueStore(tmp_path)
        store.put(self.RAW, b"\x80plain")
        store.map_put(b"m\x00ap", self.RAW, b"\x81field")
        store.set_add(b"s\xffet", self.RAW)
        store.counter_increment(b"c\x00nt", 7)
        store._wal.write_snapshot(store.snapshot_state())
        # Post-snapshot writes exercise the log path with raw bytes too.
        store.put(self.RAW + b"2", b"\x82late")
        store.map_put(b"m\x00ap", self.RAW + b"2", b"\x83late")
        store.sync()
        store.close()

        recovered = KeyValueStore(tmp_path)
        assert recovered.get(self.RAW) == b"\x80plain"
        assert recovered.get(self.RAW + b"2") == b"\x82late"
        assert recovered.map_get(b"m\x00ap", self.RAW) == b"\x81field"
        assert recovered.map_get(b"m\x00ap", self.RAW + b"2") == b"\x83late"
        assert self.RAW in recovered.set_members(b"s\xffet")
        assert recovered.counter_get(b"c\x00nt") == 7

    def test_log_only_bytes_keys(self, tmp_path):
        with KeyValueStore(tmp_path) as store:
            store.put(self.RAW, b"v")
        assert KeyValueStore(tmp_path).get(self.RAW) == b"v"


class TestLegacySnapshot:
    """Snapshots written before the ``__wal_seq__`` watermark scheme.

    A legacy snapshot is the bare state dict, unwrapped: loading one
    must reset ``last_snapshot_seq`` to 0 so the *whole* log replays —
    legacy logs carry no ``_seq`` stamps to skip by — while stamped
    records appended afterwards still apply exactly once.
    """

    @staticmethod
    def _unwrap_snapshot(wal: WriteAheadLog) -> None:
        """Rewrite the snapshot file in the pre-watermark format."""
        wrapped = json.loads(wal.snapshot_path.read_text(encoding="utf-8"))
        assert "__wal_seq__" in wrapped and "state" in wrapped
        wal.snapshot_path.write_text(
            json.dumps(wrapped["state"]), encoding="utf-8"
        )

    def test_legacy_snapshot_loads_with_zero_watermark(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "t")
        wal.append({"op": "a"})
        wal.write_snapshot({"state": [1, 2]})
        self._unwrap_snapshot(wal)
        fresh = WriteAheadLog(tmp_path, "t")
        assert fresh.load_snapshot() == {"state": [1, 2]}
        assert fresh.last_snapshot_seq == 0

    def test_recovery_applies_post_snapshot_records_once(self, tmp_path):
        store = KeyValueStore(tmp_path)
        for _ in range(3):
            store.counter_increment(b"hits")
        store._wal.write_snapshot(store.snapshot_state())
        self._unwrap_snapshot(store._wal)
        # Stamped records land after the (now-legacy) snapshot.
        store.counter_increment(b"hits")
        store.put(b"k", b"v")
        store.sync()  # sync without close: no fresh snapshot is written

        recovered = KeyValueStore(tmp_path)
        assert recovered._wal.last_snapshot_seq == 0
        # Snapshot state (3) plus the logged increment, applied once.
        assert recovered.counter_get(b"hits") == 4
        assert recovered.get(b"k") == b"v"

    def test_recovered_sequence_continues_from_log_high_water(
        self, tmp_path
    ):
        store = KeyValueStore(tmp_path)
        store.put(b"a", b"1")
        store._wal.write_snapshot(store.snapshot_state())
        self._unwrap_snapshot(store._wal)
        store.put(b"b", b"2")
        store.sync()
        high_water = store.wal_sequence()

        recovered = KeyValueStore(tmp_path)
        # The legacy snapshot resets the *watermark*, not the sequence:
        # replay restores the high-water mark from the stamped log so
        # new appends never reuse sequence numbers.
        assert recovered.wal_sequence() == high_water
        recovered.put(b"c", b"3")
        assert recovered.wal_sequence() == high_water + 1


class TestContextManager:
    def test_with_block_closes(self, tmp_path):
        with KeyValueStore(tmp_path) as store:
            store.put(b"k", b"v")
        assert KeyValueStore(tmp_path).get(b"k") == b"v"
