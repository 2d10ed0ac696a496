"""Cache tier × the wire: a cache-hit slot never ships.

The cache tier serves hits above the whole transport stack.  These
tests pin the interaction down at the wire: when an operation's fetch
set is partially cached, the frame it ships holds only the miss slots —
a hit is never dispatched, alone or next to a concurrent miss.  (A
co-located find is the exception by design: its one reply carries the
first chunk of matches before the gateway can consult its cache, so the
cloud no longer learns which of them were cached.)
"""

from __future__ import annotations

import threading

from repro.cache import CacheConfig
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.gateway.runtime import SyncGateway
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport, TransportLayer
from repro.tactics import register_builtin_tactics


class FetchRecorder(TransportLayer):
    """Records every document id the wire is asked to deliver."""

    def __init__(self, inner):
        super().__init__(inner)
        self.lock = threading.Lock()
        self.fetched: list[str] = []

    def _note(self, method, kwargs):
        with self.lock:
            if method == "get":
                self.fetched.append(kwargs["doc_id"])
            elif method == "get_many":
                self.fetched.extend(kwargs["doc_ids"])

    def call_request(self, request):
        self._note(request.method, request.kwargs)
        return self.inner.call_request(request)

    def call_batch(self, requests):
        for request in requests:
            self._note(request.method, request.kwargs)
        return self.inner.call_batch(requests)

    def reset(self):
        with self.lock:
            self.fetched = []


def deploy():
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    recorder = FetchRecorder(InProcTransport(cloud.host))
    blinder = DataBlinder(
        "cachewire", recorder, registry=registry,
        pipeline=PipelineConfig(batch_writes=True, cache=CacheConfig()),
    )
    schema = Schema.define(
        "rec",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        tag=("string", FieldAnnotation.parse("C2", "I,EQ")),
        note="string",
    )
    blinder.register_schema(schema)
    return blinder, recorder


class TestCacheWire:
    def test_partial_hit_fetch_ships_only_the_misses(self):
        blinder, recorder = deploy()
        entities = blinder.entities("rec")
        ids = entities.insert_many(
            [{"status": "a", "tag": "a", "note": f"n{i}"} for i in range(6)]
        )
        warmed = sorted(ids)[:3]
        for doc_id in warmed:
            entities.get(doc_id)
        recorder.reset()
        # Mitra: the lookup's ids, then a fetch of the misses only.
        docs = entities.find(Eq("tag", "a"))
        assert {d["_id"] for d in docs} == set(ids)
        fetched = recorder.fetched
        assert set(fetched) == set(ids) - set(warmed)
        # And the misses shipped exactly once each — no re-dispatch.
        assert len(fetched) == len(set(fetched))
        # DET: the co-located reply already carried every document.
        recorder.reset()
        docs = entities.find(Eq("status", "a"))
        assert {d["_id"] for d in docs} == set(ids)
        assert recorder.fetched == []

    def test_concurrent_hit_and_miss_do_not_double_dispatch(self):
        """Two concurrent gets: the cached slot contributes nothing to
        the wire; only the miss ships."""
        blinder, recorder = deploy()
        runtime = blinder.async_runtime()
        try:
            gateway = SyncGateway(runtime, principal="alice")
            entities = gateway.entities("rec")
            seeded = blinder.entities("rec").insert_many(
                [{"status": "a", "note": f"n{i}"} for i in range(4)]
            )
            hit_id, miss_id = sorted(seeded)[:2]
            warmed = entities.get(hit_id)
            recorder.reset()
            hit_future = runtime.submit(
                lambda: runtime.entities("rec").get(hit_id),
                principal="alice", op="get",
            )
            miss_future = runtime.submit(
                lambda: runtime.entities("rec").get(miss_id),
                principal="alice", op="get",
            )
            assert hit_future.result(10) == warmed
            assert miss_future.result(10)["_id"] == miss_id
            assert recorder.fetched == [miss_id]
        finally:
            runtime.close()

    def test_full_hit_operation_ships_no_frame_at_all(self):
        blinder, recorder = deploy()
        entities = blinder.entities("rec")
        entities.insert_many(
            [{"status": "a", "note": f"n{i}"} for i in range(4)]
        )
        first = entities.find(Eq("status", "a"))
        recorder.reset()
        second = entities.find(Eq("status", "a"))
        assert second == first
        assert recorder.fetched == []
