"""Parallel write fan-out: concurrent batch scatter, replicated
chains, loose-slot concurrency and per-node timing attribution."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RemoteError, TransportError
from repro.net.latency import NetworkStats
from repro.net.rpc import Request
from repro.net.transport import Transport, slot_response
from repro.obs.timing import timing_sink
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing
from repro.shard.router import ShardedTransport

#: A keyed tactic service: ``insert`` slots chain-route by doc_id.
SERVICE = "tactic/app.field/det"
DOCS = "docs/app"


class RecordingNode(Transport):
    """In-memory shard node capturing arrival order, with dialable
    latency and failure behaviour."""

    def __init__(self, name: str, delay: float = 0.0):
        self.name = name
        self.delay = delay
        self.dead = False
        self.fail_times = 0
        self.remote_fail_ids: set[str] = set()
        self.lock = threading.Lock()
        self.requests: list[Request] = []
        self.frames: list[list[Request]] = []

    def _gate(self) -> None:
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            if self.dead:
                raise TransportError(f"{self.name} is down")
            if self.fail_times > 0:
                self.fail_times -= 1
                raise TransportError(f"{self.name} flaked")

    def _answer(self, request):
        keys = request.kwargs.get("doc_ids") or [request.kwargs.get("doc_id")]
        failing = self.remote_fail_ids.intersection(keys)
        if failing:
            raise RemoteError("DocumentNotFound", str(min(failing)))
        with self.lock:
            self.requests.append(request)
        if "doc_ids" in request.kwargs:
            return [{"_id": doc_id} for doc_id in keys]
        return None

    def call_batch(self, requests):
        requests = list(requests)
        self._gate()
        with self.lock:
            self.frames.append(requests)
        return [slot_response(self._answer, r) for r in requests]

    def stats(self):
        return NetworkStats()


def build(n: int, config: ShardConfig | None = None, delay: float = 0.0):
    nodes = [RecordingNode(f"zone-{i}", delay=delay) for i in range(n)]
    router = ShardedTransport([(node.name, node) for node in nodes],
                              config or ShardConfig())
    return {node.name: node for node in nodes}, router


def insert_request(i: int) -> Request:
    return Request(SERVICE, "insert", {"doc_id": f"d{i}", "token": i})


class TestParallelBatchScatter:
    def test_batch_visits_shards_concurrently(self):
        nodes, router = build(4, delay=0.05)
        requests = [insert_request(i) for i in range(16)]
        started = time.perf_counter()
        responses = router.call_batch(requests)
        elapsed = time.perf_counter() - started
        try:
            assert all(r.ok for r in responses)
            ring = HashRing.from_spec(router.ring_spec())
            touched = {ring.owner(f"d{i}") for i in range(16)}
            assert len(touched) > 1  # the scatter had something to win
            # Sequentially this costs 50 ms per touched shard; in
            # parallel the slowest leg dominates.
            assert elapsed < 0.05 * len(touched)
            assert sum(len(n.requests) for n in nodes.values()) == 16
        finally:
            router.close()

    def test_sequential_config_unchanged(self):
        nodes, router = build(4, ShardConfig(parallel_fanout=False),
                              delay=0.03)
        requests = [insert_request(i) for i in range(12)]
        started = time.perf_counter()
        responses = router.call_batch(requests)
        elapsed = time.perf_counter() - started
        try:
            assert all(r.ok for r in responses)
            ring = HashRing.from_spec(router.ring_spec())
            touched = {ring.owner(f"d{i}") for i in range(12)}
            # One frame per shard, visited one after the other.
            assert elapsed >= 0.03 * len(touched)
            frames = sum(len(n.frames) for n in nodes.values())
            assert frames == len(touched)
        finally:
            router.close()

    def test_per_shard_slots_travel_in_one_frame_in_order(self):
        nodes, router = build(4)
        requests = [insert_request(i) for i in range(24)]
        router.call_batch(requests)
        try:
            ring = HashRing.from_spec(router.ring_spec())
            for name, node in nodes.items():
                expected = [
                    request for i, request in enumerate(requests)
                    if ring.owner(f"d{i}") == name
                ]
                assert node.requests == expected
                if expected:
                    assert len(node.frames) == 1
        finally:
            router.close()

    def test_response_slots_align_with_request_order(self):
        nodes, router = build(4)
        requests = [insert_request(i) for i in range(8)]
        responses = router.call_batch(requests)
        try:
            assert len(responses) == 8
            assert all(r is not None and r.ok for r in responses)
        finally:
            router.close()


class TestReplicatedBatchChains:
    def test_replicated_slots_reach_every_owner(self):
        nodes, router = build(4, ShardConfig(replication=2))
        requests = [insert_request(i) for i in range(12)]
        responses = router.call_batch(requests)
        try:
            assert all(r.ok for r in responses)
            ring = HashRing.from_spec(router.ring_spec())
            for i, request in enumerate(requests):
                owners = set(ring.owners(f"d{i}", 2))
                for name, node in nodes.items():
                    present = request in node.requests
                    assert present == (name in owners)
        finally:
            router.close()

    def test_chain_grouping_keeps_per_node_slot_order(self):
        nodes, router = build(3, ShardConfig(replication=2))
        requests = [insert_request(i) for i in range(18)]
        router.call_batch(requests)
        try:
            ring = HashRing.from_spec(router.ring_spec())
            for name, node in nodes.items():
                # Per key: the node sees that key's writes in slot order.
                arrivals: dict[str, list[int]] = {}
                for request in node.requests:
                    arrivals.setdefault(
                        request.kwargs["doc_id"], []
                    ).append(request.kwargs["token"])
                for doc_id, tokens in arrivals.items():
                    assert tokens == sorted(tokens)
                    assert name in ring.owners(doc_id, 2)
        finally:
            router.close()


class TestWriteQuorum:
    def _chain_for(self, router, replication=2):
        ring = HashRing.from_spec(router.ring_spec())
        for i in range(256):
            owners = ring.owners(f"d{i}", replication)
            if len(set(owners)) == replication:
                return f"d{i}", owners
        raise AssertionError("no fully replicated key found")

    def test_legacy_mode_swallows_replica_failure(self):
        nodes, router = build(3, ShardConfig(replication=2))
        key, (primary, replica) = self._chain_for(router)
        nodes[replica].dead = True
        request = Request(SERVICE, "insert", {"doc_id": key, "token": 1})
        try:
            router.call_request(request)  # no raise: primary delivered
            assert request in nodes[primary].requests
            assert router.replica_error_count() >= 1
        finally:
            router.close()

    def test_primary_hard_failure_propagates(self):
        nodes, router = build(3, ShardConfig(replication=2))
        key, (primary, replica) = self._chain_for(router)
        nodes[primary].dead = True
        nodes[replica].delay = 0.1  # primary's failure lands first
        try:
            with pytest.raises(TransportError):
                router.call_request(
                    Request(SERVICE, "insert", {"doc_id": key, "token": 1})
                )
        finally:
            router.close()


class TestLooseSlots:
    def test_per_slot_error_isolation_under_concurrency(self):
        nodes, router = build(4)
        ring = HashRing.from_spec(router.ring_spec())
        doc_ids = [f"d{i}" for i in range(8)]
        bad = doc_ids[3]
        nodes[ring.owner(bad)].remote_fail_ids.add(bad)
        requests = [
            Request(DOCS, "get_many", {"doc_ids": [doc_id]})
            for doc_id in doc_ids
        ]
        responses = router.call_batch(requests)
        try:
            for doc_id, response in zip(doc_ids, responses):
                if doc_id == bad:
                    assert not response.ok
                    assert response.error_type == "DocumentNotFound"
                else:
                    assert response.ok
        finally:
            router.close()

    def test_mutating_loose_slots_stay_sequential(self):
        # ``setup`` slots are loose (no shard key) and mutating; they
        # must not race each other even under parallel fan-out: each
        # node runs the frame's setups as one sub-frame, in slot order.
        nodes, router = build(2, delay=0.02)
        requests = [
            Request(SERVICE, "setup", {"round": i}) for i in range(3)
        ]
        responses = router.call_batch(requests)
        try:
            assert all(r.ok for r in responses)
            for node in nodes.values():
                assert node.frames == [requests]
            assert router.provision_log == requests
        finally:
            router.close()

    def test_provisioning_reaches_nodes_before_the_frames_writes(self):
        nodes, router = build(2)
        setup = Request(SERVICE, "setup", {})
        try:
            responses = router.call_batch([setup, insert_request(0)])
            assert all(r.ok for r in responses)
            for node in nodes.values():
                assert node.frames[0] == [setup]
            assert sum(node.frames[1:] == [[insert_request(0)]]
                       for node in nodes.values()) == 1
        finally:
            router.close()


def sunk(operation) -> list[tuple[str, float]]:
    """The timing rows ``operation()`` books into the operation sink."""
    rows: list[tuple[str, float]] = []
    with timing_sink(lambda kind, seconds: rows.append((kind, seconds))):
        operation()
    return rows


class TestTimingAttribution:
    def test_parallel_rows_max_merge_per_node(self):
        _, router = build(1)
        try:
            rows = sunk(lambda: router._record_parallel_timings(
                [("a", 0.2), ("a", 0.5), ("b", 0.1)]
            ))
            assert sorted(rows) == [
                ("Shard:a", 0.5), ("Shard:b", 0.1)
            ]
        finally:
            router.close()

    def test_scatter_batch_records_each_node_once(self):
        nodes, router = build(4)
        requests = [insert_request(i) for i in range(16)]
        rows = sunk(lambda: router.call_batch(requests))
        try:
            names = [name for name, _ in rows]
            assert len(names) == len(set(names))
            ring = HashRing.from_spec(router.ring_spec())
            assert set(names) == {f"Shard:{ring.owner(f'd{i}')}"
                                  for i in range(16)}
        finally:
            router.close()


class TestOrderingProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        picks=st.lists(st.integers(min_value=0, max_value=7),
                       min_size=1, max_size=40),
        shards=st.sampled_from([2, 4]),
        replication=st.sampled_from([1, 2]),
    )
    def test_per_key_write_order_survives_parallel_scatter(
        self, picks, shards, replication
    ):
        nodes, router = build(
            shards, ShardConfig(replication=replication)
        )
        try:
            requests = [
                Request(SERVICE, "insert",
                        {"doc_id": f"k{key}", "token": seq})
                for seq, key in enumerate(picks)
            ]
            # Split into frames of 8 (batches run back to back).
            for offset in range(0, len(requests), 8):
                responses = router.call_batch(requests[offset:offset + 8])
                assert all(r.ok for r in responses)
            for node in nodes.values():
                per_key: dict[str, list[int]] = {}
                for request in node.requests:
                    per_key.setdefault(
                        request.kwargs["doc_id"], []
                    ).append(request.kwargs["token"])
                for tokens in per_key.values():
                    assert tokens == sorted(tokens)
        finally:
            router.close()
