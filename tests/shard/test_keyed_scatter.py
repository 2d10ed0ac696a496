"""Keyed scatters: ``get_many`` and a filtered ``aggregate`` slice their
``doc_ids`` per ring owner and send the slices together — one overlapped
round trip, one failover rule, per-node timing rows, and a leg pool
sized from the topology."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.errors import RemoteError, TransportError, TransportFault
from repro.fhir.model import observation_schema
from repro.net.latency import NetworkModel, NetworkStats
from repro.net.rpc import Request
from repro.net.transport import Transport, slot_response
from repro.obs.timing import timing_sink
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing
from repro.shard import router as router_module
from repro.shard.router import ShardedTransport
from repro.tactics import register_builtin_tactics

DOCS = "docs/app"
PAILLIER = "tactic/app.value/paillier"
BARRIER_TIMEOUT = 10.0


class StubNode(Transport):
    """A node that holds every document: ``get_many`` echoes its ids,
    ``aggregate`` answers the identity partial with their count.

    ``rendezvous`` (a barrier) is waited on inside every call, so a
    caller passes only when that many legs are in flight together;
    ``error`` is raised instead of answering.
    """

    def __init__(self, name: str, rendezvous=None, delay: float = 0.0):
        self.name = name
        self.rendezvous = rendezvous
        self.delay = delay
        self.error: Exception | None = None
        self.lock = threading.Lock()
        self.slices: list[list[str]] = []

    def call_batch(self, requests):
        return [slot_response(self._answer, r) for r in requests]

    def _answer(self, request):
        if self.rendezvous is not None:
            self.rendezvous.wait()
        if self.delay:
            time.sleep(self.delay)
        if self.error is not None:
            raise self.error
        doc_ids = list(request.kwargs["doc_ids"])
        with self.lock:
            self.slices.append(doc_ids)
        if request.method == "aggregate":
            return [{"ct": 1, "count": len(doc_ids)}]
        return [{"_id": doc_id, "node": self.name} for doc_id in doc_ids]

    def stats(self):
        return NetworkStats()


def build(n: int = 4, config: ShardConfig | None = None, **node_kwargs):
    nodes = [StubNode(f"zone-{i}", **node_kwargs) for i in range(n)]
    router = ShardedTransport([(node.name, node) for node in nodes],
                              config or ShardConfig())
    return {node.name: node for node in nodes}, router


def spanning_ids(router: ShardedTransport, per_owner: int = 3) -> list[str]:
    """Document ids whose primary owners cover every node."""
    ring = HashRing.from_spec(router.ring_spec())
    buckets: dict[str, list[str]] = {n: [] for n in router.node_names()}
    index = 0
    while any(len(ids) < per_owner for ids in buckets.values()):
        doc_id = f"d{index}"
        index += 1
        if len(buckets[ring.owner(doc_id)]) < per_owner:
            buckets[ring.owner(doc_id)].append(doc_id)
    return sorted(doc_id for ids in buckets.values() for doc_id in ids)


def keyed_request(method: str, doc_ids: list[str]) -> Request:
    service = PAILLIER if method == "aggregate" else DOCS
    return Request(service, method, {"doc_ids": doc_ids})


def answered(method: str, result) -> int:
    """How many keys the merged answer covers."""
    if method == "aggregate":
        return sum(part["count"] for part in result)
    return len(result)


KEYED = ["aggregate", "get_many", "get_many_proven"]


class TestLegsTravelTogether:
    @pytest.mark.parametrize("method", KEYED)
    def test_all_owner_slices_are_in_flight_at_once(self, method):
        # Each node blocks until four calls have arrived: a router that
        # walks its owners one by one never gets past the first.
        rendezvous = threading.Barrier(4, timeout=BARRIER_TIMEOUT)
        nodes, router = build(4, rendezvous=rendezvous)
        doc_ids = spanning_ids(router)
        try:
            result = router.call_request(keyed_request(method, doc_ids))
            assert answered(method, result) == len(doc_ids)
            assert all(len(node.slices) == 1 for node in nodes.values())
            assert router.scatter_count() == 1  # counted like a broadcast
        finally:
            router.close()

    def test_get_many_keeps_request_order_and_drops_duplicates(self):
        _, router = build(4)
        doc_ids = spanning_ids(router)
        asked = list(reversed(doc_ids)) + doc_ids[:2]
        try:
            stored = router.call_request(keyed_request("get_many", asked))
            assert [item["_id"] for item in stored] == asked
        finally:
            router.close()

    def test_forwarding_leg_is_one_overlapped_round(self):
        # Mid-migration the new owner misses what still sits on the
        # previous one; the misses go back out together.
        class Empty(StubNode):
            def _answer(self, request):
                super()._answer(request)
                return []

        nodes, router = build(4)
        joined = Empty("zone-new")
        router.begin_join("zone-new", joined)
        ring = HashRing.from_spec(router.ring_spec())
        doc_ids = [f"m{i}" for i in range(200)
                   if ring.owner(f"m{i}") == "zone-new"][:12]
        try:
            assert router.forwarding_active()
            stored = router.call_request(
                keyed_request("get_many", doc_ids))
            assert [item["_id"] for item in stored] == doc_ids
            previous = {item["node"] for item in stored}
            assert len(previous) > 1 and "zone-new" not in previous
            assert len(joined.slices) == 1
            assert all(len(nodes[name].slices) == 1 for name in previous)
        finally:
            router.close()


class TestSerialModes:
    """``parallel_fanout=False`` and calls made from a scatter worker
    keep the one-leg-at-a-time walk in node order."""

    @staticmethod
    def serial_probe(nodes):
        """Make every node record arrival order and assert it is alone."""
        arrivals: list[str] = []
        gate = threading.Lock()

        def wrap(node):
            inner = node.call_request

            def call_request(request):
                assert gate.acquire(blocking=False), "legs overlapped"
                try:
                    arrivals.append(node.name)
                    time.sleep(0.005)
                    return inner(request)
                finally:
                    gate.release()

            node.call_request = call_request

        for node in nodes.values():
            wrap(node)
        return arrivals

    @pytest.mark.parametrize("method", ["aggregate", "get_many"])
    def test_parallel_fanout_off_walks_owners_in_order(self, method):
        nodes, router = build(4, ShardConfig(parallel_fanout=False))
        arrivals = self.serial_probe(nodes)
        doc_ids = spanning_ids(router)
        try:
            result = router.call_request(keyed_request(method, doc_ids))
            assert answered(method, result) == len(doc_ids)
            assert arrivals == sorted(nodes)
        finally:
            router.close()

    @pytest.mark.parametrize("method", ["aggregate", "get_many"])
    def test_call_from_a_scatter_worker_degrades_to_serial(self, method):
        nodes, router = build(4)
        arrivals = self.serial_probe(nodes)
        doc_ids = spanning_ids(router)
        try:
            result = router._scatter_pool().submit(
                router.call_request, keyed_request(method, doc_ids)
            ).result(timeout=BARRIER_TIMEOUT)
            assert answered(method, result) == len(doc_ids)
            assert arrivals == sorted(nodes)
        finally:
            router.close()


class TestFailoverRule:
    """Link failures defer a slice to the next owner; application
    errors propagate; the last owner's failure re-raises."""

    @pytest.mark.parametrize("method", ["aggregate", "get_many"])
    @pytest.mark.parametrize("error", [
        TransportError("zone down"),
        TransportFault("frame lost"),
    ], ids=["transport-error", "transport-fault"])
    def test_link_failure_moves_the_slice_to_the_replica(self, method,
                                                         error):
        nodes, router = build(4, ShardConfig(replication=2))
        doc_ids = spanning_ids(router)
        nodes["zone-1"].error = error
        before = router.stats().failovers
        try:
            result = router.call_request(keyed_request(method, doc_ids))
            assert answered(method, result) == len(doc_ids)
            assert router.stats().failovers == before + 1
            ring = HashRing.from_spec(router.ring_spec())
            rerouted = sorted(d for d in doc_ids
                              if ring.owner(d) == "zone-1")
            second = sorted(
                doc_id for node in nodes.values()
                for ids in node.slices[1:] for doc_id in ids
            )
            assert second == rerouted
        finally:
            router.close()

    @pytest.mark.parametrize("method", ["aggregate", "get_many"])
    def test_remote_error_propagates_without_failover(self, method):
        nodes, router = build(4, ShardConfig(replication=2))
        doc_ids = spanning_ids(router)
        nodes["zone-2"].error = RemoteError("TacticError", "bad request")
        before = router.stats().failovers
        try:
            with pytest.raises(RemoteError):
                router.call_request(keyed_request(method, doc_ids))
            assert router.stats().failovers == before
        finally:
            router.close()

    @pytest.mark.parametrize("method", ["aggregate", "get_many"])
    def test_last_owner_failure_reraises(self, method):
        nodes, router = build(2, ShardConfig(replication=2))
        for node in nodes.values():
            node.error = TransportError("zone down")
        try:
            with pytest.raises(TransportError):
                router.call_request(
                    keyed_request(method, spanning_ids(router)))
        finally:
            router.close()


class TestTimingRows:
    @pytest.mark.parametrize("method", ["aggregate", "get_many"])
    def test_one_row_per_node_and_the_slowest_leg_is_the_wall(
        self, method
    ):
        nodes, router = build(4, delay=0.03)
        doc_ids = spanning_ids(router)
        rows = []
        started = time.perf_counter()
        with timing_sink(lambda kind, seconds: rows.append((kind, seconds))):
            router.call_request(keyed_request(method, doc_ids))
        wall = time.perf_counter() - started
        try:
            assert sorted(name for name, _ in rows) == sorted(
                f"Shard:{node}" for node in nodes)
            # Overlapped legs: summing them would claim 4x the wall
            # clock; the slowest one accounts for (most of) it.
            assert max(seconds for _, seconds in rows) > 0.5 * wall
        finally:
            router.close()

    def test_filtered_average_and_find_charge_overlapped_shards(self):
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        # The wall clock below also holds gateway CPU (tokens, Paillier
        # decryption); a link slow enough to dominate it keeps the
        # overlap ratio readable on a loaded two-core machine.
        network = NetworkModel(one_way_latency_ms=30.0, sleep=False)
        cluster = CloudCluster(4, registry=registry, network=network)
        blinder = DataBlinder("app", ShardedTransport(cluster.nodes()),
                              registry=registry)
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        for i in range(40):  # enough that every shard owns some
            observations.insert({
                "id": f"f{i}", "identifier": i, "status": "final",
                "code": "glucose", "subject": "Patient", "effective": i,
                "issued": i, "performer": "Dr", "value": float(i),
                "interpretation": "",
            })

        def shard_rows() -> dict[str, dict]:
            timings = blinder.planner_stats("observation")["node_timings"]
            return {kind: dict(cost) for kind, cost in timings.items()
                    if kind.startswith("Shard:")}

        network.sleep = True
        try:
            for operation in (
                lambda: observations.average(
                    "value", where=Eq("status", "final")),
                lambda: observations.find(Eq("status", "final")),
            ):
                before = shard_rows()
                started = time.perf_counter()
                operation()
                wall = time.perf_counter() - started
                after = shard_rows()
                assert len(after) == 4
                spent = {
                    kind: cost["seconds"] - before[kind]["seconds"]
                    for kind, cost in after.items()
                }
                # Every shard worked at once: no shard is charged more
                # than the operation took, yet together they account
                # for more than its wall clock.
                assert all(0 < s <= wall for s in spent.values()), spent
                assert sum(spent.values()) > 1.5 * wall
        finally:
            cluster.close()


class TestLegPool:
    def test_pool_holds_fanout_workers_legs_per_node(self):
        legs = router_module.LEGS_PER_NODE
        nodes, router = build(4)
        try:
            assert router._scatter_pool()._max_workers == legs * 4
            router.begin_join("zone-new", StubNode("zone-new"))
            assert router._scatter_pool()._max_workers == legs * 5
            router.finish_migration()
            router.begin_leave("zone-0")
            assert router._scatter_pool()._max_workers == legs * 5
            router.finish_leave("zone-0")
            assert router._scatter_pool()._max_workers == legs * 4
        finally:
            router.close()

    def test_sixteen_concurrent_scatters_do_not_queue(self, monkeypatch):
        # 16 callers x 4 legs must all be in flight at once: each
        # caller carries one leg itself and borrows three workers, so
        # 12 legs per node (48 workers) are exactly enough.
        monkeypatch.setattr(router_module, "LEGS_PER_NODE", 12)
        callers = 16
        rendezvous = threading.Barrier(callers * 4,
                                       timeout=BARRIER_TIMEOUT)
        _, router = build(4, rendezvous=rendezvous)
        doc_ids = spanning_ids(router)
        outcomes: list = []

        def caller(index: int) -> None:
            method = "aggregate" if index % 2 else "get_many"
            try:
                outcomes.append(answered(method, router.call_request(
                    keyed_request(method, doc_ids))))
            except Exception as exc:  # noqa: BLE001 - reported below
                outcomes.append(exc)

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(callers)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=2 * BARRIER_TIMEOUT)
            assert outcomes == [len(doc_ids)] * callers
        finally:
            router.close()
