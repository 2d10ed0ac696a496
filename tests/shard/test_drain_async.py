"""``drain_async_writes`` under concurrency.

The durability barrier for quorum-acked replicated writes must be safe
to call from several threads at once, honest about its timeout, and
correct while new quorum writes keep detaching legs behind its back.
"""

from __future__ import annotations

import threading
import time

from repro.net.latency import NetworkStats
from repro.net.rpc import Request, Response
from repro.net.transport import Transport
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing
from repro.shard.router import ShardedTransport

SERVICE = "tactic/app.field/det"


class SlowableNode(Transport):
    """In-memory node whose delay can be changed mid-test."""

    def __init__(self, name: str, delay: float = 0.0):
        self.name = name
        self.delay = delay
        self.lock = threading.Lock()
        self.requests: list[Request] = []

    def _gate(self):
        if self.delay:
            time.sleep(self.delay)

    def call(self, service, method, **kwargs):
        return self.call_request(Request(service, method, kwargs))

    def call_request(self, request):
        self._gate()
        with self.lock:
            self.requests.append(request)
        return None

    def call_batch(self, requests):
        requests = list(requests)
        self._gate()
        with self.lock:
            self.requests.extend(requests)
        return [Response(ok=True, result=None) for _ in requests]

    def received(self) -> int:
        with self.lock:
            return len(self.requests)

    def stats(self):
        return NetworkStats()


def build(n=3, replication=2, quorum=1, **kwargs):
    nodes = [SlowableNode(f"zone-{i}") for i in range(n)]
    config = ShardConfig(replication=replication, write_quorum=quorum,
                         **kwargs)
    router = ShardedTransport([(node.name, node) for node in nodes],
                              config)
    return {node.name: node for node in nodes}, router


def docs_owned_by(router, name, count):
    """Doc ids whose ring owner is ``name`` (deterministic per seed)."""
    ring = HashRing.from_spec(router.ring_spec())
    found = []
    i = 0
    while len(found) < count:
        doc_id = f"d{i}"
        if ring.owner(doc_id) == name:
            found.append(doc_id)
        i += 1
    return found


def slow_everyone_but(nodes, owner, delay):
    """Slow every node except ``owner``: for docs owned by ``owner``,
    the quorum ack is fast and every replica leg lingers."""
    for name, node in nodes.items():
        if name != owner:
            node.delay = delay


def insert_doc(doc_id):
    return Request(SERVICE, "insert", {"doc_id": doc_id,
                                       "token": doc_id})


class TestConcurrentDrains:
    def test_many_threads_drain_the_same_backlog(self):
        nodes, router = build()
        try:
            doc_ids = docs_owned_by(router, "zone-0", 12)
            slow_everyone_but(nodes, "zone-0", 0.05)
            router.call_batch([insert_doc(d) for d in doc_ids])
            assert router.pending_async_writes() > 0
            results = []
            errors = []

            def drain():
                try:
                    results.append(router.drain_async_writes(timeout=5.0))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=drain) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 6
            assert router.pending_async_writes() == 0
            # Every replica leg delivered exactly once.
            total = sum(node.received() for node in nodes.values())
            assert total == 12 * 2
        finally:
            router.close()

    def test_drain_without_backlog_returns_immediately(self):
        _, router = build()
        try:
            started = time.perf_counter()
            assert router.drain_async_writes(timeout=5.0) == 0
            assert time.perf_counter() - started < 0.5
        finally:
            router.close()


class TestDrainTimeout:
    def test_expired_timeout_returns_with_legs_still_pending(self):
        nodes, router = build()
        try:
            doc_ids = docs_owned_by(router, "zone-0", 4)
            slow_everyone_but(nodes, "zone-0", 0.4)
            router.call_batch([insert_doc(d) for d in doc_ids])
            pending_before = router.pending_async_writes()
            assert pending_before > 0
            started = time.perf_counter()
            router.drain_async_writes(timeout=0.05)
            elapsed = time.perf_counter() - started
            # The barrier respected its budget instead of waiting out
            # the 0.4 s replicas...
            assert elapsed < 0.3
            assert router.pending_async_writes() > 0
            # ...and a patient drain still completes the backlog.
            router.drain_async_writes(timeout=5.0)
            assert router.pending_async_writes() == 0
        finally:
            router.close()


class TestDrainRacingNewWrites:
    def test_writes_issued_during_drain_all_settle(self):
        nodes, router = build()
        try:
            doc_ids = docs_owned_by(router, "zone-0", 40)
            slow_everyone_but(nodes, "zone-0", 0.02)
            stop = threading.Event()
            write_errors = []

            def writer():
                i = 0
                while not stop.is_set() and i < 20:
                    try:
                        router.call_batch([insert_doc(doc_ids[i]),
                                           insert_doc(doc_ids[i + 20])])
                    except Exception as error:  # pragma: no cover
                        write_errors.append(error)
                    i += 1

            def drainer():
                while not stop.is_set():
                    router.drain_async_writes(timeout=0.05)

            writer_t = threading.Thread(target=writer)
            drainer_t = threading.Thread(target=drainer)
            writer_t.start()
            drainer_t.start()
            writer_t.join(timeout=30)
            stop.set()
            drainer_t.join(timeout=30)
            assert not writer_t.is_alive() and not drainer_t.is_alive()
            assert not write_errors
            router.drain_async_writes(timeout=10.0)
            assert router.pending_async_writes() == 0
            assert router.async_write_failures() == 0
            total = sum(node.received() for node in nodes.values())
            assert total == 40 * 2  # every leg of every write landed
        finally:
            router.close()
