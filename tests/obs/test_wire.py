"""Wire accounting at the source: cells reconcile with the frame bytes,
nothing on an operation's path walks the stack for a snapshot, the
frames themselves are unchanged, and no increment is lost."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.latency import roll_up
from repro.net.message import encode
from repro.net.rpc import (
    Request,
    Response,
    ServiceHost,
    batch_request_payload,
    batch_response_payload,
    encode_batch,
)
from repro.net.tcp import TcpRpcServer, TcpTransport
from repro.net.transport import InProcTransport, TransportLayer
from repro.obs import merged
from repro.shard.router import ShardedTransport


def script(entities, documents):
    """insert_many / update / delete / find / aggregate, in that order."""
    ids = entities.insert_many(documents)
    entities.update(ids[0], {"status": "amended", "value": 41.5})
    assert entities.delete(ids[1])
    found = entities.find(Eq("status", documents[2]["status"]))
    assert found
    assert entities.average("value") is not None


def batch_frames(legs) -> list[int]:
    """Slot counts of the batch frames the legs ship from now on."""
    frames: list[int] = []
    for leg in legs:
        def counted(requests, ship=leg.call_batch):
            if requests:
                frames.append(len(requests))
            return ship(requests)
        leg.call_batch = counted
    return frames


def reconcile(transport, legs, run) -> None:
    """Σ cell bytes + batch framing == the NetworkStats byte deltas."""
    frames = batch_frames(legs)
    stats_before = roll_up(transport.labeled_stats())
    cells_before = merged(transport.wire_cells().values())
    run()
    stats = roll_up(transport.labeled_stats())
    cells = merged(transport.wire_cells().values())

    def delta(column: str) -> int:
        return sum(
            getattr(cell, column)
            - getattr(cells_before.get(key), column, 0)
            for key, cell in cells.items())

    framing = sum(12 + slots - 1 for slots in frames)
    assert frames, "the script shipped no batch frame"
    assert delta("bytes_sent") + framing == (
        stats.bytes_sent - stats_before.bytes_sent)
    assert delta("bytes_received") + framing == (
        stats.bytes_received - stats_before.bytes_received)
    assert delta("slots") == (
        stats.messages_sent - stats_before.messages_sent
        - len(frames) + sum(frames))


def documents(count: int) -> list[dict]:
    return [observation.to_document() for observation
            in MedicalDataGenerator(5).observations(count)]


class TestReconciliation:
    def single_endpoint(self, transport, registry) -> None:
        blinder = DataBlinder(
            "wireapp", transport, registry=registry, verify_results=False,
            pipeline=PipelineConfig(batch_writes=True),
        )
        schema = benchmark_observation_schema()
        blinder.register_schema(schema)
        reconcile(blinder.runtime.transport, [transport],
                  lambda: script(blinder.entities(schema.name),
                                 documents(12)))

    def test_inproc(self, transport, registry):
        self.single_endpoint(transport, registry)

    def test_tcp(self, cloud, registry):
        server = TcpRpcServer(cloud.host)
        server.serve_in_background()
        transport = TcpTransport(server.endpoint)
        try:
            self.single_endpoint(transport, registry)
        finally:
            transport.close()
            server.shutdown()
            server.server_close()

    def test_production_stack(self, production):
        reconcile(production.transport, production.legs(),
                  lambda: script(production.entities,
                                 production.documents(20)))
        # Every shard carried some of it, under its own label.
        report = production.transport.wire_cells()
        assert sorted(report) == [f"shard:zone-{i}" for i in range(4)]
        assert all(report.values())


class TestHotPathTakesNoSnapshot:
    def test_no_stack_walk_during_operations(self, production, monkeypatch):
        walks = []

        def counting(original):
            def proxy(self, *args, **kwargs):
                walks.append(type(self).__name__)
                return original(self, *args, **kwargs)
            return proxy

        monkeypatch.setattr(ShardedTransport, "labeled_stats",
                            counting(ShardedTransport.labeled_stats))
        monkeypatch.setattr(TransportLayer, "stats",
                            counting(TransportLayer.stats))
        entities = production.entities
        ids = entities.insert_many(production.documents(50))
        entities.update(ids[0], {"status": "amended"})
        entities.delete(ids[1])
        entities.find(Eq("status", "final"))
        entities.average("value")
        assert walks == []
        # The proxies do count: a report walks the stack.
        production.transport.stats()
        assert "BatchCollector" in walks and "ShardedTransport" in walks


wire_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: (
        st.lists(children, max_size=3)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8,
)
names = st.text("abcdefghij/._", min_size=1, max_size=12)
requests = st.builds(
    Request, names, names,
    st.dictionaries(st.text(max_size=6), wire_values, max_size=3),
    idem=st.sampled_from(["", "a1b2c3-7"]),
)
responses = (
    st.builds(Response, st.just(True), wire_values)
    | st.builds(Response, st.just(False), st.none(),
                st.text(max_size=8), st.text(max_size=12)))


class TestWireUnchanged:
    @given(batch=st.lists(requests, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_request_frame(self, batch):
        frame, sizes = encode_batch(batch)
        assert frame == encode(batch_request_payload(batch))
        assert sizes == [len(encode(r.to_payload())) for r in batch]
        assert len(frame) == sum(sizes) + 12 + len(batch) - 1

    @given(batch=st.lists(responses, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_reply_frame(self, batch):
        frame, sizes = encode_batch(batch)
        assert frame == encode(batch_response_payload(batch))
        assert len(frame) == sum(sizes) + 12 + len(batch) - 1

    def test_call_batch_ships_those_frames(self, monkeypatch):
        """What ``InProcTransport.call_batch`` charges the network model
        for is ``encode(batch_*_payload(...))``, byte for byte."""
        class Echo:
            def ping(self, x=None):
                return x

            def fail(self):
                raise RuntimeError("boom")

        host = ServiceHost()
        host.register("echo", Echo())
        transport = InProcTransport(host)
        charged = []
        monkeypatch.setattr(transport._network, "apply",
                            lambda nbytes: charged.append(nbytes) or 0.0)
        batch = [Request("echo", "ping", {"x": b"\x00\x01"}, idem="k-1"),
                 Request("echo", "fail", {}),
                 Request("echo", "ping", {"x": [1, ["a", "b"]]})]
        replies = transport.call_batch(batch)
        assert [r.ok for r in replies] == [True, False, True]
        assert charged == [
            len(encode(batch_request_payload(batch))),
            len(encode(batch_response_payload(replies))),
        ]
        cells = transport.wire_cells()["endpoint"]
        assert cells["echo", "ping"].slots == 2
        assert cells["echo", "ping"].frames == 1
        assert cells["echo", "fail"].frames == 1
        assert (sum(c.bytes_sent for c in cells.values()) + 12 + 2
                == charged[0] == transport.stats().bytes_sent)


class TestConcurrency:
    def test_no_increment_is_lost(self):
        """8 threads × 200 mixed single and batch calls through one
        stack, preempted every few bytecodes."""
        zone = CloudZone()
        transport = TransportLayer(InProcTransport(zone.host))
        transport.call("admin", "provision_application", application="c")
        threads, calls = 8, 200
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                for call in range(calls):
                    if call % 2:
                        transport.call("docs/c", "count", query=None)
                    else:
                        transport.call_batch([
                            Request("docs/c", "count", {}),
                            Request("docs/c", "all_ids", {"schema": "s"}),
                            Request("docs/c", "count", {"query": None}),
                        ])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker, args=(i,))
                    for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        cells = transport.wire_cells()["endpoint"]
        half = threads * calls // 2
        assert cells["docs/c", "count"].slots == half + 2 * half
        assert cells["docs/c", "count"].frames == 2 * half
        assert cells["docs/c", "all_ids"].slots == half
        assert cells["docs/c", "all_ids"].frames == half
        stats = transport.stats()
        assert stats.messages_sent == 2 * half + 1
        # Three-slot frames pay 12 + 3 - 1 bytes of framing; the lone
        # calls and the provisioning call are frames of one (12 bytes).
        framing = half * (12 + 3 - 1) + (half + 1) * 12
        assert stats.bytes_sent == framing + sum(
            cell.bytes_sent for cell in cells.values())
        assert stats.bytes_received == framing + sum(
            cell.bytes_received for cell in cells.values())
        zone.close()
