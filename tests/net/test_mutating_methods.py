"""One list of mutating RPC methods.

``repro.net.rpc.MUTATING_METHODS`` is the single answer to "does this
method write?".  For every name in it — the built-in tactics' spellings
and the ``add`` / ``remove`` / ``upsert`` a third-party cloud half may
use — a call through each layer that asks the question is treated as a
write: idempotency-keyed, counted by the HSM write counter that keeps
the freshness ledger current, batch-collected and chain-routed.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.errors import TransportError
from repro.integrity.verify import VerifyingTransport
from repro.net.batch import BatchCollector
from repro.net.resilience import ResilientTransport
from repro.net.rpc import MUTATING_METHODS, Request
from repro.shard.ring import HashRing

from tests.shard.test_parallel_writes import RecordingNode, build

#: A tactic no layer knows by name, so only the method name can mark
#: the call as a write.
THIRD_PARTY = "tactic/app.field/third-party"


def write(method: str) -> Request:
    return Request(THIRD_PARTY, method, {"doc_id": "doc-7"})


@pytest.mark.parametrize("method", sorted(MUTATING_METHODS))
class TestEveryMutatingMethod:
    def test_gets_an_idempotency_key(self, method):
        node = RecordingNode("zone")
        ResilientTransport(node).call_request(write(method))
        (delivered,) = node.requests
        assert delivered.idem

    def test_marks_the_freshness_ledger_dirty(self, method):
        """Advances the HSM write counter before the inner call and
        again after it, on both call paths, even when the call raises."""
        node = RecordingNode("zone")
        verifying = VerifyingTransport(node, "app")
        counter = []
        gate = node._gate
        node._gate = lambda: (counter.append(verifying.write_counter()),
                              gate())
        for dead in (False, True):
            node.dead = dead
            for call in (verifying.call_request,
                         lambda request: verifying.call_batch([request])):
                before = verifying.write_counter()
                with (pytest.raises(TransportError) if dead
                      else nullcontext()):
                    call(write(method))
                assert counter[-1] == before + 1
                assert verifying.write_counter() == before + 2
        assert verifying.hsm.read("writes/app") == 8

    def test_is_collected_into_the_write_batch(self, method):
        node = RecordingNode("zone")
        collector = BatchCollector(node)
        with collector.collect():
            collector.call_request(write(method))
            collector.call_request(write(method))
            assert node.requests == []
        assert node.frames == [[write(method), write(method)]]

    def test_routes_as_a_write(self, method):
        nodes, router = build(4)
        try:
            ring = HashRing.from_spec(router.ring_spec())
            chain = router._chain_route(write(method), ring)
            assert chain  # a pure chain delivery, not a scatter
            router.call_request(write(method))
            assert {name for name, node in nodes.items()
                    if node.requests} == set(chain)
        finally:
            router.close()


def test_reads_are_not_writes():
    read = Request(THIRD_PARTY, "eq_query", {"token": b"t"})
    node = RecordingNode("zone")
    ResilientTransport(node).call_request(read)
    assert not node.requests[0].idem
    verifying = VerifyingTransport(node, "app")
    verifying.call_request(read)
    verifying.call_batch([read])
    assert verifying.write_counter() == 0
