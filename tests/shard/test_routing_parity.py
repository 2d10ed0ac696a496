"""One write path: a routed single write is a batch of one.

For every chain-routed write family, ``call_request(r)`` and
``call_batch([r])`` must put the same requests (idempotency keys
included) on the same nodes, and those nodes are the ring owners of the
write's shard key — whatever the replication factor or fan-out mode.
"""

from __future__ import annotations

import time

import pytest

from repro.net.rpc import Request
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing

from tests.shard.test_parallel_writes import build

DOCS = "docs/app"
DOC = {"_id": "doc-7", "status": "final"}
BIEX = "tactic/app.note/biex-2lev"


def tactic(name: str) -> str:
    return f"tactic/app.field/{name}"


#: label -> (request, the shard keys whose owner chains it must reach).
FAMILIES = {
    "docs-insert": (Request(DOCS, "insert", {"document": DOC}, idem="k1"),
                    ["doc-7"]),
    "docs-replace": (Request(DOCS, "replace", {"document": DOC},
                             idem="k2"), ["doc-7"]),
    "docs-delete": (Request(DOCS, "delete", {"doc_id": "doc-7"},
                            idem="k3"), ["doc-7"]),
    "docs-insert_many": (
        Request(DOCS, "insert_many",
                {"documents": [{"_id": f"doc-{i}"} for i in range(12)]},
                idem="k4"),
        [f"doc-{i}" for i in range(12)]),
    **{
        name: (Request(tactic(name), "insert",
                       {"doc_id": "doc-7", "token": b"t"}, idem=name),
               ["doc-7"])
        for name in ("det", "rnd", "ope", "paillier")
    },
    **{
        name: (Request(tactic(name), "insert",
                       {"address": b"\x01addr", "value": b"v"}, idem=name),
               [b"\x01addr"])
        for name in ("sophos", "mitra")
    },
    "sse-stateless": (Request(tactic("sse-stateless"), "add",
                              {"tag": b"\x02tag", "entry": b"e"},
                              idem="sse"), [b"\x02tag"]),
    "biex-pinned": (Request(BIEX, "insert_terms",
                            {"doc_id": "doc-7", "pairs": []}, idem="bx"),
                    [BIEX]),
}


def node_logs(nodes) -> dict[str, list[Request]]:
    return {name: list(node.requests)
            for name, node in nodes.items() if node.requests}


@pytest.mark.parametrize("parallel", [True, False],
                         ids=["parallel", "serial"])
@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_single_write_is_a_batch_of_one(family, replication, parallel):
    request, keys = FAMILIES[family]
    config = ShardConfig(replication=replication,
                         parallel_fanout=parallel)
    single_nodes, single = build(4, config)
    batch_nodes, batch = build(4, config)
    try:
        single.call_request(request)
        (response,) = batch.call_batch([request])
        assert response.ok
        logs = node_logs(single_nodes)
        assert logs == node_logs(batch_nodes)

        ring = HashRing.from_spec(single.ring_spec())
        chains = {tuple(ring.owners(key, replication)) for key in keys}
        assert set(logs) == {name for chain in chains for name in chain}
        if family == "docs-insert_many":
            # One piece per owner chain, keyed by that chain, on every
            # member of it; the pieces cover the documents exactly once
            # per replica.
            for chain in chains:
                piece = Request(DOCS, "insert_many", {"documents": [
                    document for document in request.kwargs["documents"]
                    if tuple(ring.owners(document["_id"], replication))
                    == chain
                ]}, idem=f"k4.{'+'.join(chain)}")
                for name in chain:
                    assert piece in logs[name]
            assert sum(len(r.kwargs["documents"])
                       for log in logs.values() for r in log) == (
                12 * replication)
        else:
            assert all(log == [request] for log in logs.values())
    finally:
        single.close()
        batch.close()


@pytest.mark.parametrize("parallel", [True, False],
                         ids=["parallel", "serial"])
def test_returned_insert_is_on_both_replicas(parallel):
    nodes, router = build(
        3, ShardConfig(replication=2, parallel_fanout=parallel)
    )
    request, _ = FAMILIES["docs-insert"]
    ring = HashRing.from_spec(router.ring_spec())
    primary, replica = ring.owners("doc-7", 2)
    nodes[replica].delay = 0.1
    try:
        started = time.perf_counter()
        router.call_request(request)
        elapsed = time.perf_counter() - started
        # No barrier: the call itself waited for the slow replica.
        assert elapsed >= 0.1
        assert nodes[primary].requests == [request]
        assert nodes[replica].requests == [request]
        assert router.replica_error_count() == 0
    finally:
        router.close()
