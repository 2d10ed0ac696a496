"""One write path: a routed single write is a batch of one.

For every chain-routed write family, ``call_request(r)`` and
``call_batch([r])`` must put the same requests (idempotency keys
included) on the same nodes, and those nodes are the ring owners of the
write's shard key — whatever the replication factor or fan-out mode.

A multi-entry ``insert_many`` — documents, or a keyed tactic's index
entries — splits into one piece per owner chain, each item routed as
the single ``insert`` it stands for, and leaves every node with the
state the per-entry ``insert`` slots leave.

Every read a keyed tactic's gateway half issues answers on a 4-node
ring exactly as on one node (:class:`TestReadParity`).
"""

from __future__ import annotations

import functools
import time

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.errors import (
    DocumentNotFound,
    RemoteError,
    StoreError,
    TacticError,
)
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.resilience import (
    BreakerConfig,
    ResilienceConfig,
    ResilientTransport,
    RetryPolicy,
)
from repro.net.rpc import Request, Response
from repro.net.transport import TransportLayer
from repro.shard.config import ShardConfig
from repro.shard.ring import HashRing
from repro.shard.router import KEYED, ShardedTransport
from repro.spi.context import service_name
from repro.tactics import register_builtin_tactics

from tests.shard.test_parallel_writes import RecordingNode, build

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
    **{
        f"{name}-insert_many": (
            Request(tactic(name), "insert_many", {"entries": [
                {"doc_id": f"doc-{i}", "token": b"t"} for i in range(12)
            ]}, idem=f"{name}-many"),
            [f"doc-{i}" for i in range(12)])
        for name in ("det", "paillier")
    },
    "mitra-insert_many": (
        Request(tactic("mitra"), "insert_many", {"entries": [
            {"address": bytes([i]) * 8, "payload": b"p"} for i in range(12)
        ]}, idem="mitra-many"),
        [bytes([i]) * 8 for i in range(12)]),
}

#: The items an ``insert_many`` family carries, by service kind.
ITEMS = {"docs": "documents", "tactic": "entries"}


def node_logs(nodes) -> dict[str, list[Request]]:
    return {name: list(node.requests)
            for name, node in nodes.items() if node.requests}


@pytest.mark.parametrize("parallel", [True, False],
                         ids=["parallel", "serial"])
@pytest.mark.parametrize("replication,size", [(1, 4), (2, 4), (1, 1), (2, 1)],
                         ids=["1", "2", "1-on-1-node", "2-on-1-node"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_single_write_is_a_batch_of_one(family, replication, size,
                                        parallel):
    """A one-node ring takes the same path: its writes route too."""
    request, keys = FAMILIES[family]
    config = ShardConfig(replication=replication,
                         parallel_fanout=parallel)
    single_nodes, single = build(size, config)
    batch_nodes, batch = build(size, config)
    try:
        single.call_request(request)
        (response,) = batch.call_batch([request])
        assert response.ok
        logs = node_logs(single_nodes)
        assert logs == node_logs(batch_nodes)

        ring = HashRing.from_spec(single.ring_spec())
        chains = {tuple(ring.owners(key, replication)) for key in keys}
        assert set(logs) == {name for chain in chains for name in chain}
        if request.method == "insert_many":
            # One piece per owner chain, keyed by that chain, on every
            # member of it; the pieces cover the items exactly once per
            # replica.
            field = ITEMS[request.service.split("/")[0]]
            items = request.kwargs[field]
            for chain in chains:
                piece = Request(request.service, "insert_many", {field: [
                    item for item, key in zip(items, keys)
                    if tuple(ring.owners(key, replication)) == chain
                ]}, idem=f"{request.idem}.{'+'.join(chain)}")
                for name in chain:
                    assert piece in logs[name]
            assert sum(len(r.kwargs[field])
                       for log in logs.values() for r in log) == (
                12 * min(replication, size))
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


class SlotRefusingNode(RecordingNode):
    """Answers the frame slots of a refused document with an error."""

    def call_batch(self, requests):
        responses = super().call_batch(requests)
        return [
            Response(ok=False, error_type="StoreError",
                     error_message="refused")
            if self.remote_fail_ids & {
                request.kwargs.get("doc_id"),
                (request.kwargs.get("document") or {}).get("_id"),
            } else response
            for request, response in zip(requests, responses)
        ]


@pytest.mark.parametrize("replication", [1, 2])
def test_single_write_raises_its_slot_error(replication):
    """A routed lone write is a frame of one whose answer is unwrapped:
    the error ``call_batch`` leaves in the slot raises from
    ``call_request``."""
    nodes = [SlotRefusingNode(f"zone-{i}") for i in range(4)]
    for node in nodes:
        node.remote_fail_ids.add("doc-7")
    router = ShardedTransport([(node.name, node) for node in nodes],
                              ShardConfig(replication=replication))
    request, _ = FAMILIES["docs-insert"]
    try:
        with pytest.raises(RemoteError) as raised:
            router.call_request(request)
        assert raised.value.remote_type == "StoreError"
        (response,) = router.call_batch([request])
        assert (response.ok, response.error_type) == (False, "StoreError")
    finally:
        router.close()


def test_keyless_document_write_is_a_store_error_not_a_link_failure():
    """A document write without its ``_id`` is the caller's mistake: the
    retry layer above the router sees one slot error, raised as the
    unsharded store raises it, and neither retries it nor counts it
    against the breaker."""
    nodes, router = build(4)
    counter = SlotCounter(router)
    resilient = ResilientTransport(
        counter, RetryPolicy(sleep=False), BreakerConfig(failure_threshold=1),
    )
    request = Request(DOCS, "insert", {"document": {"status": "final"}})
    try:
        with pytest.raises(StoreError, match="non-empty string _id"):
            resilient.call_request(request)
        assert len(counter.slots) == 1
        assert resilient.own_stats().retries == 0
        assert resilient.breaker.state == "closed"
        assert node_logs(nodes) == {}
    finally:
        router.close()


@pytest.mark.parametrize("entry", ["call_request", "call_batch"])
def test_lone_read_groups_its_frame_once(entry):
    """A lone read is routed in one pass: ``_group_slots`` runs once for
    it, whichever way it enters the router."""
    _, router = build(4)
    passes = []
    group_slots = router._group_slots

    def counted(*args, **kwargs):
        passes.append(args)
        return group_slots(*args, **kwargs)

    router._group_slots = counted
    request = Request(DOCS, "count", {})
    try:
        if entry == "call_request":
            assert router.call_request(request) == 0
        else:
            assert router.call_batch([request])[0].result == 0
        assert len(passes) == 1
    finally:
        router.close()


@pytest.mark.parametrize("name", ["det", "mitra"])
def test_insert_many_entry_without_its_key_is_refused(name):
    """An entry without its shard key is never broadcast: the whole slot
    is refused before any node sees it, as a keyless document is."""
    nodes, router = build(4)
    request = Request(tactic(name), "insert_many", {"entries": [
        {"doc_id": "doc-1", "address": b"\x01addr", "token": b"t"},
        {"token": b"t"},
    ]}, idem="keyless")
    try:
        with pytest.raises(TacticError):
            router.call_request(request)
        (response,) = router.call_batch([request])
        assert not response.ok
        assert node_logs(nodes) == {}
    finally:
        router.close()


#: Real cloud halves of every key kind, with the entries of one bulk
#: insert: doc-keyed (DET, RND, OPE), address-keyed (Mitra) and
#: tag-keyed (stateless SSE, whose per-tag counter makes order count).
ENTRIES = {
    "det": [{"doc_id": f"doc-{i}", "token": bytes([i % 3])}
            for i in range(24)],
    "rnd": [{"doc_id": f"doc-{i}", "blob": bytes([i]) * 4}
            for i in range(24)],
    "ope": [{"doc_id": f"doc-{i}", "ciphertext": 1000 - i}
            for i in range(24)],
    "mitra": [{"address": bytes([i]) * 16, "payload": bytes([i])}
              for i in range(24)],
    "sse-stateless": [{"tag": bytes([i % 5]) * 8, "salt": bytes([i]),
                       "payload": bytes([i, i])} for i in range(24)],
}


def provisioned(replication: int) -> tuple[CloudCluster,
                                           ShardedTransport]:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cluster = CloudCluster(4, registry=registry)
    router = ShardedTransport(cluster.nodes(),
                              ShardConfig(replication=replication))
    router.call("admin", "provision_application", application="app")
    for name in ENTRIES:
        router.call("admin", "provision_tactic", application="app",
                    field="f", tactic=name)
        router.call(service_name("app", "f", name), "setup")
    return cluster, router


def bulk_frame(many: bool) -> list[Request]:
    """:data:`ENTRIES` as one ``insert_many`` slot per service, or as
    one ``insert`` slot per entry."""
    frame = []
    for name, entries in ENTRIES.items():
        service = service_name("app", "f", name)
        if many:
            frame.append(Request(service, "insert_many",
                                 {"entries": entries}, idem=f"{name}-many"))
        else:
            frame.extend(Request(service, "insert", entry,
                                 idem=f"{name}-{index}")
                         for index, entry in enumerate(entries))
    return frame


@pytest.mark.parametrize("resharding", [False, True],
                         ids=["steady", "mid-reshard"])
@pytest.mark.parametrize("replication", [1, 2])
def test_insert_many_leaves_the_per_entry_state(replication, resharding):
    """One frame of per-entry ``insert`` slots and one frame of one
    ``insert_many`` slot per service leave every node byte-identical —
    also while a joining node's forwarding table is up."""
    runs = []
    for many in (False, True):
        cluster, router = provisioned(replication)
        if resharding:
            router.begin_join(*cluster.add_zone("zone-4"))
        assert all(response.ok
                   for response in router.call_batch(bulk_frame(many)))
        runs.append({name: zone_fingerprint(cluster.zone(name), "app")
                     for name in cluster.names()})
        router.close()
        cluster.close()
    per_entry, batched = runs
    assert batched == per_entry
    assert len(set(batched.values())) == len(batched)


class SlotCounter(TransportLayer):
    """Counts the sub-slots a node leg carries."""

    def __init__(self, inner):
        super().__init__(inner)
        self.slots: list[Request] = []

    def call_request(self, request):
        self.slots.append(request)
        return self._inner.call_request(request)

    def call_batch(self, requests):
        self.slots.extend(requests)
        return self._inner.call_batch(requests)


def test_bulk_insert_sends_one_slot_per_service_and_shard():
    """A 50-document ``insert_many`` of the §5.2 schema on a 4-node
    ring, production profile: at most (tactic services + 1) x 4
    sub-slots, plus the ride-along report on each leg."""
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    resilience = ResilienceConfig()
    cluster = CloudCluster(4, registry=registry, resilience=resilience)
    legs = {name: SlotCounter(transport)
            for name, transport in cluster.nodes()}
    blinder = DataBlinder(
        "obsapp", list(legs.items()), registry=registry,
        verify_results=False, pipeline=PipelineConfig.production(),
        resilience=resilience,
    )
    try:
        blinder.register_schema(benchmark_observation_schema())
        entities = blinder.entities("observation")
        documents = [o.to_document() for o in
                     MedicalDataGenerator(5).observations(50)]
        for leg in legs.values():
            leg.slots.clear()
        assert len(entities.insert_many(documents)) == 50
        slots = [slot for leg in legs.values() for slot in leg.slots]
        services = blinder.runtime.loaded_tactics()
        writes = [slot for slot in slots
                  if not slot.service.startswith("integrity/")]
        assert len(services) == 8
        assert {slot.method for slot in writes} == {"insert_many"}
        assert len(writes) <= (len(services) + 1) * 4
        assert len(slots) - len(writes) <= 4
    finally:
        blinder.runtime.transport.close()
        cluster.close()


LABELS = [f"v{i % 4}" for i in range(16)]
NUMBERS = [float(i % 7) * 2.5 - 4.0 for i in range(16)]
FACTORS = [i % 5 + 1 for i in range(16)]
DOC_IDS = [f"doc-{i:02d}" for i in range(16)]


def write(tactic, values, changes: bool) -> None:
    """Half the entries through the batch SPI, half through ``insert``;
    then an update and a delete where the tactic has them."""
    entries = list(zip(DOC_IDS, values))
    tactic.index_many(entries[:8])
    for doc_id, value in entries[8:]:
        tactic.insert(doc_id, value)
    if changes:
        tactic.update("doc-01", values[1], "moved")
        if hasattr(tactic, "delete"):
            tactic.delete("doc-02", values[2])


def equality_reads(tactic, replication: int) -> dict:
    answers = {
        value: tactic.resolve_eq(tactic.eq_query(value))
        for value in [*sorted(set(LABELS)), "moved", "absent"]
    }
    if hasattr(tactic, "retrieve"):
        answers["retrieve"] = [retrieved(tactic, doc_id)
                               for doc_id in [*DOC_IDS, "doc-99"]]
    return answers


def retrieved(tactic, doc_id: str):
    """The stored value, or the name of the error a miss raises."""
    try:
        return tactic.retrieve(doc_id)
    except DocumentNotFound as exc:
        return type(exc).__name__


def order_reads(tactic, replication: int) -> dict:
    answers: dict = {
        (low, high): tactic.range_query(low, high)
        for low, high in [(-1.5, 6.0), (None, 0.0), (5.0, None),
                          (100.0, 200.0)]
    }
    for low, high in [(None, None), (-1.5, 6.0)]:
        for limit in (None, 3):
            for descending in (False, True):
                answers[low, high, limit, descending] = tactic.ordered_ids(
                    low, high, limit=limit, descending=descending)
    return answers


def aggregate_reads(function: str, tactic, replication: int) -> dict:
    # Without ``doc_ids`` a replicated ring would count every copy.
    selections = [DOC_IDS[::3], DOC_IDS, ["doc-99"]]
    if replication == 1:
        selections.append(None)
    return {
        (fn, None if ids is None else tuple(ids)): tactic.aggregate(fn, ids)
        for ids in selections for fn in (function, "count")
    }


#: Keyed tactic -> (values, update/delete?, reads(tactic, replication)).
READS = {
    **{name: (LABELS, True, equality_reads)
       for name in ("det", "blind-index", "sophos", "mitra",
                    "sse-stateless")},
    "rnd": (LABELS, False, equality_reads),
    "ope": (NUMBERS, False, order_reads),
    "ore": (NUMBERS, False, order_reads),
    "paillier": (NUMBERS, False, functools.partial(aggregate_reads, "sum")),
    "elgamal": (FACTORS, False,
                functools.partial(aggregate_reads, "product")),
}


class TestReadParity:
    """Every read a keyed tactic's gateway half issues — ``eq_query``
    through ``resolve_eq``, ``range_query``, ``ordered_range`` with and
    without a limit in both directions, ``retrieve`` and ``aggregate``
    — answers on a 4-node ring as on one node, after the same writes."""

    def test_every_keyed_tactic_is_covered(self):
        assert set(READS) == KEYED

    @staticmethod
    def answers(name: str, size: int, replication: int) -> dict:
        values, changes, reads = READS[name]
        registry = TacticRegistry()
        register_builtin_tactics(registry)
        cluster = CloudCluster(size, registry=registry)
        router = ShardedTransport(cluster.nodes(),
                                  ShardConfig(replication=replication))
        try:
            blinder = DataBlinder("app", router, registry=registry)
            tactic = blinder.runtime.tactic("obs.value", name)
            write(tactic, values, changes)
            return reads(tactic, replication)
        finally:
            router.close()
            cluster.close()

    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize("name", sorted(READS))
    def test_four_nodes_answer_as_one(self, name, replication):
        one = self.answers(name, 1, replication)
        four = self.answers(name, 4, replication)
        assert four == one
        assert any(one.values())
