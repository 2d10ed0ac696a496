"""One tie rule for both order tactics.

OPE and ORE keep one ``(key, doc_id)`` sorted index, so documents with
equal values order by ``_id`` — ascending, and the reverse when
descending.  A ``find_sorted`` whose ``limit`` cuts through a run of
equal values must therefore return the same documents on one zone, on a
four-node cluster (whose router merges by the same pair) and after a
restarted zone rebuilds its view from the durable KV map.  The corpus is
inserted in an order unrelated to ``_id``, so a view that broke ties by
arrival order would disagree.
"""

from __future__ import annotations

import random

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.keys.keystore import KeyStore
from repro.net.transport import InProcTransport
from repro.stores.kv import KeyValueStore
from repro.tactics import register_builtin_tactics

APP = "tieapp"
FIELD = "rec.score"
#: Runs of five equal scores; every limit below ends inside a run.
LIMITS = (3, 6, 12)


def registry(tactic: str) -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    if tactic == "ore":
        registry.unregister("ope")  # the range field then selects ORE
    return registry


def schema() -> Schema:
    return Schema.define(
        "rec", score=("int", FieldAnnotation.parse("C5", "I,RG")),
    )


def corpus() -> list[dict]:
    documents = [{"_id": f"r{i:03d}", "score": i // 5} for i in range(30)]
    random.Random(11).shuffle(documents)
    return documents


def expected(documents: list[dict], limit: int,
             descending: bool) -> list[str]:
    ordered = sorted(documents, key=lambda d: (d["score"], d["_id"]))
    if descending:
        ordered.reverse()
    return [d["_id"] for d in ordered[:limit]]


def sorted_ids(blinder: DataBlinder) -> dict[tuple[int, bool], list[str]]:
    entities = blinder.entities("rec")
    return {
        (limit, descending): [
            d["_id"] for d in entities.find_sorted(
                "score", limit=limit, descending=descending)
        ]
        for limit in LIMITS for descending in (False, True)
    }


@pytest.mark.parametrize("tactic", ["ore", "ope"])
def test_limit_cuts_ties_the_same_on_every_topology(tactic, tmp_path):
    documents = corpus()
    reg = registry(tactic)
    keystore = KeyStore(APP)
    local_kv = KeyValueStore(tmp_path / "gateway")

    zone = CloudZone(reg, data_dir=tmp_path / "zone")
    single = DataBlinder(APP, InProcTransport(zone.host), registry=reg,
                         keystore=keystore, local_kv=local_kv)
    single.register_schema(schema())
    single.entities("rec").insert_many(documents)
    assert zone.tactic_instance(APP, FIELD, tactic) is not None
    answers = {"one zone": sorted_ids(single)}
    zone.close()

    restarted = CloudZone(reg, data_dir=tmp_path / "zone")
    blinder = DataBlinder(APP, InProcTransport(restarted.host),
                          registry=reg, keystore=keystore,
                          local_kv=local_kv)
    blinder.restore_schema("rec")
    answers["restarted zone"] = sorted_ids(blinder)
    restarted.close()
    local_kv.close()

    cluster = CloudCluster(4, registry=reg)
    try:
        sharded = DataBlinder(APP, cluster.nodes(), registry=reg)
        sharded.register_schema(schema())
        sharded.entities("rec").insert_many(documents)
        answers["four nodes"] = sorted_ids(sharded)
    finally:
        cluster.close()

    want = {
        (limit, descending): expected(documents, limit, descending)
        for limit in LIMITS for descending in (False, True)
    }
    for topology, got in answers.items():
        assert got == want, topology
