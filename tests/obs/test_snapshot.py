"""One metrics snapshot for the whole deployment, production profile."""

import json

from repro.core.query import Eq
from repro.net.latency import roll_up

from tests.obs.test_registry import parse_exposition


def exercise(production) -> None:
    entities = production.entities
    ids = entities.insert_many(production.documents(30))
    entities.update(ids[0], {"status": "amended"})
    entities.delete(ids[1])
    entities.find(Eq("status", "final"))
    entities.average("value")


def test_snapshot_has_every_section_and_is_json(production):
    exercise(production)
    snapshot = production.blinder.metrics_snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert {"net", "tactics", "planner", "cache", "tokens",
            "integrity", "shard", "metrics"} <= set(snapshot)
    assert "cost" not in snapshot

    # net: per endpoint (the labeled_stats report) and per cell.
    stats = roll_up(production.transport.labeled_stats())
    endpoints = snapshot["net"]["endpoints"]
    assert {f"shard:zone-{i}" for i in range(4)} <= set(endpoints)
    assert sum(e["bytes_sent"] for e in endpoints.values()) == (
        stats.bytes_sent)
    wire = snapshot["net"]["wire"]
    assert {row["shard"] for row in wire} == {
        f"zone-{i}" for i in range(4)}
    assert {"docs/obsapp", "integrity/obsapp", "admin"} <= {
        row["service"] for row in wire}
    assert sum(row["frames"] for row in wire) >= stats.messages_sent

    # tactics: the metrics_report view, per instance and method.
    tactics = snapshot["tactics"]
    assert len(tactics) == 8
    paillier = next(ops for service, ops in tactics.items()
                    if service.endswith("/paillier"))
    # The bulk insert's 30 ciphertexts leave in one slot.
    assert paillier["insert_many"]["bytes_sent"] > 0
    assert paillier["insert_many"]["calls"] == 1

    planner = snapshot["planner"]["observation"]
    assert planner["executions"] >= 5
    assert "topology_invalidations" not in planner
    assert planner["node_timings"]["ColocatedFetch:det"]["calls"] >= 1
    assert snapshot["cache"]["admitted"] == {"observation": False}
    assert snapshot["cache"]["documents"]["hits"] == 0
    # Not admitted, so no hit was ever validated, locally or otherwise.
    assert snapshot["cache"]["coherence"] == {
        "validations": {"local": 0, "resynced": 0}, "stamp_mismatches": 0}
    assert snapshot["tokens"]["caches"] >= 1
    integrity = snapshot["integrity"]
    assert set(integrity) == {"failures", "stale", "resyncs", "acked",
                              "write_counter", "ledger"}
    assert integrity["failures"] == 0
    assert any(key.endswith(":docs") for key in integrity["ledger"])
    # Every write frame advanced the HSM counter twice; every re-sync
    # pulled one report per shard, and every other report slot rode a
    # write frame's leg.
    assert integrity["write_counter"] > 0
    assert integrity["write_counter"] % 2 == 0
    assert integrity["resyncs"] >= 1
    assert sum(row["slots"] for row in wire
               if row["service"] == "integrity/obsapp"
               and row["method"] == "report") == (
        4 * integrity["resyncs"] + integrity["acked"])
    # shard: the router's own counters — 4 nodes, unreplicated, no
    # faults, and the inserts and reads above all scattered.
    shard = snapshot["shard"]
    assert set(shard) == {"failovers", "replica_errors", "scatters",
                          "topology_epoch"}
    assert shard["failovers"] == shard["replica_errors"] == 0
    assert shard["scatters"] > 0
    assert shard["topology_epoch"] == 1
    assert "admission" not in snapshot   # no async gateway started


def test_text_exposition_parses_and_agrees(production):
    exercise(production)
    blinder = production.blinder
    samples, types = parse_exposition(blinder.metrics_text())
    assert types["datablinder_wire_bytes_total"] == "gauge"
    assert types["datablinder_tactic_blocked_seconds"] == "histogram"

    def total(name, **where):
        return sum(value for (series, labels), value in samples.items()
                   if series == name
                   and where.items() <= dict(labels).items())

    stats = roll_up(production.transport.labeled_stats())
    assert total("datablinder_net_bytes_sent") == stats.bytes_sent
    by_tactic = blinder.runtime.metrics.by_tactic()
    paillier = "tactic/obsapp/observation.value/paillier"
    assert total("datablinder_wire_bytes_total", direction="sent",
                 service=paillier) == by_tactic["paillier"].bytes_sent
    assert total("datablinder_tactic_blocked_seconds_count",
                 service=paillier) == by_tactic["paillier"].calls
    assert total("datablinder_planner_executions",
                 schema="observation") >= 5
    assert ("datablinder_cache_misses", (("tier", "documents"),)) in samples
    assert total("datablinder_integrity_failures") == 0
