"""Metrics export through the async gateway: the same snapshot and text
exposition, plus the admission section, on the production profile."""

import json

from repro.core.query import Eq

from tests.obs.test_registry import parse_exposition


def test_gateway_exports_snapshot_and_text(production):
    gateway = production.blinder.sync_gateway(principal="ops",
                                              max_in_flight=4)
    try:
        entities = gateway.entities(production.schema.name)
        entities.insert_many(production.documents(10))
        entities.find(Eq("status", "final"))

        snapshot = gateway.metrics_snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert set(snapshot) == set(gateway.runtime.metrics_snapshot())
        admission = snapshot["admission"]
        assert admission["admitted"] == admission["completed"] == 2
        assert admission["in_flight"] == 0
        assert snapshot["tactics"] and snapshot["net"]["wire"]

        samples, _ = parse_exposition(gateway.metrics_text())
        assert samples["datablinder_admission_completed", ()] == 2
        assert samples["datablinder_admission_rejected", ()] == 0
        assert any(name == "datablinder_wire_frames_total"
                   for name, _ in samples)
        assert gateway.runtime.metrics_text().startswith("# HELP")
    finally:
        gateway.close()
