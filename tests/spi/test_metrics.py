"""Per-tactic runtime performance metrics (Fig. 1 reification)."""

import pytest

from repro.core.query import Eq
from repro.fhir.model import observation_schema
from repro.obs import WireCell
from repro.spi.metrics import OperationCost, TacticMetrics


def cells(*rows):
    """A ``wire_cells`` source: rows of (service, method, slots, frames,
    bytes_sent, bytes_received) on one endpoint."""
    report = {"endpoint": {(service, method): WireCell(*rest)
                           for service, method, *rest in rows}}
    return lambda: report


class TestTacticMetrics:
    """The view joins calls + blocked seconds (counted at the source)
    with the transport's wire cells (rounds + bytes) at read time."""

    def test_record_and_aggregate(self):
        metrics = TacticMetrics(cells=cells(
            ("tactic/a/f/det", "insert", 2, 2, 200, 40),
            ("tactic/a/f/det", "eq_query", 1, 1, 50, 500),
            ("tactic/a/g/mitra", "insert", 1, 1, 80, 10),
            ("docs/a", "insert", 1, 1, 999, 9),  # no SPI call: not a tactic
        ))
        metrics.record_call("tactic/a/f/det", "insert", 0.01)
        metrics.record_call("tactic/a/f/det", "insert", 0.03)
        metrics.record_call("tactic/a/f/det", "eq_query", 0.02)
        metrics.record_call("tactic/a/g/mitra", "insert", 0.05)

        by_tactic = metrics.by_tactic()
        assert set(by_tactic) == {"det", "mitra"}
        assert by_tactic["det"].calls == 3
        assert by_tactic["det"].rounds == 3
        assert by_tactic["det"].seconds == pytest.approx(0.06)
        assert by_tactic["det"].bytes_sent == 250
        assert by_tactic["det"].bytes_received == 540
        assert by_tactic["mitra"].calls == 1

    def test_deferred_call_rides_a_later_frame(self):
        """Ten calls deferred into one batch frame: ten calls, one
        round, the bytes of all ten slots."""
        metrics = TacticMetrics(cells=cells(
            ("tactic/a/f/det", "insert", 10, 1, 1000, 250)))
        for _ in range(10):
            metrics.record_call("tactic/a/f/det", "insert", 0.0)
        cost = metrics.by_tactic()["det"]
        assert (cost.calls, cost.rounds) == (10, 1)
        assert (cost.bytes_sent, cost.bytes_received) == (1000, 250)

    def test_mean(self):
        cost = OperationCost(calls=2, seconds=0.04)
        assert cost.mean_ms == pytest.approx(20.0)
        assert OperationCost().mean_ms == 0.0

    def test_render(self):
        metrics = TacticMetrics(cells=cells(
            ("tactic/a/f/paillier", "insert", 1, 1, 900, 10)))
        metrics.record_call("tactic/a/f/paillier", "insert", 0.5)
        output = metrics.render()
        assert "paillier" in output
        assert "calls" in output and "rounds" in output
        assert "900" in output

    def test_reset(self):
        report = {"endpoint": {("tactic/a/f/det", "insert"):
                               WireCell(1, 1, 10, 5)}}
        metrics = TacticMetrics(cells=lambda: report)
        metrics.record_call("tactic/a/f/det", "insert", 0.01)
        metrics.reset()
        assert metrics.by_tactic() == {}
        # ...and reports the delta from the reset point afterwards.
        report["endpoint"][("tactic/a/f/det", "insert")] = WireCell(
            3, 2, 40, 25)
        metrics.record_call("tactic/a/f/det", "insert", 0.02)
        cost = metrics.by_tactic()["det"]
        assert (cost.calls, cost.rounds) == (1, 1)
        assert (cost.bytes_sent, cost.bytes_received) == (30, 20)
        assert cost.seconds == pytest.approx(0.02)

    def test_instance_totals(self):
        metrics = TacticMetrics(cells=cells(("s", "a", 1, 1, 10, 5),
                                            ("s", "b", 1, 1, 20, 5)))
        metrics.record_call("s", "a", 0.1)
        metrics.record_call("s", "b", 0.2)
        instance = metrics.instances()[0]
        assert instance.total_calls == 2
        assert instance.total_seconds == pytest.approx(0.3)
        assert instance.total_bytes == 40


class TestMiddlewareIntegration:
    def test_deployment_collects_metrics(self, blinder):
        blinder.register_schema(observation_schema())
        entities = blinder.entities("observation")
        entities.insert({
            "id": "f1", "identifier": 1, "status": "final",
            "code": "glucose", "subject": "A", "effective": 1,
            "issued": 2, "performer": "P", "value": 1.0,
            "interpretation": "",
        })
        entities.find(Eq("status", "final"))
        entities.average("value")

        by_tactic = blinder.runtime.metrics.by_tactic()
        # All five schema tactics show up with real traffic.
        for tactic in ("det", "mitra", "rnd", "ope", "paillier",
                       "biex-2lev"):
            assert tactic in by_tactic, tactic
            assert by_tactic[tactic].bytes_sent > 0

        report = blinder.metrics_report()
        assert "paillier" in report and "biex-2lev" in report

    def test_rounds_match_transport_counts(self, blinder, transport):
        blinder.register_schema(observation_schema())
        entities = blinder.entities("observation")
        blinder.runtime.metrics.reset()
        before = transport.stats().messages_sent
        entities.insert({
            "id": "f2", "identifier": 2, "status": "final",
            "code": "hr", "subject": "B", "effective": 3, "issued": 4,
            "performer": "P", "value": 2.0, "interpretation": "",
        })
        transport_rounds = transport.stats().messages_sent - before
        metered_rounds = sum(
            c.rounds for c in blinder.runtime.metrics.by_tactic().values()
        )
        # Every round except the document-store write is attributed to a
        # tactic instance.
        assert metered_rounds == transport_rounds - 1

    def test_batched_sharded_deployment_collects_metrics(self, production):
        """The same report through ``PipelineConfig.production()`` on four
        nodes: every SPI call of the insert is *deferred* into the batch
        frame the document write flushes, and that frame is split per
        shard — the bytes still land on the tactic that caused them."""
        metrics = production.blinder.runtime.metrics
        metrics.reset()
        production.entities.insert_many(production.documents(50))

        instances = metrics.instances()
        assert sorted(i.service.rsplit("/", 1)[-1] for i in instances) == [
            "det"] * 5 + ["mitra", "paillier", "rnd"]
        for instance in instances:
            (cost,) = instance.operations.values()
            assert cost.bytes_sent > 0 and cost.bytes_received > 0
            assert 1 <= cost.rounds <= 4, instance.service
        by_tactic = metrics.by_tactic()
        assert by_tactic["det"].calls == 5 * by_tactic["mitra"].calls
        # The paper's observation: Paillier dominates the per-value bytes.
        assert (by_tactic["paillier"].bytes_sent
                > by_tactic["mitra"].bytes_sent)
        report = production.blinder.metrics_report()
        for tactic in ("det", "mitra", "rnd", "paillier"):
            assert tactic in report
