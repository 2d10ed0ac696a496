"""Range tactics (OPE, ORE) and aggregate tactics (Paillier, ElGamal)."""

import importlib
import threading

import pytest

from repro.errors import RemoteError, TacticError
from repro.tactics.base import CloudTactic


@pytest.mark.parametrize("tactic", ["ope", "ore"])
class TestRangeTactics:
    @pytest.fixture()
    def range_gw(self, harness, tactic):
        gateway = harness.gateway(tactic)
        for doc_id, value in [("d1", 10), ("d2", 25), ("d3", 50),
                              ("d4", 75), ("d5", 100)]:
            gateway.insert(doc_id, value)
        return gateway

    def test_closed_range(self, range_gw, tactic):
        assert range_gw.range_query(20, 80) == {"d2", "d3", "d4"}

    def test_inclusive_bounds(self, range_gw, tactic):
        assert range_gw.range_query(25, 75) == {"d2", "d3", "d4"}

    def test_open_low(self, range_gw, tactic):
        assert range_gw.range_query(None, 25) == {"d1", "d2"}

    def test_open_high(self, range_gw, tactic):
        assert range_gw.range_query(75, None) == {"d4", "d5"}

    def test_empty_range(self, range_gw, tactic):
        assert range_gw.range_query(101, 200) == set()

    def test_floats_and_negatives(self, harness, tactic):
        gateway = harness.gateway(tactic, field="doc.other")
        gateway.insert("a", -5.5)
        gateway.insert("b", -0.25)
        gateway.insert("c", 0.0)
        gateway.insert("d", 3.75)
        assert gateway.range_query(-1.0, 1.0) == {"b", "c"}
        assert gateway.range_query(None, -0.25) == {"a", "b"}

    def test_insert_is_upsert(self, range_gw, tactic):
        range_gw.insert("d3", 999)
        assert range_gw.range_query(40, 60) == set()
        assert range_gw.range_query(900, 1000) == {"d3"}

    def test_eviction_holds_off_a_concurrent_insert(self, range_gw, harness,
                                                     tactic, monkeypatch):
        """Shard eviction walks the cloud half's entries while other
        dispatch threads may insert; an insert arriving mid-walk neither
        breaks the walk nor is lost from the sorted view."""
        cloud = harness.cloud_instance(tactic)
        code = range_gw.token(42)
        workers: list[threading.Thread] = []

        class Ring:
            def owner(self, doc_id):
                if not workers:
                    workers.append(threading.Thread(
                        target=cloud.insert, args=("late", code)))
                    workers[0].start()
                    workers[0].join(0.2)
                return "here"

        module = importlib.import_module(CloudTactic.__module__)
        monkeypatch.setattr(module, "export_ring",
                            lambda spec: (Ring(), "here"))
        cloud.shard_evict({})
        workers[0].join()
        assert range_gw.range_query(40, 45) == {"late"}

    def test_rejects_non_numeric(self, range_gw, tactic):
        with pytest.raises((TacticError, RemoteError)):
            range_gw.insert("dx", "not a number")


class TestPaillierTactic:
    @pytest.fixture()
    def paillier_gw(self, harness):
        gateway = harness.gateway("paillier")
        for doc_id, value in [("d1", 6.3), ("d2", 5.1), ("d3", 7.2)]:
            gateway.insert(doc_id, value)
        return gateway

    def test_sum_all(self, paillier_gw):
        assert paillier_gw.aggregate("sum") == pytest.approx(18.6)

    def test_avg_all(self, paillier_gw):
        assert paillier_gw.aggregate("avg") == pytest.approx(6.2)

    def test_subset_aggregation(self, paillier_gw):
        assert paillier_gw.aggregate("avg", ["d1", "d2"]) == pytest.approx(
            5.7
        )

    def test_count(self, paillier_gw):
        assert paillier_gw.aggregate("count", ["d1", "d3"]) == 2

    def test_unknown_ids_skipped(self, paillier_gw):
        assert paillier_gw.aggregate("sum", ["d1", "ghost"]
                                     ) == pytest.approx(6.3)

    def test_empty_selection(self, paillier_gw):
        assert paillier_gw.aggregate("avg", []) is None

    def test_negative_values(self, harness):
        gateway = harness.gateway("paillier", field="doc.delta")
        gateway.insert("a", -10.5)
        gateway.insert("b", 4.5)
        assert gateway.aggregate("sum") == pytest.approx(-6.0)

    def test_insert_is_upsert(self, paillier_gw):
        paillier_gw.insert("d1", 1.0)
        assert paillier_gw.aggregate("sum", ["d1"]) == pytest.approx(1.0)

    def test_rejects_non_numeric(self, paillier_gw):
        with pytest.raises((TacticError, RemoteError)):
            paillier_gw.insert("dx", "NaN-ish")

    def test_unsupported_aggregate(self, paillier_gw):
        with pytest.raises(TacticError):
            paillier_gw.resolve_aggregate("median", [{"ct": 1}], 3)

    def test_cloud_never_sees_plaintext_sums(self, paillier_gw, harness):
        """The cloud multiplies ciphertexts blind: its stored values are
        Paillier ciphertexts, not the plaintext numbers."""
        cloud = harness.cloud_instance("paillier")
        encoded = [6300000, 5100000, 7200000]  # fixed-point plaintexts
        stored = [
            int.from_bytes(blob, "big")
            for _, blob in cloud.ctx.kv.map_items(cloud._map_name)
        ]
        assert len(stored) == 3
        assert all(ciphertext not in encoded for ciphertext in stored)


class TestElGamalTactic:
    @pytest.fixture()
    def elgamal_gw(self, harness):
        gateway = harness.gateway("elgamal")
        for doc_id, value in [("d1", 2), ("d2", 3), ("d3", 7)]:
            gateway.insert(doc_id, value)
        return gateway

    def test_product_all(self, elgamal_gw):
        assert elgamal_gw.aggregate("product") == 42

    def test_product_subset(self, elgamal_gw):
        assert elgamal_gw.aggregate("product", ["d1", "d3"]) == 14

    def test_count(self, elgamal_gw):
        assert elgamal_gw.aggregate("count", ["d1"]) == 1

    def test_empty(self, elgamal_gw):
        assert elgamal_gw.aggregate("product", []) is None

    def test_rejects_non_positive(self, elgamal_gw):
        with pytest.raises((TacticError, RemoteError)):
            elgamal_gw.insert("dx", 0)
        with pytest.raises((TacticError, RemoteError)):
            elgamal_gw.insert("dy", 2.5)

    def test_unsupported_aggregate(self, elgamal_gw):
        with pytest.raises(TacticError):
            elgamal_gw.resolve_aggregate("sum", [{"c1": 1, "c2": 1}], 2)


class TestCiphertextValidation:
    """The aggregate cloud halves check every ciphertext component
    before storing it: a non-integer or out-of-range value would
    otherwise crash the handler or, worse, be stored and turn the next
    aggregate into garbage."""

    BAD = [pytest.param(value, id=name) for name, value in [
        ("str", "a"), ("none", None), ("float", 2.0), ("bool", True),
        ("negative", -1), ("huge", 1 << 4096),
    ]]

    @pytest.mark.parametrize("bad", BAD)
    def test_elgamal_rejects_a_bad_component(self, harness, bad):
        gateway = harness.gateway("elgamal")
        gateway.insert("d1", 3)
        cloud = harness.cloud_instance("elgamal")
        for components in ({"c1": bad, "c2": 1}, {"c1": 1, "c2": bad}):
            with pytest.raises(TacticError):
                cloud.insert("dx", **components)
        assert gateway.aggregate("product") == 3

    def test_elgamal_rejects_the_modulus(self, harness):
        harness.gateway("elgamal")
        cloud = harness.cloud_instance("elgamal")
        with pytest.raises(TacticError):
            cloud.insert("dx", c1=cloud._public.p, c2=1)
        cloud.insert("dy", c1=cloud._public.p - 1, c2=0)

    @pytest.mark.parametrize("bad", BAD)
    def test_paillier_rejects_a_bad_ciphertext(self, harness, bad):
        gateway = harness.gateway("paillier")
        gateway.insert("d1", 6.3)
        cloud = harness.cloud_instance("paillier")
        with pytest.raises(TacticError):
            cloud.insert("dx", ciphertext=bad)
        assert gateway.aggregate("sum") == pytest.approx(6.3)

    def test_paillier_rejects_the_modulus(self, harness):
        gateway = harness.gateway("paillier")
        gateway.insert("d1", 6.3)
        cloud = harness.cloud_instance("paillier")
        n_squared = cloud._public.n_squared
        for bad in (n_squared, n_squared + 5):
            with pytest.raises(TacticError):
                cloud.insert("dx", ciphertext=bad)
        assert gateway.aggregate("sum") == pytest.approx(6.3)

    def test_a_bad_ciphertext_over_the_wire_is_refused(self, harness):
        gateway = harness.gateway("paillier")
        with pytest.raises(RemoteError):
            gateway.ctx.call("insert", doc_id="dx", ciphertext=-1)
