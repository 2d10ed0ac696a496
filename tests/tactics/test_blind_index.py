"""Blind-index tactic: OPRF equality tokens with HSM-held keys."""

import pytest

from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.net.transport import InProcTransport


def eq_ids(gateway, value):
    return gateway.resolve_eq(gateway.eq_query(value))


class TestBlindIndexProtocol:
    @pytest.fixture()
    def blind(self, harness):
        return harness.gateway("blind-index")

    def test_insert_and_search(self, blind):
        blind.insert("d1", "glucose")
        blind.insert("d2", "glucose")
        blind.insert("d3", "hr")
        assert eq_ids(blind, "glucose") == {"d1", "d2"}
        assert eq_ids(blind, "hr") == {"d3"}
        assert eq_ids(blind, "missing") == set()

    def test_update_and_delete(self, blind):
        blind.insert("d1", "old")
        blind.update("d1", "old", "new")
        assert eq_ids(blind, "old") == set()
        assert eq_ids(blind, "new") == {"d1"}
        blind.delete("d1", "new")
        assert eq_ids(blind, "new") == set()

    def test_tokens_are_deterministic_but_blinded_in_transit(self, blind,
                                                             harness):
        """Stored tags are stable per value (that is the equality
        leakage), but the HSM never sees the same element twice."""
        assert blind.token("v") == blind.token("v")
        client = blind._client
        _, b1 = client.blind(b"Sv")
        _, b2 = client.blind(b"Sv")
        assert b1 != b2

    def test_gateway_holds_no_prf_key(self, blind):
        """The tactic instance has only a group description and an HSM
        label — no key material that could derive tokens offline."""
        assert not hasattr(blind, "_key")
        label = blind._hsm_label
        hsm = blind.ctx.keystore.hsm
        # The key exists inside the module and is not exposed by any
        # public API surface.
        assert label in hsm._oprf_keys  # noqa: SLF001 - asserting privacy
        public_attributes = [a for a in dir(hsm)
                             if not a.startswith("_")]
        assert "oprf_evaluate" in public_attributes
        assert all("key" not in a or a in (
            "create_master_key", "destroy_master_key", "has_master_key",
            "create_oprf_key", "generate_wrapped_key", "derive_data_key",
        ) for a in public_attributes)

    def test_cloud_sees_no_plaintext(self, blind, harness):
        blind.insert("d1", "very-secret-diagnosis")
        kv = harness.cloud_instance("blind-index").ctx.kv
        blob = bytearray()
        for name, members in kv._sets.items():
            blob += name + b"".join(members)
        assert b"very-secret-diagnosis" not in bytes(blob)


class TestMiddlewareIntegration:
    def test_pinned_deployment(self, cloud, registry):
        """Retiring DET leaves blind-index as the C4 equality choice."""
        filtered = TacticRegistry()
        for registration in registry.all():
            if registration.name != "det":
                filtered.register(registration.descriptor,
                                  registration.gateway_cls,
                                  registration.cloud_cls)
        blinder = DataBlinder("blindapp", InProcTransport(cloud.host),
                              registry=filtered)
        schema = Schema.define(
            "rec",
            code=("string", FieldAnnotation.parse("C4", "I,EQ")),
        )
        reports = blinder.register_schema(schema)
        assert reports[0].tactics == ["blind-index"]
        records = blinder.entities("rec")
        a = records.insert({"code": "x"})
        records.insert({"code": "y"})
        assert records.find_ids(Eq("code", "x")) == {a}

    def test_default_selection_still_prefers_det(self, registry):
        from repro.core.selection import TacticSelector

        plan = TacticSelector(registry).plan_field(
            "f", FieldAnnotation.parse("C4", "I,EQ")
        )
        assert plan.roles["eq"] == "det"
