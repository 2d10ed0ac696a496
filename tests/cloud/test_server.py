"""Cloud zone: provisioning, document service, resource lifecycle."""

import pytest

from repro.cloud.server import CloudZone
from repro.errors import DocumentNotFound, RemoteError, TransportError
from repro.spi.context import service_name


class TestAdminService:
    def test_provision_application_registers_doc_service(self, cloud,
                                                         transport):
        name = transport.call("admin", "provision_application",
                              application="app1")
        assert name == "docs/app1"
        assert "docs/app1" in transport.call("admin", "list_services")

    def test_provision_application_is_idempotent(self, transport):
        first = transport.call("admin", "provision_application",
                               application="app1")
        second = transport.call("admin", "provision_application",
                                application="app1")
        assert first == second

    def test_provision_tactic(self, cloud, transport):
        transport.call("admin", "provision_application",
                       application="app1")
        name = transport.call("admin", "provision_tactic",
                              application="app1", field="s.f",
                              tactic="det")
        assert name == service_name("app1", "s.f", "det")
        # Idempotent.
        assert transport.call(
            "admin", "provision_tactic", application="app1",
            field="s.f", tactic="det",
        ) == name

    def test_provision_unknown_tactic_fails(self, transport):
        with pytest.raises(RemoteError):
            transport.call("admin", "provision_tactic",
                           application="app1", field="s.f",
                           tactic="nonsense")

    def test_applications_get_separate_stores(self, cloud):
        kv_a, docs_a = cloud.application_stores("a")
        kv_b, docs_b = cloud.application_stores("b")
        assert kv_a is not kv_b
        assert docs_a is not docs_b
        kv_a2, docs_a2 = cloud.application_stores("a")
        assert kv_a is kv_a2 and docs_a is docs_a2

    def test_tactic_instance_lookup(self, cloud, transport):
        transport.call("admin", "provision_application",
                       application="app1")
        cloud.provision_tactic("app1", "s.f", "rnd")
        instance = cloud.tactic_instance("app1", "s.f", "rnd")
        assert instance is not None
        with pytest.raises(TransportError):
            cloud.tactic_instance("app1", "s.f", "det")


class TestDocumentService:
    @pytest.fixture()
    def docs(self, cloud, transport):
        transport.call("admin", "provision_application",
                       application="app1")

        def call(method, **kwargs):
            return transport.call("docs/app1", method, **kwargs)

        return call

    def test_crud_over_rpc(self, docs):
        docs("insert", document={"_id": "d1", "schema": "s",
                                 "body": b"\x01", "plain": {"n": 1}})
        assert docs("get_many", doc_ids=["d1"])[0]["plain"]["n"] == 1
        docs("replace", document={"_id": "d1", "schema": "s",
                                  "body": b"\x02", "plain": {"n": 2}})
        assert docs("get_many", doc_ids=["d1"])[0]["body"] == b"\x02"
        assert docs("delete", doc_id="d1") is True
        assert docs("get_many", doc_ids=["d1"]) == []
        with pytest.raises(RemoteError):
            docs("replace", document={"_id": "d1", "schema": "s",
                                      "body": b"", "plain": {}})

    def test_insert_many(self, docs):
        ids = docs("insert_many", documents=[
            {"_id": f"d{i}", "schema": "s", "body": b"", "plain": {}}
            for i in range(3)
        ])
        assert ids == ["d0", "d1", "d2"]
        assert docs("count") == 3

    def test_all_ids_filters_by_schema(self, docs):
        docs("insert", document={"_id": "a", "schema": "s1",
                                 "body": b"", "plain": {}})
        docs("insert", document={"_id": "b", "schema": "s2",
                                 "body": b"", "plain": {}})
        assert docs("all_ids", schema="s1") == ["a"]
        assert sorted(docs("all_ids")) == ["a", "b"]

    @pytest.mark.parametrize("snapshot", [True, False])
    def test_schema_index_survives_restart(self, registry, tmp_path,
                                           snapshot):
        """A durable zone answers ``all_ids(schema)`` from its ``schema``
        index; reopening rebuilds it from the snapshot (``close``) or
        from the log replay alone (``sync``)."""
        zone = CloudZone(registry, data_dir=tmp_path)
        _, documents = zone.application_stores("app1")
        for i, schema in enumerate(["s1", "s2", "s1", "s2"]):
            documents.insert({"_id": f"d{i}", "schema": schema})
        documents.replace({"_id": "d1", "schema": "s1"})
        documents.delete("d2")
        assert zone.host.get("docs/app1").all_ids("s1") == ["d0", "d1"]
        if snapshot:
            zone.close()
        else:
            documents.sync()
        reopened = CloudZone(registry, data_dir=tmp_path)
        reopened.application_stores("app1")
        service = reopened.host.get("docs/app1")
        assert service.all_ids("s1") == ["d0", "d1"]
        assert service.all_ids("s2") == ["d3"]
        reopened.close()

    def test_find_plain(self, docs):
        docs("insert", document={"_id": "a", "schema": "s",
                                 "body": b"", "plain": {"x": 5}})
        docs("insert", document={"_id": "b", "schema": "s",
                                 "body": b"", "plain": {"x": 9}})
        assert docs("find_plain", query={"plain.x": {"$gt": 6}}) == ["b"]

    def test_id_scans_keep_the_copying_scans_order(self, cloud, docs):
        """``all_ids(schema)`` and ``find_plain`` read ids only, in the
        order (and under the limit) of a scan that copies documents."""
        for i in range(12):
            docs("insert", document={"_id": f"d{(i * 7) % 12:02d}",
                                     "schema": f"s{i % 3}", "body": b"",
                                     "plain": {"x": i}})
        _, store = cloud.application_stores("app1")

        def copied(query, limit=None):
            return [d["_id"] for d in store.find(query, limit=limit)]

        assert docs("all_ids", schema="s1") == copied({"schema": "s1"})
        assert docs("all_ids", schema="s1") == ["d01", "d04", "d07",
                                                "d10"]
        assert docs("all_ids") == copied(None) == store.all_ids()
        indexed = {"schema": "s2", "plain.x": {"$gte": 5}}
        assert docs("find_plain", query=indexed, limit=2) \
            == copied(indexed, 2) == ["d05", "d08"]
        scanned = {"plain.x": {"$gte": 5}}
        assert docs("find_plain", query=scanned, limit=3) \
            == copied(scanned, 3) == ["d11", "d06", "d01"]
        assert store.count({"schema": "s0"}) == 4
        assert store.count(scanned) == 7


class TestGatewayRuntime:
    def test_loaded_tactics_listing(self, harness):
        harness.gateway("det", field="s.a")
        harness.gateway("rnd", field="s.b")
        assert harness.runtime.loaded_tactics() == [
            ("s.a", "det"), ("s.b", "rnd"),
        ]

    def test_instances_are_cached(self, harness):
        first = harness.gateway("det", field="s.a")
        second = harness.gateway("det", field="s.a")
        assert first is second

    def test_distinct_scopes_distinct_instances(self, harness):
        a = harness.gateway("det", field="s.a")
        b = harness.gateway("det", field="s.b")
        assert a is not b


class TestContextHelpers:
    def test_service_name(self):
        assert service_name("app", "obs.value", "ope") == (
            "tactic/app/obs.value/ope"
        )

    def test_state_key_namespacing(self, harness):
        gateway = harness.gateway("det", field="s.a")
        key = gateway.ctx.state_key(b"x", b"y")
        assert key.startswith(b"tactic/testapp/s.a/det")
        assert key.endswith(b"x/y")

    def test_derive_key_separation(self, harness):
        gateway_a = harness.gateway("det", field="s.a")
        gateway_b = harness.gateway("det", field="s.b")
        assert gateway_a.ctx.derive_key("p") != gateway_b.ctx.derive_key("p")
