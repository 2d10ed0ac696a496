"""Equality-search tactics: DET, RND, Mitra, Sophos — full protocols
against a live cloud zone."""

import pytest

from repro.errors import DocumentNotFound, TacticError


def eq_ids(gateway, value):
    return gateway.resolve_eq(gateway.eq_query(value))


class TestDet:
    @pytest.fixture()
    def det(self, harness):
        return harness.gateway("det")

    def test_insert_and_search(self, det):
        det.insert("d1", "glucose")
        det.insert("d2", "glucose")
        det.insert("d3", "heart-rate")
        assert eq_ids(det, "glucose") == {"d1", "d2"}
        assert eq_ids(det, "heart-rate") == {"d3"}
        assert eq_ids(det, "missing") == set()

    def test_update_moves_entry(self, det):
        det.insert("d1", "old")
        det.update("d1", "old", "new")
        assert eq_ids(det, "old") == set()
        assert eq_ids(det, "new") == {"d1"}

    def test_delete(self, det):
        det.insert("d1", "v")
        det.delete("d1", "v")
        assert eq_ids(det, "v") == set()

    def test_retrieve(self, det):
        det.insert("d1", 42)
        assert det.retrieve("d1") == 42
        with pytest.raises(DocumentNotFound):
            det.retrieve("missing")

    def test_secure_enc_roundtrip(self, det):
        assert det.open(det.seal(6.3)) == 6.3

    def test_deterministic_tokens(self, det):
        assert det.seal("x") == det.seal("x")

    def test_type_sensitivity(self, det):
        det.insert("d1", 1)
        assert eq_ids(det, 1.0) == set()  # 1 and 1.0 are distinct tokens
        assert eq_ids(det, 1) == {"d1"}

    def test_doc_id_generation(self, det):
        ids = {det.generate_doc_id() for _ in range(50)}
        assert len(ids) == 50

    def test_cloud_stores_only_ciphertext(self, det, harness):
        det.insert("d1", "super-secret-value")
        kv = harness.cloud_instance("det").ctx.kv
        all_bytes = b"".join(
            k + v for name, _ in kv._maps.items()
            for k, v in kv.map_items(name)
        )
        assert b"super-secret-value" not in all_bytes


@pytest.mark.parametrize("tactic,arg", [("det", "token"),
                                         ("blind-index", "tag")])
def test_equality_index_refuses_malformed_tokens(harness, tactic, arg):
    """Both equality-token tactics share one cloud half, which checks
    every token argument before it touches the index."""
    harness.gateway(tactic).insert("d1", "v")
    cloud = harness.cloud_instance(tactic)
    malformed = [
        ("insert", {arg: "not-bytes"}),
        ("insert", {}),
        ("insert", {arg: b"t", "extra": b"x"}),
        ("update", {"old_" + arg: b"t", "new_" + arg: 5}),
        ("delete", {"token" if arg == "tag" else "tag": b"t"}),
    ]
    for method, args in malformed:
        with pytest.raises(TacticError):
            getattr(cloud, method)("d1", **args)
    with pytest.raises(TacticError):
        cloud.eq_query(**{arg: None})
    assert eq_ids(harness.gateway(tactic), "v") == {"d1"}


class TestRnd:
    @pytest.fixture()
    def rnd(self, harness):
        return harness.gateway("rnd")

    def test_insert_and_exhaustive_search(self, rnd):
        rnd.insert("d1", "alpha")
        rnd.insert("d2", "beta")
        rnd.insert("d3", "alpha")
        assert eq_ids(rnd, "alpha") == {"d1", "d3"}
        assert eq_ids(rnd, "gamma") == set()

    def test_retrieve(self, rnd):
        rnd.insert("d1", 3.14)
        assert rnd.retrieve("d1") == 3.14
        with pytest.raises(DocumentNotFound):
            rnd.retrieve("nope")

    def test_probabilistic_ciphertexts(self, rnd):
        assert rnd.seal("same") != rnd.seal("same")

    def test_search_transfers_everything(self, rnd, harness):
        for i in range(10):
            rnd.insert(f"d{i}", f"v{i}")
        raw = rnd.eq_query("v0")
        # The inefficiency challenge: the response carries all entries.
        assert len(raw["entries"]) == 10

    def test_cloud_sees_no_plaintext(self, rnd, harness):
        rnd.insert("d1", "very-private")
        kv = harness.cloud_instance("rnd").ctx.kv
        blob = b"".join(v for _, v in kv.map_items(
            harness.cloud_instance("rnd")._map_name))
        assert b"very-private" not in blob


class TestMitra:
    @pytest.fixture()
    def mitra(self, harness):
        return harness.gateway("mitra")

    def test_insert_and_search(self, mitra):
        mitra.insert("d1", "w1")
        mitra.insert("d2", "w1")
        mitra.insert("d3", "w2")
        assert eq_ids(mitra, "w1") == {"d1", "d2"}
        assert eq_ids(mitra, "w2") == {"d3"}
        assert eq_ids(mitra, "never-inserted") == set()

    def test_delete_is_a_masked_tombstone(self, mitra, harness):
        mitra.insert("d1", "w")
        mitra.insert("d2", "w")
        cloud = harness.cloud_instance("mitra")
        before = cloud.ctx.kv.map_size(cloud._map_name)
        mitra.delete("d1", "w")
        # The cloud gained an entry — deletion is indistinguishable from
        # insertion (backward privacy).
        assert cloud.ctx.kv.map_size(cloud._map_name) == before + 1
        assert eq_ids(mitra, "w") == {"d2"}

    def test_reinsert_after_delete(self, mitra):
        mitra.insert("d1", "w")
        mitra.delete("d1", "w")
        mitra.insert("d1", "w")
        assert eq_ids(mitra, "w") == {"d1"}

    def test_update(self, mitra):
        mitra.insert("d1", "old")
        mitra.update("d1", "old", "new")
        assert eq_ids(mitra, "old") == set()
        assert eq_ids(mitra, "new") == {"d1"}

    def test_counter_state_lives_at_gateway(self, mitra, harness):
        mitra.insert("d1", "w")
        # The 'Local storage' challenge: the gateway KV holds counters.
        assert harness.runtime.local_kv.stats()["counters"] >= 1

    def test_addresses_look_random(self, mitra, harness):
        for i in range(5):
            mitra.insert(f"d{i}", "w")
        cloud = harness.cloud_instance("mitra")
        addresses = [k for k, _ in cloud.ctx.kv.map_items(cloud._map_name)]
        assert len(set(addresses)) == 5
        assert all(len(a) == 32 for a in addresses)

    @pytest.mark.parametrize("corrupt", [
        lambda masked: b"",
        lambda masked: masked.hex(),
        # The first doc-id byte unmasks to 0xff: no UTF-8 text.
        lambda masked: masked[:1] + bytes([masked[1] ^ 0x9B]) + masked[2:],
    ], ids=["empty", "not-bytes", "not-utf8"])
    def test_malformed_payload_is_a_tactic_error(self, mitra, corrupt):
        mitra.insert("d1", "w")
        mitra.setup()  # a cold memo: the search fetches the entry
        raw = mitra.eq_query("w")
        raw["masked"] = [corrupt(raw["masked"][0])]
        with pytest.raises(TacticError):
            mitra.resolve_eq(raw)


class TestSophos:
    @pytest.fixture()
    def sophos(self, harness):
        return harness.gateway("sophos")

    def test_insert_and_search(self, sophos):
        sophos.insert("d1", "kw")
        sophos.insert("d2", "kw")
        sophos.insert("d3", "other")
        assert eq_ids(sophos, "kw") == {"d1", "d2"}
        assert eq_ids(sophos, "other") == {"d3"}

    def test_search_unknown_keyword(self, sophos):
        assert eq_ids(sophos, "never") == set()

    def test_many_insertions_one_keyword(self, sophos):
        expected = set()
        for i in range(12):
            sophos.insert(f"d{i}", "hot")
            expected.add(f"d{i}")
        assert eq_ids(sophos, "hot") == expected

    def test_update_appends_only(self, sophos):
        sophos.insert("d1", "v1")
        sophos.update("d1", "v1", "v2")
        # Addition-only: the old entry remains (filtered by the
        # middleware's verification layer), the new one is present.
        assert eq_ids(sophos, "v2") == {"d1"}
        assert eq_ids(sophos, "v1") == {"d1"}

    def test_token_chain_state_at_gateway(self, sophos, harness):
        sophos.insert("d1", "w")
        assert harness.runtime.local_kv.stats()["strings"] >= 1
