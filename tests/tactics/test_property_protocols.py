"""Property-based SSE protocol tests.

Hypothesis drives random interleavings of insert/delete operations over
random keyword universes against each equality tactic, comparing search
results to a plain dict reference.  This covers orderings the
example-based tests never hit (delete-before-insert, repeated deletes,
many keywords sharing documents).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cloud.server import CloudZone
from repro.core.registry import TacticRegistry
from repro.gateway.service import GatewayRuntime
from repro.net.transport import InProcTransport
from repro.tactics import register_builtin_tactics

KEYWORDS = ["alpha", "beta", "gamma"]
DOCS = [f"d{i}" for i in range(5)]

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.sampled_from(DOCS),
        st.sampled_from(KEYWORDS),
    ),
    max_size=25,
)


@pytest.fixture(scope="module")
def shared_registry():
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


def fresh_gateway(registry, tactic):
    cloud = CloudZone(registry)
    runtime = GatewayRuntime("prop", InProcTransport(cloud.host), registry)
    return runtime.tactic("doc.f", tactic)


def reference_apply(model, op, doc, keyword):
    bucket = model.setdefault(keyword, set())
    if op == "insert":
        bucket.add(doc)
    else:
        bucket.discard(doc)


class TestDeletableTactics:
    """Tactics with full add/delete support must track the reference
    exactly under arbitrary interleavings."""

    @pytest.mark.parametrize("tactic", ["mitra", "sse-stateless", "det"])
    @given(ops=operations)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_matches_reference(self, shared_registry, tactic, ops):
        gateway = fresh_gateway(shared_registry, tactic)
        model: dict[str, set[str]] = {}
        for op, doc, keyword in ops:
            if op == "insert":
                # The tactics model multi-set semantics differently for
                # duplicate inserts; keep each (doc, kw) pair single.
                if doc in model.get(keyword, set()):
                    continue
                gateway.insert(doc, keyword)
            else:
                if doc not in model.get(keyword, set()):
                    continue
                gateway.delete(doc, keyword)
            reference_apply(model, op, doc, keyword)
        for keyword in KEYWORDS:
            found = gateway.resolve_eq(gateway.eq_query(keyword))
            assert found == model.get(keyword, set()), (tactic, keyword)


class TestAppendOnlyTactics:
    """Sophos has no deletes; inserts must accumulate exactly."""

    @given(ops=st.lists(st.tuples(st.sampled_from(DOCS),
                                  st.sampled_from(KEYWORDS)),
                        max_size=20))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_sophos_accumulates(self, shared_registry, ops):
        gateway = fresh_gateway(shared_registry, "sophos")
        model: dict[str, set[str]] = {}
        for doc, keyword in ops:
            if doc in model.get(keyword, set()):
                continue
            gateway.insert(doc, keyword)
            model.setdefault(keyword, set()).add(doc)
        for keyword in KEYWORDS:
            found = gateway.resolve_eq(gateway.eq_query(keyword))
            assert found == model.get(keyword, set())


class TestBiexDocumentLevel:
    """BIEX document-term updates against a reference corpus."""

    @given(
        corpus=st.dictionaries(
            st.sampled_from(DOCS),
            st.sets(st.sampled_from(KEYWORDS), min_size=1, max_size=3),
            min_size=1, max_size=5,
        ),
        removals=st.sets(st.sampled_from(DOCS), max_size=2),
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_conjunctions_match_reference(self, shared_registry, corpus,
                                          removals):
        gateway = fresh_gateway(shared_registry, "biex-2lev")
        for doc, keywords in corpus.items():
            gateway.insert_terms(
                doc, [gateway.term("kw", k) for k in sorted(keywords)]
            )
        for doc in removals:
            if doc in corpus:
                gateway.delete_terms(
                    doc,
                    [gateway.term("kw", k) for k in sorted(corpus[doc])],
                )
        live = {d: ks for d, ks in corpus.items() if d not in removals}

        for first in KEYWORDS:
            for second in KEYWORDS:
                cnf = [[gateway.term("kw", first)],
                       [gateway.term("kw", second)]]
                found = gateway.resolve_bool(gateway.bool_query_terms(cnf))
                expected = {
                    d for d, ks in live.items()
                    if first in ks and second in ks
                }
                assert found == expected, (first, second)


class TestMitraPayloadMask:
    """The integer XOR is byte-identical to the per-byte form every
    stored entry and wire pin was masked with."""

    @staticmethod
    def bytewise(pad_seed: bytes, data: bytes) -> bytes:
        from repro.crypto.primitives.hmac_prf import prg

        pad = prg(pad_seed, len(data), label=b"mitra-pad")
        return bytes(a ^ b for a, b in zip(data, pad))

    @settings(max_examples=200, deadline=None)
    @given(pad_seed=st.binary(min_size=1, max_size=32),
           op=st.sampled_from([0, 1]),
           doc_id=st.text(max_size=80))
    def test_mask_matches_the_bytewise_form(self, pad_seed, op, doc_id):
        from repro.tactics.mitra import _mask_payload, _unmask_payload

        masked = _mask_payload(pad_seed, op, doc_id)
        assert masked == self.bytewise(
            pad_seed, bytes([op]) + doc_id.encode("utf-8"))
        assert _unmask_payload(pad_seed, masked) == (op, doc_id)

    @settings(max_examples=200, deadline=None)
    @given(pad_seed=st.binary(min_size=1, max_size=32),
           masked=st.binary(min_size=1, max_size=300))
    def test_unmask_matches_the_bytewise_form(self, pad_seed, masked):
        from repro.tactics.mitra import _xor_pad

        assert _xor_pad(pad_seed, masked) == self.bytewise(pad_seed, masked)
