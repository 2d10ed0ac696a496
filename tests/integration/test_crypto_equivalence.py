"""Kernel-vs-sequential equivalence sweep.

Two gateway runtimes share ONE KeyStore (same HSM, same derived keys,
same re-derived keypairs, same OPRF keys) against two independent cloud
zones.  The baseline runtime runs the seed per-value insert loop; the
kernel runtime drives the same entries through the batch SPI (dedup and
token LRUs run in every configuration).  For deterministic tactics the
resulting cloud state must be byte-identical; randomized tactics are
checked by protocol round trip (retrieval / aggregate decryption).

A second sweep exercises the full middleware stack: a kernelised
deployment's bulk insert must answer every query identically to a
default deployment over the same documents.
"""

from __future__ import annotations

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery, And, Eq, Range
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.crypto.kernels.config import CryptoConfig
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics

BATCH_SIZES = [1, 7, 64]

KERNEL_CONFIGS = [
    pytest.param(CryptoConfig(precompute=True), id="inline-precompute"),
]


@pytest.fixture(scope="module")
def registry():
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


def build_runtime(registry, keystore, config):
    from repro.gateway.service import GatewayRuntime

    cloud = CloudZone(registry)
    runtime = GatewayRuntime(
        keystore.application, InProcTransport(cloud.host), registry,
        keystore=keystore, pipeline=PipelineConfig(crypto=config),
    )
    return runtime, cloud


def string_values(size):
    return [f"value-{i % 5}" for i in range(size)]


def numeric_values(size):
    return [float(i % 9) * 1.5 - 3.0 for i in range(size)]


def entries_for(tactic, size):
    values = (numeric_values(size)
              if tactic in ("ope", "ore", "paillier") else
              [i % 7 + 1 for i in range(size)] if tactic == "elgamal" else
              string_values(size))
    return [(f"doc-{i:03d}", value) for i, value in enumerate(values)]


def paired_instances(registry, config, tactic, field="obs.field"):
    """The same tactic instance in a baseline and a kernel runtime,
    sharing one keystore, plus both cloud halves for state dumps."""
    keystore = KeyStore("equiv")
    base_rt, base_cloud = build_runtime(registry, keystore, None)
    kern_rt, kern_cloud = build_runtime(registry, keystore, config)
    return (
        base_rt.tactic(field, tactic),
        kern_rt.tactic(field, tactic),
        base_cloud.tactic_instance("equiv", field, tactic),
        kern_cloud.tactic_instance("equiv", field, tactic),
    )


class TestDeterministicTactics:
    """Seed loop and batch SPI must produce byte-identical cloud state."""

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    @pytest.mark.parametrize("size", BATCH_SIZES)
    @pytest.mark.parametrize("tactic", ["det", "blind-index", "ope", "ore"])
    def test_cloud_state_byte_identical(self, registry, config, tactic,
                                        size):
        base, kern, base_cloud, kern_cloud = paired_instances(
            registry, config, tactic
        )
        entries = entries_for(tactic, size)
        for doc_id, value in entries:       # the seed per-value loop
            base.insert(doc_id, value)
        kern.index_many(entries)            # the kernelised batch
        assert kern_cloud.shard_dump() == base_cloud.shard_dump()

    @pytest.mark.parametrize("tactic", ["det", "blind-index", "ope", "ore"])
    def test_single_token_matches_batch(self, registry, tactic):
        _, kern, _, _ = paired_instances(
            registry, CryptoConfig(precompute=True), tactic
        )
        value = 4.5 if tactic in ("ope", "ore") else "value-1"
        assert kern.tokens_many([value, value]) == [
            kern.token(value), kern.token(value)
        ]

    @pytest.mark.parametrize("tactic", ["det", "blind-index", "ope", "ore"])
    def test_inactive_config_batch_equals_seed(self, registry, tactic):
        """With the defaults, the memoised index_many writes what the
        seed loop writes."""
        base, kern, base_cloud, kern_cloud = paired_instances(
            registry, None, tactic
        )
        entries = entries_for(tactic, 7)
        for doc_id, value in entries:
            base.insert(doc_id, value)
        kern.index_many(entries)
        assert kern_cloud.shard_dump() == base_cloud.shard_dump()


class TestRandomizedTactics:
    """Fresh randomness forbids byte comparison; the protocols must
    still round-trip over kernel-produced ciphertexts."""

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_rnd_retrieval_round_trip(self, registry, config, size):
        _, kern, _, _ = paired_instances(registry, config, "rnd")
        entries = entries_for("rnd", size)
        kern.index_many(entries)
        for doc_id, value in entries:
            assert kern.retrieve(doc_id) == value

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_paillier_aggregate_round_trip(self, registry, config, size):
        _, kern, _, _ = paired_instances(registry, config, "paillier")
        entries = entries_for("paillier", size)
        kern.index_many(entries)
        total = sum(value for _, value in entries)
        assert kern.aggregate("sum") == pytest.approx(total)
        assert kern.aggregate("avg") == pytest.approx(total / len(entries))

    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_elgamal_product_round_trip(self, registry, config, size):
        _, kern, _, _ = paired_instances(registry, config, "elgamal")
        entries = entries_for("elgamal", size)
        kern.index_many(entries)
        product = 1
        for _, value in entries:
            product *= value
        assert kern.aggregate("product") == product


SCHEMA_FIELDS = dict(
    status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
    kind=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
    patient=("string", FieldAnnotation.parse("C2", "I,EQ")),
    effective=("int", FieldAnnotation.parse("C5", "I,EQ,RG", "min,max")),
    value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
    note="string",
)


def build_deployment(crypto):
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    blinder = DataBlinder(
        "equiv", InProcTransport(cloud.host), registry=registry,
        pipeline=PipelineConfig(batch_writes=True, crypto=crypto),
    )
    blinder.register_schema(Schema.define("obs", **SCHEMA_FIELDS))
    entities = blinder.entities("obs")
    entities.insert_many([
        {
            "_id": f"d{i:03d}",
            "status": ["final", "draft", "amended"][i % 3],
            "kind": ["hr", "bp"][i % 2],
            "patient": f"p{i % 5}",
            "effective": i * 3 % 50,
            "value": float(i % 7),
            "note": f"note {i}",
        }
        for i in range(48)
    ])
    return blinder, entities


class TestDeploymentEquivalence:
    """Full middleware: kernelised bulk insert answers queries exactly
    like the default deployment over the same documents."""

    @pytest.fixture(scope="class")
    def deployments(self):
        return (build_deployment(None),
                build_deployment(CryptoConfig(precompute=True)))

    @pytest.mark.parametrize("predicate", [
        Eq("status", "final"),
        Eq("patient", "p2"),
        Eq("note", "note 4"),
        Range("effective", 10, 30),
        And([Eq("status", "final"), Eq("kind", "hr")]),
        And([Eq("kind", "bp"), Range("effective", 0, 25)]),
    ], ids=["eq-bl", "eq", "plain", "range", "and-bool", "and-range"])
    def test_find_ids_match(self, deployments, predicate):
        (_, base_entities), (_, kern_entities) = deployments
        assert kern_entities.find_ids(predicate) == base_entities.find_ids(
            predicate
        )

    @pytest.mark.parametrize("function,field", [
        (Aggregate.SUM, "value"),
        (Aggregate.AVG, "value"),
        (Aggregate.MIN, "effective"),
        (Aggregate.MAX, "effective"),
    ])
    def test_aggregates_match(self, deployments, function, field):
        (_, base_entities), (_, kern_entities) = deployments
        query = AggregateQuery(function, field, None)
        assert kern_entities.aggregate(query) == pytest.approx(
            base_entities.aggregate(query)
        )

    def test_retrieval_matches(self, deployments):
        (_, base_entities), (_, kern_entities) = deployments
        for doc_id in ("d000", "d023", "d047"):
            assert kern_entities.get(doc_id) == base_entities.get(doc_id)

    def test_explain_shows_crypto_wire_split(self, deployments):
        (baseline, _), (kernel, _) = deployments
        rendered = kernel.explain("obs", operation="insert")
        assert "observed crypto/wire split" in rendered
        assert "Crypto:insert" in rendered
        assert "Wire:insert" in rendered
        # The Paillier work is a kernel row of its own, and it is booked
        # inside the crypto phase, not after it.
        timings = kernel.planner_stats("obs")["node_timings"]
        assert timings["Crypto:paillier_encrypt"]["calls"] >= 1
        assert (timings["Crypto:insert"]["seconds"]
                >= timings["Crypto:paillier_encrypt"]["seconds"])
        # The defaults run the same loop, dedup kernel included, and
        # record the split rows too.
        assert "crypto/wire split" in baseline.explain(
            "obs", operation="insert"
        )
        assert "Crypto:dedup_map" in timings
        assert "Crypto:dedup_map" in (
            baseline.planner_stats("obs")["node_timings"]
        )
