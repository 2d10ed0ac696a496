"""Paillier on the factors: wire identity and key hygiene.

The gateway's Paillier kernels work modulo ``p²`` and ``q²``.  That must
be invisible from outside the trusted zone: with every coin seeded the
shipped ciphertext integers are the ones the mod-``n²`` kernels shipped
(pinned below), the cloud still learns only ``n``, and nothing derived
from the factors — the CRT constants, the exponents, the fixed base
reduced mod p² or q² — shows up in a request, a stats object or a
rendered plan.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery
from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation, Schema
from repro.crypto import paillier
from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.primitives.random import DeterministicRandom
from repro.keys.hsm import SimulatedHsm
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.message import encode
from repro.net.transport import InProcTransport, TransportLayer
from repro.spi.descriptors import Aggregate
from repro.tactics import register_builtin_tactics

APP = "wire"

#: Recorded at the commit before the mod-p²/mod-q² kernels landed (seeded
#: HSM, seeded mask coins, masks inline): SHA-256 over the twelve shipped
#: ciphertext integers, and the zone digest after they are stored.
WIRE_FINGERPRINT = (
    "e0e44e4b2c4708213951d8d3be63783280933e517a4cef70bb99eb13e9d8bc17"
)
ZONE_FINGERPRINT = (
    "a44b5f3b8031971f232f4058837ad6decee79d1c8ac1a02bdeab7ea8815383ee"
)


class RequestLog(TransportLayer):
    """Keeps every request the gateway puts on the wire."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log = []

    def call_request(self, request):
        self.log.append(request)
        return self._inner.call_request(request)

    def call_batch(self, requests):
        requests = list(requests)
        self.log.extend(requests)
        return self._inner.call_batch(requests)


@pytest.fixture
def deployment(monkeypatch):
    """A precompute-mode deployment whose every Paillier coin is seeded."""
    monkeypatch.setattr(paillier, "FixedBaseObfuscator", functools.partial(
        paillier.FixedBaseObfuscator,
        randbelow=DeterministicRandom(b"wire-identity/masks").randbelow,
    ))
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    wire = RequestLog(InProcTransport(cloud.host))
    blinder = DataBlinder(
        APP, wire, registry=registry,
        keystore=KeyStore(
            APP, SimulatedHsm(DeterministicRandom(b"wire-identity/hsm"))
        ),
        pipeline=PipelineConfig(batch_writes=True,
                                crypto=CryptoConfig(precompute=True)),
    )
    return blinder, wire, cloud


def test_shipped_ciphertexts_are_bit_identical(deployment):
    blinder, wire, cloud = deployment
    tactic = blinder.runtime.tactic("obs.value", "paillier")
    entries = [(f"doc-{i:03d}", float(i % 9) * 1.5 - 3.0)
               for i in range(12)]
    tactic.index_many(entries[:8])        # the batch SPI
    for doc_id, value in entries[8:]:     # the per-value SPI
        tactic.insert(doc_id, value)
    blinder.runtime.transport.flush()

    # The batch leaves as one ``insert_many`` slot, the rest one by one.
    shipped = [entry["ciphertext"] for request in wire.log
               for entry in (request.kwargs.get("entries", [])
                             if request.method == "insert_many"
                             else [request.kwargs])
               if request.method in ("insert", "insert_many")]
    assert len(shipped) == 12
    assert hashlib.sha256(
        b"".join(c.to_bytes(256, "big") for c in shipped)
    ).hexdigest() == WIRE_FINGERPRINT
    assert zone_fingerprint(cloud, APP) == ZONE_FINGERPRINT
    assert tactic.aggregate("sum") == pytest.approx(
        sum(value for _, value in entries)
    )


def test_nothing_derived_from_the_factors_leaves_the_gateway(deployment):
    blinder, wire, _ = deployment
    blinder.register_schema(Schema.define(
        "obs",
        status=("string", FieldAnnotation.parse("C3", "I,EQ")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
    ))
    entities = blinder.entities("obs")
    entities.insert_many([
        {"_id": f"d{i}", "status": "final", "value": float(i)}
        for i in range(4)
    ])
    query = AggregateQuery(Aggregate.AVG, "value", None)
    assert entities.aggregate(query) == pytest.approx(1.5)

    [scope] = [scope for scope, name in blinder.runtime.loaded_tactics()
               if name == "paillier"]
    tactic = blinder.runtime.tactic(scope, "paillier")
    private, fixed = tactic._private, tactic._fixed_base
    [setup] = [r for r in wire.log
               if r.method == "setup" and r.service.endswith("/paillier")]
    assert setup.kwargs == {"n": private.public.n}

    factor_material = {
        private.p, private.q, private.p - 1, private.q - 1,
        private.lam, private.mu, *private.crt,
        fixed._beta_p, fixed._beta_q,
    }
    exposed = "\n".join([
        *(encode(r.to_payload()).decode() for r in wire.log),
        repr(blinder.runtime.transport.stats()),
        repr(blinder.runtime.kernels.token_cache_stats()),
        repr(blinder.planner_stats("obs")),
        blinder.planner_report("obs"),
        blinder.explain("obs", operation="insert"),
        blinder.explain("obs", operation="aggregate", field="value",
                        function="avg"),
    ])
    assert str(private.public.n) in exposed  # the probe sees integers
    for secret in factor_material:
        assert str(secret) not in exposed
        assert f"{secret:x}" not in exposed
