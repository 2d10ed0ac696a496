"""Wire and zone identity of the seven doc-keyed tactics.

With the HSM and every coin source seeded — the ``secrets`` functions,
the default source of :mod:`repro.crypto.primitives.random` and the
masks Paillier draws — each tactic's gateway half is driven through its
insert, batch ``index_many``, update/delete where it has them, and a
query.  The SHA-256 over every encoded request it sends, and the
digest of what the untrusted zone then stores, are pinned: a refactor
of a tactic's halves must leave both byte-identical.

The wire digests were re-pinned once when a batch insertion's finish
started sending its entries as one ``insert_many(entries=[...])`` slot
instead of one ``insert`` slot per entry; the zone digests did not move,
since the cloud half's ``insert_many`` runs the same per-entry
``insert`` in the same order.
"""

from __future__ import annotations

import hashlib
import secrets

import pytest

from repro.analysis.snapshot import zone_fingerprint
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.crypto.kernels.config import CryptoConfig
from repro.crypto.primitives import random as coins
from repro.crypto.primitives.random import DeterministicRandom
from repro.keys.hsm import SimulatedHsm
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.message import encode
from repro.net.transport import InProcTransport, TransportLayer
from repro.tactics import register_builtin_tactics

APP = "pin"

LABELS = [f"v{i % 4}" for i in range(10)]
NUMBERS = [float(i % 7) * 2.5 - 4.0 for i in range(10)]
FACTORS = [i % 5 + 1 for i in range(10)]

#: (wire digest, zone digest) per case.  The zone digests were recorded
#: before the equality tactics shared one index; the wire digests since
#: a batch finish sends one ``insert_many`` slot.
PINS = {
    "det": (
        "cc4fd6a5a4b33ed741c95ce1b7b5983d334f1162724358396fc9993302f93310",
        "394d945f0f1a324e95c21a73adc8232cef8859180968ef9ae23f99c621180ac6",
    ),
    "blind-index": (
        "bc725af675a2384afe5cb99d8812729a9db9b0714232979f4745cdbb6e90ec44",
        "2ac50a72dbe52ced04f1f134315c0da1f533904368dc119d5cdaba503c9c3f04",
    ),
    "rnd": (
        "37b9a8024153e31bb10cf3089ffda6415d82ee5d0c14c564474fa393a3780ec3",
        "12098b7890e36bb246ec28e537c881a8d40ed3cc4609e190a26d58b93d3eb07a",
    ),
    "ope": (
        "669f35b6e5fb0b543334f8d128c8ace3be5d5a2aa4c82ae9ad7569f73bca237c",
        "a452dc36a51dd66a65271d3d7082134646291902a9723e5066a21a0da8febccf",
    ),
    "ore": (
        "046ca50048d837ff8eb0f9a033e762c70cb2c584b11043e7b8886f86117a33bb",
        "8a59a23443fbcf8290e0b394c59524840f3bfebf3d939eb1915428be4cf5045e",
    ),
    "elgamal": (
        "56fc2e5a2aa7f427dbffda211b4f7579fd1256cb212a1f48ea674b70ab1ebce2",
        "99604a93fee6622662d6b69db6b1dd7023cbcb8e310ee338697b5739c5d6b7d9",
    ),
    "paillier": (
        "a06a06d3ab74265110868dc1cceed7cde5ad74166aec122a81b956801693c620",
        "7bd0d289602825a377f29dfe9f34c5cc173297caedfad7efaf76464131cc8d93",
    ),
    "paillier-precompute": (
        "e4d3ea31ac09ab86cbb68e06c861570819e9e970f66a934eb14dee22615b6f71",
        "354ada8332a9747286aaaa758f05a43ad84d25a8cf13482694e27b1d9c0db19a",
    ),
}


class RequestLog(TransportLayer):
    """Keeps every request the gateway puts on the wire, in order."""

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


def deploy(monkeypatch, precompute: bool):
    stream = DeterministicRandom(b"doc-keyed/coins")
    monkeypatch.setattr(secrets, "token_bytes", stream.token_bytes)
    monkeypatch.setattr(secrets, "randbelow", stream.randbelow)
    monkeypatch.setattr(coins, "_default", stream)
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    wire = RequestLog(InProcTransport(cloud.host))
    blinder = DataBlinder(
        APP, wire, registry=registry,
        keystore=KeyStore(
            APP, SimulatedHsm(DeterministicRandom(b"doc-keyed/hsm"))
        ),
        pipeline=PipelineConfig(crypto=CryptoConfig(precompute=precompute)),
    )
    return blinder, wire, cloud


def load(tactic, values) -> list[tuple[str, object]]:
    """Six entries through the batch SPI, four through ``insert``."""
    entries = [(f"doc-{i:02d}", value) for i, value in enumerate(values)]
    tactic.index_many(entries[:6])
    for doc_id, value in entries[6:]:
        tactic.insert(doc_id, value)
    return entries


def drive_equality(tactic, retrieval: bool) -> None:
    load(tactic, LABELS)
    tactic.update("doc-01", LABELS[1], "moved")
    tactic.delete("doc-02", LABELS[2])
    assert tactic.resolve_eq(tactic.eq_query("v1")) == {"doc-05", "doc-09"}
    assert tactic.resolve_eq(tactic.eq_query("moved")) == {"doc-01"}
    if retrieval:
        assert tactic.retrieve("doc-03") == "v3"


def drive_rnd(tactic) -> None:
    load(tactic, LABELS)
    assert tactic.resolve_eq(tactic.eq_query("v2")) == {
        "doc-02", "doc-06",
    }
    assert tactic.retrieve("doc-07") == "v3"


def drive_order(tactic) -> None:
    entries = load(tactic, NUMBERS)
    expected = {doc_id for doc_id, value in entries if -1.5 <= value <= 6.0}
    assert tactic.range_query(-1.5, 6.0) == expected
    assert len(tactic.ordered_ids(None, None, limit=3,
                                  descending=True)) == 3


def drive_aggregate(tactic, function: str, values, expected) -> None:
    load(tactic, values)
    assert tactic.aggregate(function) == pytest.approx(expected)


CASES = {
    "det": ("det", False,
            lambda t: drive_equality(t, retrieval=True)),
    "blind-index": ("blind-index", False,
                    lambda t: drive_equality(t, retrieval=False)),
    "rnd": ("rnd", False, drive_rnd),
    "ope": ("ope", False, drive_order),
    "ore": ("ore", False, drive_order),
    "elgamal": ("elgamal", False, lambda t: drive_aggregate(
        t, "product", FACTORS, 2 ** 2 * 3 ** 2 * 4 ** 2 * 5 ** 2)),
    "paillier": ("paillier", False, lambda t: drive_aggregate(
        t, "sum", NUMBERS, sum(NUMBERS))),
    "paillier-precompute": ("paillier", True, lambda t: drive_aggregate(
        t, "sum", NUMBERS, sum(NUMBERS))),
}


def run_case(monkeypatch, case: str) -> tuple[str, str]:
    name, precompute, drive = CASES[case]
    blinder, wire, cloud = deploy(monkeypatch, precompute)
    drive(blinder.runtime.tactic("obs.value", name))
    digest = hashlib.sha256()
    for request in wire.log:
        payload = encode(request.to_payload())
        digest.update(len(payload).to_bytes(4, "big"))
        digest.update(payload)
    return digest.hexdigest(), zone_fingerprint(cloud, APP)


@pytest.mark.parametrize("case", sorted(CASES))
def test_requests_and_zone_are_pinned(monkeypatch, case):
    assert run_case(monkeypatch, case) == PINS[case]
