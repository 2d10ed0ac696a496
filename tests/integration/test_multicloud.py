"""Several providers (Fig. 3): each provider's zone is one shard node.

A :class:`ShardedTransport` node is any transport, so spreading the
untrusted zone across providers is a cluster whose nodes live with
different providers.  Each provider then holds the documents *and* the
index entries of its key range.
"""

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.errors import TransportError
from repro.fhir.model import benchmark_observation_schema, observation_schema
from repro.net.transport import InProcTransport, TransportLayer
from repro.shard.router import ShardedTransport


def make_doc(i, **overrides):
    doc = {
        "id": f"f{i}", "identifier": i, "status": "final",
        "code": "glucose", "subject": "Split Pat", "effective": 1000 + i,
        "issued": 2000 + i, "performer": "Dr", "value": float(i),
        "interpretation": "",
    }
    doc.update(overrides)
    return doc


class Recording(TransportLayer):
    """A provider link that logs each request it carries."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen: list[tuple[str, str]] = []

    def call_request(self, request):
        self.seen.append((request.service, request.method))
        return self._inner.call_request(request)


def providers(*transports):
    return ShardedTransport([
        (f"provider-{index}", transport)
        for index, transport in enumerate(transports)
    ])


@pytest.fixture()
def split_deployment(registry):
    provider_a, provider_b = CloudZone(registry), CloudZone(registry)
    transport = providers(InProcTransport(provider_a.host),
                          InProcTransport(provider_b.host))
    blinder = DataBlinder("splitapp", transport, registry=registry)
    blinder.register_schema(observation_schema())
    return blinder, provider_a, provider_b


class TestSplitDeployment:
    def test_full_functionality_across_providers(self, split_deployment):
        blinder, _, _ = split_deployment
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(4)]
        assert observations.count() == 4
        assert observations.find_ids(Eq("status", "final")) == set(ids)
        assert observations.find_ids(Eq("subject", "Split Pat")) == set(ids)
        assert observations.average("value") == pytest.approx(1.5)
        observations.update(ids[0], {"value": 9.0})
        assert observations.average("value") == pytest.approx(3.75)
        assert observations.delete(ids[1])
        assert observations.count() == 3

    def test_colocated_find_across_providers(self, registry):
        """A DET find is one co-located round: every provider resolves
        the token over its own entries and returns those documents in
        the same reply, with no ``get_many`` after it."""
        links = [Recording(InProcTransport(CloudZone(registry).host))
                 for _ in range(2)]
        blinder = DataBlinder("splitapp", providers(*links),
                              registry=registry)
        blinder.register_schema(benchmark_observation_schema())
        observations = blinder.entities("observation")
        ids = [observations.insert(make_doc(i, status=("final", "x")[i % 2]))
               for i in range(4)]
        for link in links:
            link.seen.clear()
        found = observations.find(Eq("status", "final"))
        assert sorted(d["_id"] for d in found) == sorted(ids[0::2])
        for link in links:
            assert link.seen == [("docs/splitapp", "lookup_fetch")]


class TestRouter:
    def test_empty_routes_rejected(self):
        with pytest.raises(TransportError):
            ShardedTransport([])

    def test_stats_merge_providers(self, split_deployment):
        blinder, _, _ = split_deployment
        observations = blinder.entities("observation")
        observations.insert(make_doc(1))
        stats = blinder.runtime.transport.stats()
        assert stats.messages_sent > 5
        assert stats.bytes_sent > 0
