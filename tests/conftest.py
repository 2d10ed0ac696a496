"""Shared fixtures: a full gateway+cloud deployment in one process."""

from __future__ import annotations

import pytest

from repro.cloud.cluster import CloudCluster
from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.registry import TacticRegistry
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.resilience import ResilienceConfig
from repro.net.transport import InProcTransport
from repro.spi.context import CloudTacticContext, GatewayTacticContext
from repro.tactics import register_builtin_tactics


@pytest.fixture()
def registry() -> TacticRegistry:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return registry


@pytest.fixture()
def cloud(registry) -> CloudZone:
    return CloudZone(registry)


@pytest.fixture()
def transport(cloud) -> InProcTransport:
    return InProcTransport(cloud.host)


@pytest.fixture()
def blinder(transport, registry) -> DataBlinder:
    return DataBlinder("testapp", transport, registry=registry)


class TacticHarness:
    """Instantiates one tactic's gateway half against a live cloud zone."""

    def __init__(self, cloud: CloudZone, transport: InProcTransport,
                 registry: TacticRegistry, application: str = "testapp"):
        from repro.gateway.service import GatewayRuntime

        self.cloud = cloud
        self.registry = registry
        self.runtime = GatewayRuntime(application, transport, registry)

    def gateway(self, tactic: str, field: str = "doc.field"):
        return self.runtime.tactic(field, tactic)

    def cloud_instance(self, tactic: str, field: str = "doc.field"):
        return self.cloud.tactic_instance(
            self.runtime.application, field, tactic
        )


@pytest.fixture()
def harness(cloud, transport, registry) -> TacticHarness:
    return TacticHarness(cloud, transport, registry)


class Production:
    """The all-layers-on production profile over a 4-node in-process
    cluster, with the paper's benchmark observation schema."""

    def __init__(self, registry):
        resilience = ResilienceConfig()
        self.cluster = CloudCluster(4, registry=registry,
                                    resilience=resilience)
        self.blinder = DataBlinder(
            "obsapp", self.cluster.nodes(), registry=registry,
            verify_results=False, pipeline=PipelineConfig.production(),
            resilience=resilience,
        )
        self.schema = benchmark_observation_schema()
        self.blinder.register_schema(self.schema)
        self.entities = self.blinder.entities(self.schema.name)
        self._generator = MedicalDataGenerator(11)

    @property
    def transport(self):
        return self.blinder.runtime.transport

    def documents(self, count: int) -> list[dict]:
        return [observation.to_document()
                for observation in self._generator.observations(count)]

    def legs(self):
        return [transport for _, transport in self.cluster.nodes()]

    def close(self) -> None:
        self.transport.close()
        self.cluster.close()


@pytest.fixture()
def production(registry):
    deployment = Production(registry)
    yield deployment
    deployment.close()
