"""The production composition is named once, in ``src/``.

``PipelineConfig.production()`` is what ``bench_e2e`` measures and what
the all-layers equivalence suites run; these tests keep the benchmark's
own spelling of it from drifting and pin the transport stack it builds.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.schema import FieldAnnotation, Schema
from repro.net.batch import PipelineConfig
from repro.net.resilience import ResilienceConfig
from repro.shard.router import ShardedTransport

PROFILE = (Path(__file__).resolve().parents[2]
           / "benchmarks" / "e2e" / "profile.py")


def test_benchmark_profile_is_the_production_config(monkeypatch):
    spec = importlib.util.spec_from_file_location("e2e_profile", PROFILE)
    profile = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, profile)
    spec.loader.exec_module(profile)
    assert profile.pipeline() == PipelineConfig.production()


def test_production_stack_order(registry):
    config = PipelineConfig.production()
    cluster = CloudCluster(4, registry=registry)
    router = ShardedTransport(cluster.nodes(), config.sharding)
    blinder = DataBlinder("stackapp", router, registry=registry,
                          pipeline=config, resilience=ResilienceConfig())
    try:
        assert blinder.runtime.stack() == [
            "BatchCollector", "VerifyingTransport", "ResilientTransport",
            "ShardedTransport",
        ]
        blinder.register_schema(Schema.define(
            "rec", status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        ))
        assert ("  Stack: BatchCollector > VerifyingTransport > "
                "ResilientTransport > ShardedTransport"
                ) in blinder.explain("rec").splitlines()
    finally:
        cluster.close()
