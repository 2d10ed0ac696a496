"""The production composition is named once, in ``src/``.

``PipelineConfig.production()`` is what ``bench_e2e`` measures and what
the all-layers equivalence suites run; these tests keep the benchmark's
own spelling of it from drifting and pin the transport stack it builds.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import sys
import threading
from pathlib import Path

from repro.cache.config import CacheConfig
from repro.cloud.cluster import CloudCluster
from repro.core.middleware import DataBlinder
from repro.core.schema import FieldAnnotation, Schema
from repro.crypto.kernels.config import CryptoConfig
from repro.integrity.config import IntegrityConfig
from repro.net.batch import PipelineConfig
from repro.net.resilience import ResilienceConfig
from repro.shard.config import ShardConfig
from repro.shard.router import ShardedTransport

ROOT = Path(__file__).resolve().parents[2]
PROFILE = ROOT / "benchmarks" / "e2e" / "profile.py"

#: Every settable value of the data path: 10.  A new option edits this
#: table, in its own diff, next to the two callers (not tests, not
#: examples) that need different values of it.
OPTION_LEDGER = {
    PipelineConfig: ("batch_writes", "fanout_workers", "prefetch",
                     "sharding", "crypto", "integrity", "cache"),
    CryptoConfig: ("precompute",),
    ShardConfig: ("replication", "parallel_fanout"),
    IntegrityConfig: (),
    CacheConfig: (),
}


def test_option_ledger():
    for config, names in OPTION_LEDGER.items():
        assert tuple(
            field.name for field in dataclasses.fields(config)
        ) == names, config.__name__
    # ...and no setting reaches the program around them.
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text()
        assert "os.environ" not in source and "getenv" not in source, path


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


def test_no_thread_survives_its_deployment(registry):
    """Deploy, write, aggregate, close — three times over — and the
    process is back at the threads it started with."""
    schema = Schema.define(
        "rec",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        value=("float", FieldAnnotation.parse("C4", "I", "sum,avg")),
    )
    baseline = set(threading.enumerate())
    for cycle in range(3):
        config = PipelineConfig.production()
        cluster = CloudCluster(4, registry=registry)
        router = ShardedTransport(cluster.nodes(), config.sharding)
        blinder = DataBlinder(f"threads{cycle}", router, registry=registry,
                              pipeline=config,
                              resilience=ResilienceConfig())
        try:
            blinder.register_schema(schema)
            records = blinder.entities("rec")
            records.insert_many([
                {"status": "final", "value": float(i)} for i in range(6)
            ])
            assert records.sum("value") == 15.0
        finally:
            blinder.runtime.transport.close()
            cluster.close()
        del records, blinder, router, cluster
    gc.collect()
    survivors = set(threading.enumerate()) - baseline
    for thread in survivors:
        thread.join(timeout=5.0)  # retired pool workers exit on their own
    assert [t.name for t in survivors if t.is_alive()] == []
