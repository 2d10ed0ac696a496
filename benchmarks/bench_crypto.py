"""EXP-CRYPTO — gateway crypto kernels: batched tactic SPI and
fixed-base Paillier masks.

Four measurements, written to ``BENCH_crypto.json``:

* **Paillier encryption micro-benchmark** — one cold ``r^n mod n²``
  exponentiation per ciphertext (the seed path) against fixed-base
  ``β^k`` masks mod p² and q² (``CryptoConfig.precompute``).  The
  headline claim: >= 5x more encryptions per second.
* **Paillier kernels on the factors** — per-operation medians over
  ``KERNEL_OPS`` paired operations: §7 decryption (mod p², q²) against
  the textbook ``L(c^λ mod n²)·μ``, and a fixed-base mask against a
  cold ``r^n mod n²``.  The floors are asserted on the median of the
  per-pair ratios, not on one run's rates.
* **Bulk-insert throughput grid** — the §5.2 benchmark observation
  schema (8 tactic instances) ingested through ``insert_many`` under
  the defaults and under ``CryptoConfig(precompute=True)``, the config
  that ships.  Claim: the kernelised write path lands >= 3x the
  baseline document rate.  The speedup is *algorithmic* — fixed-base
  masks; the OPE split-node memo and DET/blind-index dedup run under
  both configs — so it holds on a single-core runner.
* **Paillier aggregate throughput** — homomorphic sum + CRT-assisted
  decryption over the ingested corpus, per config.

Run standalone with ``python benchmarks/bench_crypto.py --smoke`` for
the reduced CI smoke profile.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import AggregateQuery
from repro.crypto import paillier
from repro.crypto.kernels.config import CryptoConfig
from repro.fhir.generator import MedicalDataGenerator
from repro.fhir.model import benchmark_observation_schema
from repro.net.batch import PipelineConfig
from repro.net.transport import InProcTransport
from repro.spi.descriptors import Aggregate

SEED = 2019
DOCS = int(os.environ.get("DATABLINDER_CRYPTO_BENCH_DOCS", "48"))
ENCRYPTIONS = int(os.environ.get("DATABLINDER_CRYPTO_BENCH_ENC", "24"))
AGGREGATES = int(os.environ.get("DATABLINDER_CRYPTO_BENCH_AGG", "5"))
#: Paired operations behind each kernel-row median; deliberately not
#: shrunk by ``--smoke`` (a 6-sample median is a single-run swing).
KERNEL_OPS = 50
DECRYPT_FLOOR = 1.6   # §7 decrypt vs textbook; measured ~2.2x
MASK_FLOOR = 8.0      # fixed-base mask vs cold r^n; measured ~17x
#: Minimum precompute-vs-baseline insert speedup.  The full profile
#: asserts the EXP-CRYPTO claim (3x); the CI smoke lowers it — its job
#: on a 16-document workload is validating the plumbing, not the perf
#: claim.
SPEEDUP_FLOOR = float(
    os.environ.get("DATABLINDER_CRYPTO_BENCH_FLOOR", "3.0")
)

#: config-id -> CryptoConfig (None = the seed-identical defaults).
CONFIG_GRID: dict[str, CryptoConfig | None] = {
    "baseline": None,
    "precompute": CryptoConfig(precompute=True),
}

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_crypto.json"
RESULTS: dict = {}


# -- Paillier encryption micro-benchmark --------------------------------------


def test_fixed_base_paillier_encrypt_speedup():
    """Fixed-base β^k masks beat cold exponentiation >= 5x."""
    private = paillier.generate_keypair(1024)
    public = private.public

    started = time.perf_counter()
    for i in range(ENCRYPTIONS):
        paillier.encrypt(public, i)
    cold_rate = ENCRYPTIONS / (time.perf_counter() - started)

    fixed = paillier.FixedBaseObfuscator(private)
    fixed.mask()  # one warm call
    started = time.perf_counter()
    ciphertexts = [fixed.encrypt(i) for i in range(ENCRYPTIONS)]
    fixed_rate = ENCRYPTIONS / (time.perf_counter() - started)

    for i, ciphertext in enumerate(ciphertexts):
        assert paillier.decrypt(private, ciphertext) == i

    speedup = fixed_rate / cold_rate
    RESULTS["paillier_encrypt"] = {
        "cold_per_s": cold_rate,
        "fixed_base_per_s": fixed_rate,
        "speedup": speedup,
    }
    print(f"\nEXP-CRYPTO Paillier encrypt: {cold_rate:.1f} -> "
          f"{fixed_rate:.1f} ops/s ({speedup:.1f}x)")
    assert speedup >= 5.0


# -- Paillier kernels on the factors ------------------------------------------


def textbook_decrypt(private, ciphertext):
    """Paillier'99 §4 — the reference the §7 kernel must match."""
    public = private.public
    u = pow(ciphertext.value, private.lam, public.n_squared)
    return paillier._unembed_signed(
        public, (u - 1) // public.n * private.mu % public.n
    )


def paired(reference, kernel, inputs, same_output):
    """Time both callables on each input, back to back; returns the two
    per-operation medians (ms) and the median per-pair ratio."""
    ref_ms, kernel_ms = [], []
    for value in inputs:
        started = time.perf_counter()
        expected = reference(value)
        middle = time.perf_counter()
        actual = kernel(value)
        kernel_ms.append((time.perf_counter() - middle) * 1e3)
        ref_ms.append((middle - started) * 1e3)
        assert not same_output or actual == expected
    ratio = statistics.median(r / k for r, k in zip(ref_ms, kernel_ms))
    return statistics.median(ref_ms), statistics.median(kernel_ms), ratio


def test_crt_kernels_beat_full_width():
    """Decrypt and mask generation modulo p², q² against modulo n²."""
    private = paillier.generate_keypair(1024)
    public = private.public
    fixed = paillier.FixedBaseObfuscator(private)
    fixed.mask()  # per-key constants built; one warm call

    ciphertexts = [fixed.encrypt(i * 977 - 20000) for i in range(KERNEL_OPS)]
    textbook_ms, crt_ms, decrypt_ratio = paired(
        lambda c: textbook_decrypt(private, c),
        lambda c: paillier.decrypt(private, c),
        ciphertexts, same_output=True,
    )
    cold_ms, mask_ms, mask_ratio = paired(
        lambda _: paillier.obfuscator(public), lambda _: fixed.mask(),
        range(KERNEL_OPS), same_output=False,  # independent coins
    )
    RESULTS["paillier_kernels"] = {
        "operations": KERNEL_OPS,
        "decrypt": {"textbook_ms": textbook_ms, "crt_ms": crt_ms,
                    "paired_ratio": decrypt_ratio},
        "mask": {"cold_ms": cold_ms, "fixed_base_ms": mask_ms,
                 "paired_ratio": mask_ratio},
    }
    print(f"EXP-CRYPTO Paillier decrypt: textbook {textbook_ms:.2f} ms -> "
          f"CRT {crt_ms:.2f} ms ({decrypt_ratio:.1f}x, median of "
          f"{KERNEL_OPS} pairs)")
    print(f"EXP-CRYPTO Paillier mask:    cold {cold_ms:.2f} ms -> "
          f"fixed-base {mask_ms:.2f} ms ({mask_ratio:.1f}x, median of "
          f"{KERNEL_OPS} pairs)")
    assert decrypt_ratio >= DECRYPT_FLOOR
    assert mask_ratio >= MASK_FLOOR


# -- bulk insert + aggregate grid ---------------------------------------------


def observation_documents(count):
    generator = MedicalDataGenerator(SEED)
    return [o.to_document() for o in
            generator.observations(count, cohort_size=4)]


def deploy(crypto, application):
    from repro.core.registry import TacticRegistry
    from repro.tactics import register_builtin_tactics

    registry = TacticRegistry()
    register_builtin_tactics(registry)
    cloud = CloudZone(registry)
    blinder = DataBlinder(
        application, InProcTransport(cloud.host), registry=registry,
        verify_results=False,
        pipeline=PipelineConfig(batch_writes=True, crypto=crypto),
    )
    blinder.register_schema(benchmark_observation_schema())
    return blinder, blinder.entities("observation")


def measure_config(name, crypto, documents):
    blinder, entities = deploy(crypto, f"bench-crypto-{name}")
    # Warm up outside the timed window: tactic setup (keypair
    # re-derivation, the cold fixed base) is a one-time
    # service-startup cost, not a per-document one.
    entities.insert_many([dict(d) for d in documents[:2]])

    started = time.perf_counter()
    entities.insert_many([dict(d) for d in documents])
    insert_rate = len(documents) / (time.perf_counter() - started)

    query = AggregateQuery(Aggregate.AVG, "value", None)
    expected = entities.aggregate(query)  # warm plan cache
    started = time.perf_counter()
    for _ in range(AGGREGATES):
        assert entities.aggregate(query) == expected
    aggregate_rate = AGGREGATES / (time.perf_counter() - started)

    return insert_rate, aggregate_rate


def test_insert_many_kernel_speedup():
    """The kernelised bulk ingest beats the seed loop >= 3x."""
    documents = observation_documents(DOCS + 2)
    grid = {}
    for name, crypto in CONFIG_GRID.items():
        insert_rate, aggregate_rate = measure_config(name, crypto,
                                                     documents)
        grid[name] = {
            "insert_docs_per_s": insert_rate,
            "aggregate_per_s": aggregate_rate,
        }
        print(f"EXP-CRYPTO {name:<18} insert {insert_rate:7.1f} docs/s"
              f"   paillier-agg {aggregate_rate:6.1f} ops/s")

    baseline = grid["baseline"]["insert_docs_per_s"]
    precompute = grid["precompute"]["insert_docs_per_s"]
    speedup = precompute / baseline
    RESULTS["insert_many"] = {
        "docs": DOCS,
        "grid": grid,
        "speedup_precompute_vs_baseline": speedup,
    }
    print(f"EXP-CRYPTO insert_many: {baseline:.1f} -> {precompute:.1f} "
          f"docs/s ({speedup:.1f}x with precompute)")
    assert speedup >= SPEEDUP_FLOOR

    RESULTS["config"] = {
        "docs": DOCS,
        "encryptions": ENCRYPTIONS,
        "aggregates": AGGREGATES,
    }
    RESULTS_PATH.write_text(json.dumps(RESULTS, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")


def main(argv: list[str]) -> int:
    """Standalone entry point; ``--smoke`` shrinks the workload for CI."""
    import pytest

    if "--smoke" in argv:
        os.environ.setdefault("DATABLINDER_CRYPTO_BENCH_DOCS", "16")
        os.environ.setdefault("DATABLINDER_CRYPTO_BENCH_ENC", "6")
        os.environ.setdefault("DATABLINDER_CRYPTO_BENCH_AGG", "3")
        os.environ.setdefault("DATABLINDER_CRYPTO_BENCH_FLOOR", "1.2")
    return pytest.main(["-q", "-s", __file__])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
