"""End-to-end metric arithmetic: percentiles, shares, the summary.

The gated metrics (``BENCHMARK.json`` ``end_to_end``) are class-agnostic
because the driver wants every one of them on every workload; the
per-class latencies the issue names are computed beside them as
*detail* metrics, present only where the class occurs, and
``compare.py`` holds their bounds.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path
from statistics import mean, median

from repro.bench.metrics import percentile

from e2e.oracle import layer_of_error

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent.parent / "BENCHMARK.json"

#: An operation meets the SLO when it completes correctly within this
#: long of its due time (open loop) or its issue time (closed loop).
SLO_MS = 1000.0
#: A percentile is printed only with this many samples beyond it.
TAIL_SUPPORT = 10
#: What :func:`calibration_kernel` takes on the machine the timings are
#: scaled to (this sandbox at its undisturbed speed).
CALIBRATION_NOMINAL_S = 0.002
_CALIBRATION_MODULUS = (1 << 1023) + 1155


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def supported(count: int, fraction: float) -> bool:
    """Whether ``count`` samples leave >= 10 beyond the percentile."""
    return count * (1.0 - fraction) >= TAIL_SUPPORT


def tail(samples: list[float], fraction: float) -> float | None:
    """The percentile, or ``None`` (printed ``n/a``) when the sample
    cannot support it — never a percentile with < 10 samples beyond."""
    if not supported(len(samples), fraction):
        return None
    return percentile(samples, fraction)


def highest_tail(samples: list[float]) -> tuple[float, float]:
    """(fraction, value) of the highest percentile the sample supports."""
    for fraction in (0.99, 0.95, 0.90, 0.75):
        if supported(len(samples), fraction):
            return fraction, percentile(samples, fraction)
    return 0.50, percentile(samples, 0.50)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_kernel() -> float:
    """Seconds one fixed piece of CPU work takes right now.

    The sandbox's CPU speed drifts by up to +-30 % over minutes
    (neighbours), which is more than any bound below.  CPU-bound runs
    therefore interleave this kernel with their operations — big-int
    modular exponentiation plus an interpreter loop, the two kinds of
    work the gateway does — and report their timings scaled to a
    machine on which it takes ``CALIBRATION_NOMINAL_S``.
    """
    started = time.perf_counter()
    value = 3
    for _ in range(20):
        value = pow(value + 1, 65537, _CALIBRATION_MODULUS)
    total = 0
    for index in range(10000):
        total += index * index % 7
    return time.perf_counter() - started


#: Calibration samples averaged into one operation's speed factor.
SPEED_WINDOW = 8


def speed_of(samples: list[float]) -> float:
    """Machine-speed factor of some kernel samples (1.0 = nominal,
    2.0 = half speed)."""
    return mean(samples) / CALIBRATION_NOMINAL_S


def apply_speed(outcomes: list, samples: list[float], every: int) -> float:
    """Stamp each outcome with the machine-speed factor around it and
    return the run's overall factor.

    ``samples[j]`` was taken after operation ``(j + 1) * every``; an
    operation's factor averages the ``SPEED_WINDOW`` samples nearest to
    it, so a slow spell scales only the operations it slowed.  No
    samples means an uncalibrated (wire-bound) run.
    """
    if not samples:
        return 1.0
    for index, outcome in enumerate(outcomes):
        centre = index // every
        low = max(0, min(centre - SPEED_WINDOW // 2,
                         len(samples) - SPEED_WINDOW))
        window = samples[low:low + SPEED_WINDOW]
        outcome.speed = speed_of(window)
    return speed_of(samples)


def summarise(outcomes: list, setup_s: float, stored_ratio: float,
              factor: float = 1.0) -> tuple[dict, dict]:
    """(gated end-to-end metrics, detail metrics) of one untraced run.

    A failed, refused, expired or wrong operation counts as attempted,
    misses the SLO, and is excluded from latency percentiles.
    ``factor`` is the run's machine-speed factor (:func:`apply_speed`):
    timings are reported for the nominal machine, the SLO check is not
    (a deadline is wall-clock).
    """
    attempted = len(outcomes)
    good = [o for o in outcomes if not o.error]
    latencies = [o.scaled_ms for o in good]
    if not latencies:
        raise RuntimeError("no operation completed correctly")
    elapsed_s = (max(o.end for o in outcomes)
                 - min(o.due for o in outcomes))
    by_class: dict[str, list[float]] = {}
    for o in good:
        by_class.setdefault(o.cls, []).append(o.scaled_ms)
    gated = {
        "setup_s": setup_s,
        "throughput_ops_s": (sum(o.weight for o in good)
                             / (elapsed_s / factor)),
        "class_p50_mean_ms": mean(
            median(samples) for samples in by_class.values()),
        "op_mean_ms": mean(latencies),
        "op_slow10_mean_ms": mean(
            sorted(latencies)[-max(1, len(latencies) // 10):]),
        "ok_share": len(good) / attempted,
        "slo_ok_share": sum(
            1 for o in good if o.latency_ms <= SLO_MS) / attempted,
        "stored_bytes_per_user_byte": stored_ratio,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail: dict = {
        "n_attempted": attempted,
        "n_ok": len(good),
        "elapsed_s": elapsed_s,
        "speed_factor": factor,
        "failed_share": 1.0 - len(good) / attempted,
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p90_ms": tail(latencies, 0.90),
    }
    for cls, samples in sorted(by_class.items()):
        detail[f"{cls}_n"] = len(samples)
        detail[f"{cls}_p50_ms"] = median(samples)
        detail[f"{cls}_p95_ms"] = tail(samples, 0.95)
    errors: dict[str, int] = {}
    layers: dict[str, int] = {}
    for o in outcomes:
        if o.error:
            key = o.error.split(":")[0]
            errors[key] = errors.get(key, 0) + 1
            layer = layer_of_error(key)
            layers[layer] = layers.get(layer, 0) + 1
    detail["errors"] = errors
    detail["errors_by_layer"] = layers
    return gated, detail


def gateway_metrics(outcomes: list, snapshot: dict) -> dict:
    """``gateway.*`` of one pass: queue waits of the correct ops, how
    late the generator ran, and the runtime's admission counters
    (``snapshot`` is empty for a closed loop without the gateway)."""
    waits = [o.queue_wait_ms for o in outcomes if not o.error]
    lags = [o.gen_lag_ms for o in outcomes]
    return {
        "gateway.queue_wait_p50_ms": percentile(waits, 0.5),
        "gateway.queue_wait_p90_ms": percentile(waits, 0.9),
        "gateway.gen_lag_p90_ms": percentile(lags, 0.9),
        "gateway.gen_lag_max_ms": max(lags),
        "gateway.peak_in_flight": snapshot.get("peak_in_flight", 1),
        "gateway.refused": (snapshot.get("rejected", 0)
                            + snapshot.get("rate_limited", 0)),
    }


def unit_of(name: str, spec: dict) -> str:
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == name:
            return entry["unit"]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    return "count"


def render(metrics: dict, spec: dict, counts: dict | None = None) -> str:
    """``name  value unit`` lines; ``None`` prints as n/a."""
    lines = []
    for name, value in metrics.items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
            lines.append(f"  {name:<38} {value or '-'}")
            continue
        shown = "n/a" if value is None else (
            f"{value:.4f}" if isinstance(value, float) else str(value))
        suffix = ""
        if counts and name in counts:
            suffix = f"  (n={counts[name]})"
        lines.append(
            f"  {name:<38} {shown:>12} {unit_of(name, spec)}{suffix}")
    return "\n".join(lines)
