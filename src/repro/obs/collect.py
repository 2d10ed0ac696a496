"""Collectors adapting what the gateway's layers already export.

Each stats class keeps its own storage; these read it on demand into one
registry section, so "is the fleet healthy" is one snapshot, not nine
``*Stats`` surfaces.  Duck-typed on purpose: nothing is imported.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Iterator

from repro.obs.registry import Sample, flatten


def _net(transport: Any) -> dict:
    return {
        "endpoints": {label: asdict(stats) for label, stats
                      in transport.labeled_stats().items()},
        "wire": [
            {"shard": label.removeprefix("shard:"), "service": service,
             "method": method, **cell._asdict()}
            for label, cells in sorted(transport.wire_cells().items())
            for (service, method), cell in sorted(cells.items())],
    }


def _net_samples(net: dict) -> Iterator[Sample]:
    yield from flatten("net", net["endpoints"], ("endpoint",))
    for row in net["wire"]:
        labels = {k: row[k] for k in ("shard", "service", "method")}
        yield "wire_slots_total", labels, row["slots"]
        yield "wire_frames_total", labels, row["frames"]
        for direction in ("sent", "received"):
            yield ("wire_bytes_total", {**labels, "direction": direction},
                   row[f"bytes_{direction}"])


def _integrity(verifier: Any) -> dict:
    own = verifier.own_stats()
    return {"failures": own.integrity_failures,
            "stale": own.stale_detected,
            "resyncs": verifier.resyncs,
            "acked": verifier.acked,
            "write_counter": verifier.write_counter(),
            "ledger": verifier.ledger.snapshot()}


def attach(runtime: Any) -> None:
    """Register the gateway runtime's sections on ``runtime.obs``."""
    obs, transport = runtime.obs, runtime.transport
    obs.collect("net", lambda: _net(transport), samples=_net_samples)
    obs.collect("tactics", runtime.metrics.snapshot,
                samples=lambda _: ())  # the wire + tactic series carry it
    obs.collect("tokens", runtime.kernels.token_cache_stats)
    tier, verifier = runtime.cache_tier, runtime.verifier
    if tier is not None:
        obs.collect("cache", lambda: {
            k: v for k, v in tier.snapshot().items() if k != "tokens"
        }, ("tier",))
    if verifier is not None:
        obs.collect("integrity", lambda: _integrity(verifier))
    router = runtime.router
    if router is not None:
        obs.collect("shard", lambda: {
            "failovers": router.failover_count(),
            "replica_errors": router.replica_error_count(),
            "scatters": router.scatter_count(),
            "topology_epoch": router.topology_epoch()})
