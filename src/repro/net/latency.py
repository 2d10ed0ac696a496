"""Network model: latency/bandwidth simulation and byte accounting.

The paper's testbed puts the gateway in a private OpenStack cloud and the
cloud components on a public provider; every tactic protocol round-trip
crosses that link.  The in-process transport reproduces the link with this
model: a configurable one-way latency plus a serialization delay derived
from bandwidth, and counters feeding the *network overhead* performance
metrics of the tactic abstraction model (Fig. 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.wire import WireMeter


@dataclass
class NetworkStats:
    """Cumulative traffic counters for one endpoint pair.

    Besides the raw traffic counters, the resilience layer
    (:mod:`repro.net.resilience`, :mod:`repro.net.faults`,
    :mod:`repro.shard.router`) reports its behaviour here: how many
    attempts were retried, how often a circuit breaker opened, how many
    calls failed over to a replica, and how many faults the
    chaos harness injected — the operator-visible face of graceful
    degradation.
    """

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    simulated_delay_seconds: float = 0.0
    retries: int = 0
    breaker_opens: int = 0
    failovers: int = 0
    faults_injected: int = 0
    integrity_failures: int = 0
    stale_detected: int = 0
    #: Idempotency-keyed responses the serving host's dedup LRU evicted
    #: (see :class:`repro.net.rpc.ServiceHost`): nonzero under fault
    #: load means retries may re-apply writes the window forgot.
    dedup_evictions: int = 0

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        return NetworkStats(
            self.messages_sent + other.messages_sent,
            self.messages_received + other.messages_received,
            self.bytes_sent + other.bytes_sent,
            self.bytes_received + other.bytes_received,
            self.simulated_delay_seconds + other.simulated_delay_seconds,
            self.retries + other.retries,
            self.breaker_opens + other.breaker_opens,
            self.failovers + other.failovers,
            self.faults_injected + other.faults_injected,
            self.integrity_failures + other.integrity_failures,
            self.stale_detected + other.stale_detected,
            self.dedup_evictions + other.dedup_evictions,
        )


def roll_up(labeled: dict[str, NetworkStats]) -> NetworkStats:
    """Merge a labelled stats report into one total.

    Nested transports (resilience -> batch collector -> sharded router ->
    per-shard) each contribute their own counters under a label via
    ``Transport.labeled_stats``; the roll-up is the single
    :class:`NetworkStats` the whole stack amounts to.
    """
    total = NetworkStats()
    for stats in labeled.values():
        total = total.merge(stats)
    return total


def render_labeled(labeled: dict[str, NetworkStats]) -> str:
    """One report line per label plus the roll-up total."""
    lines = ["network stats by endpoint:"]
    for label in sorted(labeled):
        stats = labeled[label]
        lines.append(
            f"  {label}: sent={stats.messages_sent}"
            f" recv={stats.messages_received}"
            f" bytes={stats.bytes_sent + stats.bytes_received}"
            f" retries={stats.retries} breaker_opens={stats.breaker_opens}"
            f" failovers={stats.failovers}"
            f" faults={stats.faults_injected}"
            f" integrity_failures={stats.integrity_failures}"
            f" stale={stats.stale_detected}"
            f" dedup_evictions={stats.dedup_evictions}"
        )
    total = roll_up(labeled)
    lines.append(
        f"  total: sent={total.messages_sent}"
        f" recv={total.messages_received}"
        f" bytes={total.bytes_sent + total.bytes_received}"
        f" retries={total.retries} breaker_opens={total.breaker_opens}"
        f" failovers={total.failovers} faults={total.faults_injected}"
        f" integrity_failures={total.integrity_failures}"
        f" stale={total.stale_detected}"
        f" dedup_evictions={total.dedup_evictions}"
    )
    return "\n".join(lines)


@dataclass
class NetworkModel:
    """One-way delay model for a gateway<->cloud link.

    ``one_way_latency_ms`` is applied per direction; ``bandwidth_mbps``
    adds a size-proportional serialization delay.  ``sleep`` controls
    whether the delay is actually slept (wall-clock experiments) or only
    accounted (fast unit tests).
    """

    one_way_latency_ms: float = 0.0
    bandwidth_mbps: float = 0.0  # 0 means infinite
    sleep: bool = True

    def one_way_delay(self, nbytes: int) -> float:
        delay = self.one_way_latency_ms / 1000.0
        if self.bandwidth_mbps > 0:
            delay += nbytes * 8 / (self.bandwidth_mbps * 1_000_000)
        return delay

    def apply(self, nbytes: int) -> float:
        """Apply the one-way delay for a message of ``nbytes`` bytes."""
        delay = self.one_way_delay(nbytes)
        if delay > 0 and self.sleep:
            time.sleep(delay)
        return delay


class TrafficMeter(WireMeter):
    """Thread-safe accumulator of :class:`NetworkStats`.

    The counting — frame totals plus the per-``(service, method)`` wire
    cells, attributed where the frame is encoded — is
    :class:`repro.obs.wire.WireMeter`; this adds the report shape the
    transport stack merges.  Nothing diffs two snapshots around a call
    to learn what it cost: ``cells()`` already knows.
    """

    def snapshot(self) -> NetworkStats:
        return NetworkStats(*self.totals())
