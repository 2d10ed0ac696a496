"""Runtime performance metrics per tactic instance (Fig. 1, right side).

The tactic abstraction model attaches *performance metrics* to every
operation: algorithmic cost, network cost (data sent/received between
clients and providers) and storage overhead.  This module reifies the
measurement side: a :class:`TacticMetrics` recorder is injected into each
gateway tactic context, and every cloud call made through the context is
accounted — per tactic instance, per operation — with wall time, round
count and wire bytes.

``DataBlinder.metrics_report()`` renders the aggregate, which is how an
operator sees where a deployment spends its budget (e.g. the Paillier
dominance the paper observed).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class OperationCost:
    """Accumulated cost of one (tactic instance, method) pair."""

    calls: int = 0
    rounds: int = 0
    seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0

    def record(self, seconds: float, bytes_sent: int,
               bytes_received: int) -> None:
        self.calls += 1
        self.rounds += 1
        self.seconds += seconds
        self.bytes_sent += bytes_sent
        self.bytes_received += bytes_received

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.seconds / self.calls if self.calls else 0.0


@dataclass
class InstanceMetrics:
    """All operations of one tactic instance."""

    service: str
    operations: dict[str, OperationCost] = field(default_factory=dict)

    def cost(self, method: str) -> OperationCost:
        if method not in self.operations:
            self.operations[method] = OperationCost()
        return self.operations[method]

    @property
    def total_seconds(self) -> float:
        return sum(c.seconds for c in self.operations.values())

    @property
    def total_calls(self) -> int:
        return sum(c.calls for c in self.operations.values())

    @property
    def total_bytes(self) -> int:
        return sum(c.bytes_sent + c.bytes_received
                   for c in self.operations.values())


@dataclass
class LatencyEwma:
    """Exponentially weighted moving average of one cost signal.

    ``alpha`` weights the newest observation; the planner's cost model
    reads ``mean_seconds`` as its *observed* half (the static half comes
    from the SPI performance descriptors).
    """

    alpha: float = 0.25
    observations: int = 0
    mean_seconds: float = 0.0

    def observe(self, seconds: float) -> None:
        self.observations += 1
        if self.observations == 1:
            self.mean_seconds = seconds
        else:
            self.mean_seconds += self.alpha * (seconds - self.mean_seconds)

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.mean_seconds


class CostObservatory:
    """Observed per-(scope, operation, tactic) latency EWMAs.

    One observatory lives on the gateway runtime, shared by every schema
    executor, so observations survive plan-cache invalidations and schema
    migrations.  Keys are ``(scope, operation, tactic)`` — e.g.
    ``("observation.status", "eq", "det")`` — matching the plan IR's
    ``IndexLookup`` nodes.
    """

    def __init__(self, alpha: float = 0.25) -> None:
        self._alpha = alpha
        self._ewmas: dict[tuple[str, str, str], LatencyEwma] = {}
        self._lock = threading.Lock()

    def observe(self, scope: str, operation: str, tactic: str,
                seconds: float) -> None:
        key = (scope, operation, tactic)
        with self._lock:
            ewma = self._ewmas.get(key)
            if ewma is None:
                ewma = LatencyEwma(alpha=self._alpha)
                self._ewmas[key] = ewma
            ewma.observe(seconds)

    def lookup(self, scope: str, operation: str,
               tactic: str) -> LatencyEwma | None:
        with self._lock:
            return self._ewmas.get((scope, operation, tactic))

    def snapshot(self) -> dict[tuple[str, str, str], tuple[int, float]]:
        with self._lock:
            return {
                key: (e.observations, e.mean_seconds)
                for key, e in self._ewmas.items()
            }


class TacticMetrics:
    """Thread-safe per-deployment metrics registry."""

    def __init__(self) -> None:
        self._instances: dict[str, InstanceMetrics] = {}
        self._lock = threading.Lock()

    def record_call(self, service: str, method: str, seconds: float,
                    bytes_sent: int, bytes_received: int) -> None:
        with self._lock:
            instance = self._instances.get(service)
            if instance is None:
                instance = InstanceMetrics(service)
                self._instances[service] = instance
            instance.cost(method).record(seconds, bytes_sent,
                                         bytes_received)

    def instances(self) -> list[InstanceMetrics]:
        with self._lock:
            return [self._instances[k] for k in sorted(self._instances)]

    def reset(self) -> None:
        with self._lock:
            self._instances.clear()

    # -- reporting -----------------------------------------------------------

    def by_tactic(self) -> dict[str, OperationCost]:
        """Aggregate costs keyed by tactic name (last service segment)."""
        aggregated: dict[str, OperationCost] = {}
        for instance in self.instances():
            tactic = instance.service.rsplit("/", 1)[-1]
            total = aggregated.setdefault(tactic, OperationCost())
            for cost in instance.operations.values():
                total.calls += cost.calls
                total.rounds += cost.rounds
                total.seconds += cost.seconds
                total.bytes_sent += cost.bytes_sent
                total.bytes_received += cost.bytes_received
        return aggregated

    def render(self) -> str:
        header = (f"{'tactic':<12}{'calls':>8}{'time s':>10}"
                  f"{'mean ms':>10}{'sent B':>12}{'recv B':>12}")
        lines = ["Per-tactic runtime cost (Fig. 1 performance metrics)",
                 header, "-" * len(header)]
        by_tactic = self.by_tactic()
        for tactic in sorted(by_tactic,
                             key=lambda t: -by_tactic[t].seconds):
            cost = by_tactic[tactic]
            lines.append(
                f"{tactic:<12}{cost.calls:>8}{cost.seconds:>10.3f}"
                f"{cost.mean_ms:>10.2f}{cost.bytes_sent:>12,}"
                f"{cost.bytes_received:>12,}"
            )
        return "\n".join(lines)
