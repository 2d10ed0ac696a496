"""Runtime performance metrics per tactic instance (Fig. 1, right side).

The tactic abstraction model attaches *performance metrics* to every
operation: algorithmic cost, network cost (data sent/received between
clients and providers) and storage overhead.  This module reifies the
measurement side, and nothing in it diffs snapshots: the gateway tactic
context counts its calls and the seconds it blocked, the transports that
encode frames count every service's slots, frames and bytes
(:mod:`repro.obs.wire`), and :class:`TacticMetrics` is the *view* that
joins the two on read — per tactic instance, per operation — so it is
also right for a call deferred into a batch frame or split over shards.
The static side (selection rank, rounds per query, leakage level) stays
on the tactic descriptors; nothing here estimates or smooths a latency.

``DataBlinder.metrics_report()`` renders the aggregate, which is how an
operator sees where a deployment spends its budget (e.g. the Paillier
dominance the paper observed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.obs.registry import Registry
from repro.obs.wire import Key, merged


@dataclass
class OperationCost:
    """Accumulated cost of one (tactic instance, method) pair: SPI
    ``calls`` and the ``seconds`` the gateway blocked in them (a call
    deferred into a batch returns at once), ``rounds`` = leg frames that
    carried at least one of its slots, and its slot bytes on every leg
    (batch framing excluded)."""

    calls: int = 0
    rounds: int = 0
    seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0

    def add(self, other: "OperationCost", sign: int = 1) -> None:
        self.calls += sign * other.calls
        self.rounds += sign * other.rounds
        self.seconds += sign * other.seconds
        self.bytes_sent += sign * other.bytes_sent
        self.bytes_received += sign * other.bytes_received

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.seconds / self.calls if self.calls else 0.0


@dataclass
class InstanceMetrics:
    """All operations of one tactic instance."""

    service: str
    operations: dict[str, OperationCost] = field(default_factory=dict)

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


class TacticMetrics:
    """Per-deployment view: calls and blocked seconds counted at the
    source on the metrics registry, joined on read with the transport
    stack's wire cells (``cells``, its ``wire_cells`` hook).  Only
    services that recorded a call are tactic instances; the document,
    integrity and admin services stay in the cells."""

    def __init__(self, registry: Registry | None = None,
                 cells: Callable[[], dict] = dict) -> None:
        self._blocked = (registry or Registry()).histogram(
            "tactic_blocked_seconds",
            "Seconds a gateway tactic half blocked per SPI call",
            ("service", "method"))
        self._cells = cells
        self._base: dict[Key, OperationCost] = {}

    def record_call(self, service: str, method: str,
                    seconds: float) -> None:
        self._blocked.observe((service, method), seconds)

    def _totals(self) -> dict[Key, OperationCost]:
        totals = {key: OperationCost(calls=slot[0], seconds=slot[1])
                  for key, slot in self._blocked.series().items()}
        services = {service for service, _ in totals}
        for key, cell in merged(self._cells().values()).items():
            if key[0] in services:
                totals.setdefault(key, OperationCost()).add(OperationCost(
                    0, cell.frames, 0.0, cell.bytes_sent,
                    cell.bytes_received))
        return totals

    def instances(self) -> list[InstanceMetrics]:
        """The join, as a delta from the last :meth:`reset`."""
        instances: dict[str, InstanceMetrics] = {}
        for (service, method), cost in sorted(self._totals().items()):
            cost.add(self._base.get((service, method), OperationCost()), -1)
            if cost != OperationCost():
                instances.setdefault(
                    service, InstanceMetrics(service)
                ).operations[method] = cost
        return list(instances.values())

    def reset(self) -> None:
        self._base = self._totals()

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, dict]]:
        return {instance.service: {
            method: asdict(cost)
            for method, cost in instance.operations.items()
        } for instance in self.instances()}

    def by_tactic(self) -> dict[str, OperationCost]:
        """Aggregate costs keyed by tactic name (last service segment)."""
        aggregated: dict[str, OperationCost] = {}
        for instance in self.instances():
            tactic = instance.service.rsplit("/", 1)[-1]
            total = aggregated.setdefault(tactic, OperationCost())
            for cost in instance.operations.values():
                total.add(cost)
        return aggregated

    def render(self) -> str:
        header = (f"{'tactic':<12}{'calls':>8}{'rounds':>8}{'time s':>10}"
                  f"{'mean ms':>10}{'sent B':>12}{'recv B':>12}")
        lines = ["Per-tactic runtime cost (Fig. 1 performance metrics)",
                 header, "-" * len(header)]
        by_tactic = self.by_tactic()
        for tactic in sorted(by_tactic,
                             key=lambda t: -by_tactic[t].seconds):
            cost = by_tactic[tactic]
            lines.append(
                f"{tactic:<12}{cost.calls:>8}{cost.rounds:>8}"
                f"{cost.seconds:>10.3f}{cost.mean_ms:>10.2f}"
                f"{cost.bytes_sent:>12,}{cost.bytes_received:>12,}"
            )
        return "\n".join(lines)
