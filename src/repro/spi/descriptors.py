"""Tactic descriptors: the abstraction model of Fig. 1.

A :class:`TacticDescriptor` reifies everything the middleware needs to
select and load a tactic without understanding its cryptography: the
operations it offers, the per-operation leakage profile, coarse
performance characteristics, and provenance notes (the *Challenge* and
*Implementation* columns of Table 2).

SPI interface counts are not declared — they are *derived* from the
gateway and cloud implementation classes by introspection, so Table 2's
counts in the benchmark reflect the actual code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.spi.interfaces import CLOUD_INTERFACES, GATEWAY_INTERFACES
from repro.spi.leakage import LeakageProfile, ProtectionClass


class Operation(enum.Enum):
    """Data-access operations of the Fig. 2 abstraction model."""

    INSERT = "I"
    EQUALITY = "EQ"
    BOOLEAN = "BL"
    RANGE = "RG"
    READ = "RD"
    UPDATE = "UP"
    DELETE = "DL"

    @classmethod
    def parse(cls, value: "Operation | str") -> "Operation":
        if isinstance(value, cls):
            return value
        return cls(value.strip().upper())


class Aggregate(enum.Enum):
    """Aggregate functions combinable with search operations (§3.2)."""

    SUM = "sum"
    AVG = "avg"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    PRODUCT = "product"

    @classmethod
    def parse(cls, value: "Aggregate | str") -> "Aggregate":
        if isinstance(value, cls):
            return value
        return cls(value.strip().lower())


@dataclass(frozen=True)
class PerformanceMetrics:
    """Static per-tactic performance descriptor (Fig. 1 'performance
    metrics').

    ``rank`` orders tactics for selection tie-breaks (lower = faster);
    ``rounds_per_query`` is what EXPLAIN prints per index node; the
    remaining fields describe asymptotics and overhead sources used in
    documentation and the ablation reports.
    """

    rank: int
    search_complexity: str = "O(1)"
    rounds_per_query: int = 1
    client_storage: str = "O(1)"
    server_storage: str = "O(n)"
    notes: str = ""


@dataclass(frozen=True)
class TacticDescriptor:
    """Everything the registry knows about one pluggable tactic."""

    name: str
    display_name: str
    operations: frozenset[Operation]
    aggregates: frozenset[Aggregate]
    leakage: LeakageProfile
    performance: PerformanceMetrics
    #: None for aggregate-only tactics (Paillier's '-' row in Table 2).
    protection_class: ProtectionClass | None
    challenge: str = ""
    implementation: str = "implemented from scratch"
    #: Whether the tactic can serve boolean queries indirectly, by running
    #: per-term equality queries that the gateway combines (predicate
    #: evaluation in the trusted zone).
    boolean_via_equality: bool = False
    #: Whether the tactic's candidate id sets are exact — no false
    #: positives (BIEX-ZMF's probabilistic filters) and no stale entries
    #: (insert-as-upsert range indexes, Sophos' addition-only updates).
    #: The planner uses this to drop the Decrypt/Verify stages from plans
    #: whose result cannot change under verification (e.g. ``count``).
    exact_search: bool = True
    #: Whether the cloud half answers its id lookup (``eq_query`` /
    #: ``range_query``) with a plain id list from entries keyed by
    #: document id — so the shard resolving a token already holds the
    #: matching documents, and a find over one such lookup fetches them
    #: in the same per-shard round (the planner's ``ColocatedFetch``).
    colocated_lookup: bool = False

    def supports(self, operation: Operation) -> bool:
        if operation in self.operations:
            return True
        if operation is Operation.BOOLEAN and self.boolean_via_equality:
            return Operation.EQUALITY in self.operations
        return False

    def supports_aggregate(self, aggregate: Aggregate) -> bool:
        return aggregate in self.aggregates

    def admissible_for(self, protection_class: ProtectionClass) -> bool:
        """Whether a field of the given class may use this tactic."""
        if self.protection_class is None:
            return True  # aggregate-only: no search leakage class
        return protection_class.tolerates(self.leakage.level)


def implemented_interfaces(cls: type, side: str) -> list[str]:
    """Names of the Table 1 interfaces a tactic class implements."""
    table = GATEWAY_INTERFACES if side == "gateway" else CLOUD_INTERFACES
    return [name for name, abc in table.items() if issubclass(cls, abc)]


def spi_counts(gateway_cls: type, cloud_cls: type) -> tuple[int, int]:
    """The (gateway, cloud) SPI counts reported in Table 2."""
    return (
        len(implemented_interfaces(gateway_cls, "gateway")),
        len(implemented_interfaces(cloud_cls, "cloud")),
    )
