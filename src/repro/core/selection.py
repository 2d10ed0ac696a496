"""Adaptive tactic selection (the middleware-core's runtime strategy).

Given a field annotation — protection class + required operations +
aggregates — the selector picks concrete tactics from the registry:

1. Only tactics admissible for the field's class are considered (a tactic
   leaking more than the class tolerates is excluded; the weakest-link
   rule of §3.2 is thereby enforced *by construction*).
2. Among admissible candidates, the selector is **performance-first**: it
   prefers the tactic with the *highest* allowed protection class (weaker
   protection = cheaper crypto, and the application explicitly accepted
   that level), breaking ties with the descriptor's performance rank.
3. Operations are covered with as few tactics as possible: a boolean
   tactic that also serves equality is reused rather than adding a second
   scheme.

This policy reproduces the paper's §5.1 use-case table exactly — e.g.
``effective: C5, op [I,EQ,BL,RG]`` selects DET (equality + gateway-side
boolean) plus OPE (range), while ``status: C3, op [I,EQ,BL]`` must fall
back to BIEX-2Lev because DET's *equalities* leakage exceeds C3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registry import TacticRegistry
from repro.core.schema import FieldAnnotation
from repro.errors import SelectionError
from repro.spi.descriptors import Aggregate, Operation, TacticDescriptor
from repro.spi.leakage import ProtectionClass, weakest_link


@dataclass(frozen=True)
class FieldPlan:
    """The selection outcome for one sensitive field."""

    field: str
    annotation: FieldAnnotation
    #: role -> tactic name; roles: "eq", "bool", "range", "agg:<fn>".
    roles: dict[str, str]
    #: Reason strings per selected tactic (the 'Reason' column of §5.1).
    reasons: dict[str, str]

    @property
    def tactic_names(self) -> list[str]:
        """Distinct tactics, in deterministic order."""
        seen: list[str] = []
        for role in sorted(self.roles):
            name = self.roles[role]
            if name not in seen:
                seen.append(name)
        return seen

    def describe(self) -> str:
        tactics = ", ".join(self.tactic_names)
        return f"{self.field}: {tactics}"


class TacticSelector:
    """Selects tactics for field annotations against one registry."""

    def __init__(self, registry: TacticRegistry):
        self._registry = registry

    # -- public API -----------------------------------------------------------

    def plan_field(self, field_name: str,
                   annotation: FieldAnnotation) -> FieldPlan:
        roles: dict[str, str] = {}
        reasons: dict[str, str] = {}

        admissible = self._admissible(annotation.protection_class)
        if not admissible:
            raise SelectionError(
                f"field {field_name!r}: no tactic admissible at class "
                f"C{int(annotation.protection_class)}"
            )

        if annotation.requires(Operation.BOOLEAN):
            chosen = self._best(
                [d for d in admissible if d.supports(Operation.BOOLEAN)],
                field_name, Operation.BOOLEAN,
            )
            roles["bool"] = chosen.name
            reasons[chosen.name] = (
                "boolean & cross-field search"
                if Operation.BOOLEAN in chosen.operations
                else "boolean via equality tokens, combined at the gateway"
            )

        if annotation.requires(Operation.EQUALITY):
            bool_choice = roles.get("bool")
            if bool_choice is not None and self._registry.descriptor(
                bool_choice
            ).supports(Operation.EQUALITY):
                roles["eq"] = bool_choice
            else:
                chosen = self._best(
                    [d for d in admissible
                     if d.supports(Operation.EQUALITY)],
                    field_name, Operation.EQUALITY,
                )
                roles["eq"] = chosen.name
                reasons.setdefault(
                    chosen.name,
                    self._class_reason(chosen),
                )

        if annotation.requires(Operation.RANGE):
            chosen = self._best(
                [d for d in admissible if d.supports(Operation.RANGE)],
                field_name, Operation.RANGE,
            )
            roles["range"] = chosen.name
            reasons.setdefault(chosen.name, "range queries")

        for aggregate in sorted(annotation.aggregates, key=lambda a: a.value):
            if aggregate in (Aggregate.MIN, Aggregate.MAX):
                # Order tactics serve min/max off their sorted index
                # (Fig. 2 lists minimum/maximum among the aggregate
                # functions); reuse the range tactic when one is selected.
                if "range" in roles:
                    chosen = self._registry.descriptor(roles["range"])
                else:
                    chosen = self._best(
                        [d for d in admissible
                         if d.supports(Operation.RANGE)],
                        field_name, Operation.RANGE,
                    )
                roles[f"agg:{aggregate.value}"] = chosen.name
                reasons.setdefault(chosen.name,
                                   "min/max off the order index")
                continue
            candidates = [
                d for d in self._registry.supporting_aggregate(aggregate)
                if d.admissible_for(annotation.protection_class)
            ]
            chosen = self._best_aggregate(candidates, field_name, aggregate)
            roles[f"agg:{aggregate.value}"] = chosen.name
            reasons.setdefault(chosen.name, "cloud-side aggregation")

        if not roles:
            # Insert-only field: protect the stored value with the most
            # secure admissible value tactic (the paper's `performer: C1,
            # op [I]` -> RND case).
            chosen = self._most_secure(admissible, field_name)
            roles["store"] = chosen.name
            reasons[chosen.name] = self._class_reason(chosen)

        plan = FieldPlan(field_name, annotation, roles, reasons)
        self._check_weakest_link(plan)
        return plan

    def plan_schema(self, schema) -> dict[str, FieldPlan]:
        """Plan every sensitive field of a schema."""
        return {
            spec.name: self.plan_field(spec.name, spec.annotation)
            for spec in schema.sensitive_fields()
        }

    # -- internals ----------------------------------------------------------------

    def _admissible(self, protection_class: ProtectionClass
                    ) -> list[TacticDescriptor]:
        return [
            r.descriptor for r in self._registry.all()
            if r.descriptor.admissible_for(protection_class)
        ]

    @staticmethod
    def _class_reason(descriptor: TacticDescriptor) -> str:
        if descriptor.protection_class is None:
            return "aggregate-only tactic"
        return (
            f"{descriptor.leakage.level.label.lower()} protection level"
        )

    def _best(self, candidates: list[TacticDescriptor], field_name: str,
              operation: Operation) -> TacticDescriptor:
        candidates = [c for c in candidates if c.protection_class is not None]
        if not candidates:
            raise SelectionError(
                f"field {field_name!r}: no admissible tactic supports "
                f"{operation.name}"
            )
        return min(
            candidates,
            key=lambda d: (-int(d.protection_class), d.performance.rank),
        )

    def _best_aggregate(self, candidates: list[TacticDescriptor],
                        field_name: str,
                        aggregate: Aggregate) -> TacticDescriptor:
        if not candidates:
            raise SelectionError(
                f"field {field_name!r}: no tactic supports aggregate "
                f"{aggregate.value!r}"
            )
        return min(candidates, key=lambda d: d.performance.rank)

    def _most_secure(self, candidates: list[TacticDescriptor],
                     field_name: str) -> TacticDescriptor:
        storable = [
            c for c in candidates
            if c.protection_class is not None
            and Operation.INSERT in c.operations
        ]
        if not storable:
            raise SelectionError(
                f"field {field_name!r}: no admissible storage tactic"
            )
        return min(
            storable,
            key=lambda d: (int(d.protection_class), d.performance.rank),
        )

    def _check_weakest_link(self, plan: FieldPlan) -> None:
        levels = [
            self._registry.descriptor(name).leakage.level
            for name in plan.tactic_names
            if self._registry.descriptor(name).protection_class is not None
        ]
        if not levels:
            return
        effective = weakest_link(levels)
        if not plan.annotation.protection_class.tolerates(effective):
            raise SelectionError(
                f"field {plan.field!r}: selected tactics leak "
                f"{effective.label}, above class "
                f"C{int(plan.annotation.protection_class)}"
            )
