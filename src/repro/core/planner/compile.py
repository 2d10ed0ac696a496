"""Compiler: public operations -> plan IR.

Two stages.  :func:`parameterize` strips the literal *values* out of a
predicate tree, leaving :class:`~repro.core.planner.ir.Param` slots and
producing the predicate's hashable *shape* (the plan-cache key component)
plus the binding vector for this invocation.  Parameterization happens
**before** CNF conversion on purpose: CNF's intra-clause dedup compares
literals structurally, and with values replaced by distinct slots it can
only ever merge the duplicated subtrees distribution itself creates —
never two user literals that merely share a value — so a plan compiled
for one binding vector is correct for every other.

:class:`PlanCompiler` then mirrors the seed executor's routing exactly:
the CNF split into natively-boolean clauses (one ``BoolQuery`` round for
all of them) versus per-literal index lookups, plain-field lookups served
by the document store, BIEX equality via the boolean protocol, and the
document pipeline (fetch -> decrypt -> verify -> limit) on top.  A
``find`` whose candidates are one lookup on a tactic declaring
``colocated_lookup`` fetches through ``ColocatedFetch``: lookup and
first chunk in one per-shard round — the only descriptor bit read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.planner import ir
from repro.core.query import And, Eq, Not, Or, Predicate, Range, to_cnf
from repro.errors import QueryError, UnsupportedOperation
from repro.tactics.biex import BiexGateway

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import SchemaExecutor

Shape = Any  # nested tuples; hashable


def parameterize(
    predicate: Predicate | None,
) -> tuple[Predicate | None, list, Shape]:
    """Split a predicate into (parameterized tree, bindings, shape).

    The walk order is deterministic (depth-first, left-to-right), so two
    predicates with equal shapes produce binding vectors whose slots line
    up with the cached plan's ``Param`` indices.
    """
    if predicate is None:
        return None, [], None
    values: list = []

    def walk(node: Predicate) -> tuple[Predicate, Shape]:
        if isinstance(node, Eq):
            slot = len(values)
            values.append(node.value)
            return Eq(node.field, ir.Param(slot)), ("eq", node.field)
        if isinstance(node, Range):
            low = high = None
            low_mark = high_mark = False
            if node.low is not None:
                low = ir.Param(len(values))
                values.append(node.low)
                low_mark = True
            if node.high is not None:
                high = ir.Param(len(values))
                values.append(node.high)
                high_mark = True
            return (
                Range(node.field, low, high),
                ("range", node.field, low_mark, high_mark),
            )
        if isinstance(node, Not):
            inner, shape = walk(node.part)
            return Not(inner), ("not", shape)
        if isinstance(node, (And, Or)):
            parts, shapes = [], []
            for part in node.parts:
                inner, shape = walk(part)
                parts.append(inner)
                shapes.append(shape)
            label = "and" if isinstance(node, And) else "or"
            return type(node)(parts), (label, tuple(shapes))
        raise QueryError(
            f"cannot execute literal of type {type(node).__name__}"
        )

    parameterized, shape = walk(predicate)
    return parameterized, values, shape


def _slot(value: Any) -> int:
    if not isinstance(value, ir.Param):
        raise QueryError("compiler received an unparameterized predicate")
    return value.index


class PlanCompiler:
    """Compiles one executor's operations into plan IR."""

    def __init__(self, executor: "SchemaExecutor"):
        self._x = executor

    # -- candidate-id subtrees -------------------------------------------------

    def candidates(self, predicate: Predicate) -> tuple[ir.PlanNode, bool]:
        """Compile a parameterized predicate to an id-producing subtree.

        Returns ``(node, exact)`` where ``exact`` is True when every
        feeding index is declared ``exact_search`` — i.e. verification
        cannot change candidate-set membership.
        """
        x = self._x
        cnf = to_cnf(predicate)
        boolean_clauses: list[list[Eq]] = []
        other_clauses: list[list[Predicate]] = []
        for clause in cnf:
            if x._bool_instance is not None and all(
                isinstance(literal, Eq)
                and x._uses_bool_tactic(literal.field)
                for literal in clause
            ):
                boolean_clauses.append(clause)  # type: ignore[arg-type]
            else:
                other_clauses.append(clause)

        parts: list[ir.PlanNode] = []
        if boolean_clauses:
            parts.append(ir.BoolQuery(
                tactic=self._bool_tactic_name(),
                clauses=tuple(
                    tuple(
                        (literal.field, _slot(literal.value))
                        for literal in clause
                    )
                    for clause in boolean_clauses
                ),
            ))
        for clause in other_clauses:
            literals = [self._literal_node(literal) for literal in clause]
            parts.append(
                literals[0] if len(literals) == 1
                else ir.SetOp("union", tuple(literals))
            )
        node = parts[0] if len(parts) == 1 else ir.SetOp(
            "intersect", tuple(parts)
        )
        return node, self._exact(node)

    def _bool_tactic_name(self) -> str:
        x = self._x
        for field in sorted(x.plans):
            plan = x.plans[field]
            for role in sorted(plan.roles):
                if x._instances[field][role] is x._bool_instance:
                    return plan.roles[role]
        raise QueryError("boolean clauses without a boolean tactic")

    def _literal_node(self, literal: Predicate) -> ir.PlanNode:
        if isinstance(literal, Not):
            return ir.SetOp(
                "diff", (ir.AllIds(), self._literal_node(literal.part))
            )
        if isinstance(literal, Eq):
            return self._eq_node(literal)
        if isinstance(literal, Range):
            return self._range_node(literal)
        raise QueryError(
            f"cannot execute literal of type {type(literal).__name__}"
        )

    def _eq_node(self, literal: Eq) -> ir.PlanNode:
        x = self._x
        spec = x.schema.fields.get(literal.field)
        if spec is None:
            raise QueryError(
                f"unknown field {literal.field!r} in schema "
                f"{x.schema.name!r}"
            )
        if not spec.sensitive:
            return ir.IndexLookup(
                literal.field, "eq", None, None, param=_slot(literal.value)
            )
        instance = x._role_instance(literal.field, "eq")
        if instance is None:
            raise UnsupportedOperation(
                f"field {literal.field!r} is not annotated for equality "
                f"search (op EQ)"
            )
        if isinstance(instance, BiexGateway):
            # BIEX serves equality through its boolean protocol (no
            # separate EqResolution interface), as a one-clause CNF.
            return ir.BoolQuery(
                tactic=x.plans[literal.field].roles["eq"],
                clauses=(((literal.field, _slot(literal.value)),),),
            )
        return ir.IndexLookup(
            literal.field, "eq", "eq", x.plans[literal.field].roles["eq"],
            param=_slot(literal.value),
        )

    def _range_node(self, literal: Range) -> ir.PlanNode:
        x = self._x
        spec = x.schema.fields.get(literal.field)
        if spec is None:
            raise QueryError(
                f"unknown field {literal.field!r} in schema "
                f"{x.schema.name!r}"
            )
        low = None if literal.low is None else _slot(literal.low)
        high = None if literal.high is None else _slot(literal.high)
        if not spec.sensitive:
            return ir.IndexLookup(
                literal.field, "range", None, None,
                low_param=low, high_param=high,
            )
        instance = x._role_instance(literal.field, "range")
        if instance is None:
            raise UnsupportedOperation(
                f"field {literal.field!r} is not annotated for range "
                f"search (op RG)"
            )
        return ir.IndexLookup(
            literal.field, "range", "range",
            x.plans[literal.field].roles["range"],
            low_param=low, high_param=high,
        )

    def _exact(self, node: ir.PlanNode) -> bool:
        registry = self._x.runtime.registry
        if isinstance(node, ir.IndexLookup):
            if node.tactic is None:
                return True
            return registry.descriptor(node.tactic).exact_search
        if isinstance(node, ir.BoolQuery):
            return registry.descriptor(node.tactic).exact_search
        if isinstance(node, ir.AllIds):
            return True
        if isinstance(node, ir.SetOp):
            return all(self._exact(part) for part in node.parts)
        return False

    # -- read operations -------------------------------------------------------

    def compile_find(self, predicate: Predicate | None, verify: bool,
                     has_limit: bool, param_count: int) -> ir.Plan:
        if predicate is None:
            source: ir.PlanNode = ir.AllIds()
        else:
            source, _ = self.candidates(predicate)
        if (isinstance(source, ir.IndexLookup) and source.tactic is not None
                and self._x.runtime.registry.descriptor(
                    source.tactic).colocated_lookup):
            fetch: ir.PlanNode = ir.ColocatedFetch(source, 64)
        else:
            fetch = ir.FetchDocs(source, 64)
        root: ir.PlanNode = ir.Decrypt(fetch)
        if verify and predicate is not None:
            root = ir.Verify(root)
        if has_limit:
            root = ir.Limit(root)
        return ir.Plan("find", self._x.schema.name, root,
                       param_count=param_count, verify=verify)

    def _find_ids_node(self, predicate: Predicate | None,
                       verify: bool) -> ir.PlanNode:
        if verify or predicate is None:
            source: ir.PlanNode = (
                ir.AllIds() if predicate is None
                else self.candidates(predicate)[0]
            )
            root: ir.PlanNode = ir.Decrypt(ir.FetchDocs(source, 64))
            if verify and predicate is not None:
                root = ir.Verify(root)
            return ir.ProjectIds(root)
        return self.candidates(predicate)[0]

    def compile_find_ids(self, predicate: Predicate | None, verify: bool,
                         param_count: int) -> ir.Plan:
        return ir.Plan(
            "find_ids", self._x.schema.name,
            self._find_ids_node(predicate, verify),
            param_count=param_count, verify=verify,
        )

    def compile_count(self, predicate: Predicate | None,
                      param_count: int) -> ir.Plan:
        x = self._x
        verify = x.verify_results
        if predicate is None:
            return ir.Plan("count", x.schema.name, ir.StoreCount())
        source, exact = self.candidates(predicate)
        if not verify or exact:
            # Decrypt-free fast path: every feeding index is exact, so
            # verification could only re-confirm membership — counting
            # the candidate ids is already the true cardinality.
            root: ir.PlanNode = ir.Count(source)
        else:
            root = ir.Count(ir.Verify(ir.Decrypt(ir.FetchDocs(source, 64))))
        return ir.Plan("count", x.schema.name, root,
                       param_count=param_count, verify=verify)

    def compile_aggregate(self, function: str, field: str,
                          where: Predicate | None,
                          param_count: int) -> ir.Plan:
        x = self._x
        role = f"agg:{function}"
        instance = x._role_instance(field, role)
        if instance is None:
            if function == "count":
                return ir.Plan(
                    "aggregate", x.schema.name,
                    self.compile_count(where, param_count).root,
                    param_count=param_count, verify=x.verify_results,
                )
            raise UnsupportedOperation(
                f"field {field!r} is not annotated for aggregate "
                f"{function!r}"
            )
        tactic = x.plans[field].roles[role]
        verify = x.verify_results
        if function in ("min", "max"):
            filter_node = (
                None if where is None
                else self._find_ids_node(where, verify)
            )
            root: ir.PlanNode = ir.Extreme(function, field, role, tactic,
                                           filter_node)
        else:
            source = (
                ir.AllIds() if where is None
                else self._find_ids_node(where, verify)
            )
            root = ir.CloudAggregate(function, field, role, tactic, source)
        return ir.Plan("aggregate", x.schema.name, root,
                       param_count=param_count, verify=verify)

    def compile_find_sorted(self, field: str, descending: bool,
                            has_limit: bool) -> ir.Plan:
        x = self._x
        instance = x._role_instance(field, "range")
        if instance is None:
            raise UnsupportedOperation(
                f"field {field!r} is not annotated for range/order "
                f"operations (op RG)"
            )
        scan = ir.OrderedScan(field, "range", x.plans[field].roles["range"],
                              descending)
        root: ir.PlanNode = ir.Decrypt(
            ir.FetchDocs(scan, 32, ordered=True)
        )
        if has_limit:
            root = ir.Limit(root)
        return ir.Plan("find_sorted", x.schema.name, root)

    # -- write operations ------------------------------------------------------

    def compile_write(self, op: str) -> ir.Plan:
        x = self._x
        fields = tuple(
            (field, tuple(x.plans[field].tactic_names))
            for field in sorted(x.plans)
        )
        maintain = ir.IndexMaintain(op, fields)
        if op == "insert":
            steps: tuple[ir.PlanNode, ...] = (
                maintain, ir.StoreWrite("insert_many")
            )
        elif op == "update":
            steps = (ir.ReadDoc(), maintain, ir.StoreWrite("replace"))
        else:
            steps = (ir.ReadDoc(), maintain, ir.StoreWrite("delete"))
        return ir.Plan(op, x.schema.name, ir.WritePipeline(op, steps))
