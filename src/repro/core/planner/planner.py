"""QueryPlanner: the compile -> execute façade.

One planner per :class:`~repro.core.executor.SchemaExecutor`.  It owns
the plan cache — compiled plans keyed by ``(operation, predicate
shape, flags)``, where the shape comes from
:func:`~repro.core.planner.compile.parameterize` — and the
:class:`PlannerStats` counters the acceptance tests and
``DataBlinder.planner_report`` read.  The cache is pure gateway-side
memoisation: values are bound at execution time, so a hit performs the
same RPCs a fresh compile would.  ``migrate_schema`` invalidates it
(the new executor starts with an empty cache and carries the counter
forward).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.core.planner.compile import PlanCompiler, parameterize
from repro.core.planner.cost import CostModel
from repro.core.planner.engine import PlanEngine, Run
from repro.core.planner.ir import Plan
from repro.core.query import AggregateQuery, Predicate
from repro.crypto.encoding import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import SchemaExecutor


class PlannerStats:
    """Thread-safe planner counters and per-node-kind timings."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.compiles = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidations = 0
        #: Cache drops caused by an untrusted-zone membership change
        #: (the transport's topology epoch moved).
        self.topology_invalidations = 0
        self.executions = 0
        #: Search-result cache traffic (only counted when the cache
        #: tier's result level is on): validated hits vs executions
        #: that went to the engine.
        self.result_hits = 0
        self.result_misses = 0
        #: node-kind (e.g. ``"IndexLookup:det"``) -> [calls, seconds]
        self.node_timings: dict[str, list] = {}

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def record_node(self, kind: str, seconds: float) -> None:
        with self._lock:
            entry = self.node_timings.setdefault(kind, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "compiles": self.compiles,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "invalidations": self.invalidations,
                "topology_invalidations": self.topology_invalidations,
                "executions": self.executions,
                "result_hits": self.result_hits,
                "result_misses": self.result_misses,
                "node_timings": {
                    kind: {"calls": calls, "seconds": seconds}
                    for kind, (calls, seconds) in sorted(
                        self.node_timings.items()
                    )
                },
            }

    def render(self) -> str:
        snap = self.snapshot()
        lines = [
            "Query planner statistics",
            (
                f"  plans: {snap['compiles']} compiled, "
                f"{snap['cache_hits']} cache hits, "
                f"{snap['cache_misses']} misses, "
                f"{snap['invalidations']} invalidations "
                f"({snap['topology_invalidations']} topology)"
            ),
            f"  executions: {snap['executions']}",
        ]
        if snap["result_hits"] or snap["result_misses"]:
            lines.append(
                f"  result cache: {snap['result_hits']} hits, "
                f"{snap['result_misses']} misses"
            )
        if snap["node_timings"]:
            lines.append("  node timings:")
            for kind, cost in snap["node_timings"].items():
                mean_ms = (
                    1000.0 * cost["seconds"] / cost["calls"]
                    if cost["calls"] else 0.0
                )
                lines.append(
                    f"    {kind:<24}{cost['calls']:>7} calls"
                    f"{mean_ms:>10.2f} ms mean"
                )
        return "\n".join(lines)


class QueryPlanner:
    """Plans, caches and executes one executor's operations."""

    def __init__(self, executor: "SchemaExecutor"):
        self._x = executor
        self.cost_model = CostModel(executor)
        self.compiler = PlanCompiler(executor)
        self.stats = PlannerStats()
        self.engine = PlanEngine(executor, self.stats)
        self._cache: dict[Any, Plan] = {}
        self._lock = threading.Lock()
        self._epoch = executor.runtime.topology_epoch()

    # -- plan cache ------------------------------------------------------------

    def _check_topology(self) -> None:
        """Drop cached plans when the untrusted zone changed shape.

        Plans are shape-keyed, not topology-keyed: a plan compiled
        against a 2-node ring is structurally valid on 3 nodes, but its
        cost estimates are stale — and tests want a crisp signal that membership changes were noticed.
        """
        epoch = self._x.runtime.topology_epoch()
        if epoch == self._epoch:
            return
        with self._lock:
            if epoch == self._epoch:
                return
            self._cache.clear()
            self._epoch = epoch
        self.stats.bump("topology_invalidations")
        self.stats.bump("invalidations")

    def _plan(self, key: Any, build) -> Plan:
        self._check_topology()
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            self.stats.bump("cache_hits")
            return cached
        self.stats.bump("cache_misses")
        self.stats.bump("compiles")
        plan = build()
        with self._lock:
            self._cache[key] = plan
        return plan

    def invalidate(self) -> None:
        """Drop every cached plan (schema migration / registry change)."""
        with self._lock:
            self._cache.clear()
        self.stats.bump("invalidations")

    def absorb(self, predecessor: "QueryPlanner") -> None:
        """Carry a migrated-away executor's counters into this planner."""
        predecessor.invalidate()
        snap = predecessor.stats.snapshot()
        self.stats.bump("invalidations", snap["invalidations"])
        self.stats.bump("topology_invalidations",
                        snap["topology_invalidations"])

    def cached_plans(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- search-result cache -----------------------------------------------------
    #
    # Composes with (not replaces) the plan cache: the plan cache skips
    # the compile, the result cache skips the whole engine execution.
    # Keys are the plan-cache key plus the bound parameter values (and
    # the actual limit, which the plan key only carries as a flag);
    # coherence validation lives in the tier.  ``plaintext`` marks
    # document-bearing results, which are subject to leakage admission;
    # id/count results always cache.

    def _cached_read(self, key: Any, extra: Any, plaintext: bool,
                     execute):
        tier = self._x.runtime.cache_tier
        schema = self._x.schema.name
        # A plaintext result on a schema the tier does not admit is never
        # stored, so don't pay a ledger re-sync for its fill token.
        if tier is None or tier.results is None or (
            plaintext and not tier.admits_plaintext(schema)
        ):
            return execute()
        hit = tier.result_lookup(schema, key, extra, plaintext)
        from repro.cache.tier import MISS

        if hit is not MISS:
            self.stats.bump("result_hits")
            return hit
        self.stats.bump("result_misses")
        fill_token = tier.result_fill_token(schema)
        result = execute()
        tier.result_store(schema, key, extra, result, fill_token,
                          plaintext)
        return result

    # -- operations ------------------------------------------------------------

    def find(self, predicate: Predicate | None, verify: bool | None,
             limit: int | None) -> list[dict[str, Value]]:
        verify = self._x.verify_results if verify is None else verify
        parameterized, values, shape = parameterize(predicate)
        key = ("find", shape, verify, limit is not None)
        plan = self._plan(
            key,
            lambda: self.compiler.compile_find(
                parameterized, verify, limit is not None, len(values)
            ),
        )

        def execute() -> list[dict[str, Value]]:
            self.stats.bump("executions")
            return self.engine.find(plan, Run(values, predicate), limit)

        return self._cached_read(key, (limit, values), True, execute)

    def find_ids(self, predicate: Predicate | None,
                 verify: bool | None) -> set[str]:
        verify = self._x.verify_results if verify is None else verify
        parameterized, values, shape = parameterize(predicate)
        key = ("find_ids", shape, verify)
        plan = self._plan(
            key,
            lambda: self.compiler.compile_find_ids(
                parameterized, verify, len(values)
            ),
        )

        def execute() -> set[str]:
            self.stats.bump("executions")
            return self.engine.find_ids(plan, Run(values, predicate))

        return self._cached_read(key, (values,), False, execute)

    def count(self, predicate: Predicate | None) -> int:
        parameterized, values, shape = parameterize(predicate)
        key = ("count", shape)
        plan = self._plan(
            key,
            lambda: self.compiler.compile_count(parameterized, len(values)),
        )

        def execute() -> int:
            self.stats.bump("executions")
            return self.engine.count(plan, Run(values, predicate))

        return self._cached_read(key, (values,), False, execute)

    def aggregate(self, query: AggregateQuery) -> Value:
        parameterized, values, shape = parameterize(query.where)
        key = ("aggregate", query.function.value, query.field, shape)
        plan = self._plan(
            key,
            lambda: self.compiler.compile_aggregate(
                query.function.value, query.field, parameterized,
                len(values),
            ),
        )

        def execute() -> Value:
            self.stats.bump("executions")
            return self.engine.aggregate(plan, Run(values, query.where))

        return self._cached_read(key, (values,), True, execute)

    def find_sorted(self, field: str, limit: int | None,
                    descending: bool) -> list[dict[str, Value]]:
        key = ("find_sorted", field, descending, limit is not None)
        plan = self._plan(
            key,
            lambda: self.compiler.compile_find_sorted(
                field, descending, limit is not None
            ),
        )

        def execute() -> list[dict[str, Value]]:
            self.stats.bump("executions")
            return self.engine.find(plan, Run([], None), limit)

        return self._cached_read(key, (limit,), True, execute)

    def insert_bulk(self, documents: list[dict[str, Value]]) -> list[str]:
        plan = self._plan(
            ("write", "insert"),
            lambda: self.compiler.compile_write("insert"),
        )
        self.stats.bump("executions")
        return self.engine.insert_bulk(plan, documents)

    def update(self, doc_id: str, changes: dict[str, Value]) -> None:
        plan = self._plan(
            ("write", "update"),
            lambda: self.compiler.compile_write("update"),
        )
        self.stats.bump("executions")
        self.engine.update(plan, doc_id, changes)

    def delete(self, doc_id: str) -> bool:
        plan = self._plan(
            ("write", "delete"),
            lambda: self.compiler.compile_write("delete"),
        )
        self.stats.bump("executions")
        return self.engine.delete(plan, doc_id)

    # -- EXPLAIN ---------------------------------------------------------------

    def explain_plan(self, operation: str = "find",
                     predicate: Predicate | None = None,
                     verify: bool | None = None,
                     limit: int | None = None,
                     field: str | None = None,
                     function: str | None = None,
                     descending: bool = False) -> Plan:
        """Compile without executing, caching, or counting.

        EXPLAIN deliberately bypasses the cache in both directions: it
        never warms it (a later query still records its true miss) and
        never reads it (the rendered plan reflects the current compiler
        output and cost estimates).
        """
        verify = self._x.verify_results if verify is None else verify
        parameterized, values, _ = parameterize(predicate)
        if operation == "find":
            plan = self.compiler.compile_find(
                parameterized, verify, limit is not None, len(values)
            )
        elif operation == "find_ids":
            plan = self.compiler.compile_find_ids(
                parameterized, verify, len(values)
            )
        elif operation == "count":
            plan = self.compiler.compile_count(parameterized, len(values))
        elif operation == "aggregate":
            if function is None or field is None:
                raise ValueError(
                    "aggregate explain needs function= and field="
                )
            plan = self.compiler.compile_aggregate(
                function, field, parameterized, len(values)
            )
        elif operation == "find_sorted":
            if field is None:
                raise ValueError("find_sorted explain needs field=")
            plan = self.compiler.compile_find_sorted(
                field, descending, limit is not None
            )
        elif operation in ("insert", "update", "delete"):
            plan = self.compiler.compile_write(operation)
        else:
            raise ValueError(f"cannot explain operation {operation!r}")
        return plan

    def _operation_key(self, operation: str = "find",
                       predicate: Predicate | None = None,
                       verify: bool | None = None,
                       limit: int | None = None,
                       field: str | None = None,
                       function: str | None = None,
                       descending: bool = False) -> Any:
        """The plan-cache key the live entry point would use — lets
        EXPLAIN surface the result cache's learned hit probability for
        the same shape without touching either cache.  ``None`` for
        writes (never result-cached)."""
        verify = self._x.verify_results if verify is None else verify
        _, _, shape = parameterize(predicate)
        if operation == "find":
            return ("find", shape, verify, limit is not None)
        if operation == "find_ids":
            return ("find_ids", shape, verify)
        if operation == "count":
            return ("count", shape)
        if operation == "aggregate":
            return ("aggregate", function, field, shape)
        if operation == "find_sorted":
            return ("find_sorted", field, descending, limit is not None)
        return None

    def explain(self, **kwargs: Any) -> str:
        from repro.analysis.planview import render_plan

        return render_plan(self.explain_plan(**kwargs), self,
                           plan_key=self._operation_key(**kwargs))
