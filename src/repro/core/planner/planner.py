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
forward).  Nothing in a plan depends on the untrusted zone's topology,
so a reshard leaves the cache alone.

An operation becomes a ``(key, compile thunk, bindings)`` triple in
exactly one place, :meth:`QueryPlanner._operation`; the live entry
points and EXPLAIN both read that table, so EXPLAIN prints the plan the
live call uses.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.cache.tier import MISS
from repro.core.planner.compile import PlanCompiler, parameterize
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
                f"{snap['invalidations']} invalidations"
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
        self.compiler = PlanCompiler(executor)
        self.stats = PlannerStats()
        self.engine = PlanEngine(executor, self.stats)
        self._cache: dict[Any, Plan] = {}
        self._lock = threading.Lock()

    # -- plan cache ------------------------------------------------------------

    def _plan(self, key: Any, build) -> Plan:
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
        self.stats.bump("invalidations",
                        predecessor.stats.snapshot()["invalidations"])

    def cached_plans(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- operations ------------------------------------------------------------

    def _operation(self, operation: str = "find",
                   predicate: Predicate | None = None,
                   verify: bool | None = None, limit: int | None = None,
                   field: str | None = None, function: str | None = None,
                   descending: bool = False
                   ) -> tuple[Any, Callable[[], Plan], list]:
        """The operation table: ``(plan-cache key, compile thunk,
        binding vector)`` for one operation.

        The only place an operation becomes a plan — the live entry
        points and ``explain_plan`` both read it, so EXPLAIN cannot
        print a plan the live call would not use.
        """
        compiler = self.compiler
        verify = self._x.verify_results if verify is None else verify
        bounded = limit is not None
        parameterized, values, shape = parameterize(predicate)
        slots = len(values)
        if operation == "find":
            key = ("find", shape, verify, bounded)
            build = partial(compiler.compile_find, parameterized, verify,
                            bounded, slots)
        elif operation == "find_ids":
            key = ("find_ids", shape, verify)
            build = partial(compiler.compile_find_ids, parameterized,
                            verify, slots)
        elif operation == "count":
            key = ("count", shape)
            build = partial(compiler.compile_count, parameterized, slots)
        elif operation == "aggregate":
            if function is None or field is None:
                raise ValueError("aggregate needs function= and field=")
            key = ("aggregate", function, field, shape)
            build = partial(compiler.compile_aggregate, function, field,
                            parameterized, slots)
        elif operation == "find_sorted":
            if field is None:
                raise ValueError("find_sorted needs field=")
            key = ("find_sorted", field, descending, bounded)
            build = partial(compiler.compile_find_sorted, field,
                            descending, bounded)
        elif operation in ("insert", "update", "delete"):
            key = ("write", operation)
            build = partial(compiler.compile_write, operation)
        else:
            raise ValueError(f"unknown operation {operation!r}")
        return key, build, values

    # The search-result cache composes with (not replaces) the plan
    # cache: the plan cache skips the compile, the result cache skips the
    # whole engine execution.  Keys are the plan-cache key plus the bound
    # parameter values (and the actual limit, which the plan key only
    # carries as a flag); coherence validation lives in the tier.
    # ``plaintext`` marks document-bearing results, which are subject to
    # leakage admission; id/count results always cache.

    def _read(self, execute: Callable[[Plan, Run], Any], plaintext: bool,
              operation: str, predicate: Predicate | None = None,
              limit: int | None = None, **spec: Any) -> Any:
        """Plan one read, then run it under the search-result cache."""
        key, build, values = self._operation(operation, predicate,
                                             limit=limit, **spec)
        plan = self._plan(key, build)

        def run() -> Any:
            self.stats.bump("executions")
            return execute(plan, Run(values, predicate, limit))

        tier = self._x.runtime.cache_tier
        schema = self._x.schema.name
        # A plaintext result on a schema the tier does not admit is never
        # stored, so don't take a fill token (after a write, a ledger
        # re-sync) for it.
        if tier is None or (plaintext and not tier.admits_plaintext(schema)):
            return run()
        extra = (limit, values)
        hit = tier.result_lookup(schema, key, extra, plaintext)
        if hit is not MISS:
            self.stats.bump("result_hits")
            return hit
        self.stats.bump("result_misses")
        fill_token = tier.result_fill_token(schema)
        result = run()
        tier.result_store(schema, key, extra, result, fill_token,
                          plaintext)
        return result

    def find(self, predicate: Predicate | None, verify: bool | None,
             limit: int | None) -> list[dict[str, Value]]:
        return self._read(self.engine.find, True, "find", predicate, limit,
                          verify=verify)

    def find_ids(self, predicate: Predicate | None,
                 verify: bool | None) -> set[str]:
        return self._read(self.engine.find_ids, False, "find_ids",
                          predicate, verify=verify)

    def count(self, predicate: Predicate | None) -> int:
        return self._read(self.engine.count, False, "count", predicate)

    def aggregate(self, query: AggregateQuery) -> Value:
        return self._read(
            self.engine.aggregate, True, "aggregate", query.where,
            field=query.field, function=query.function.value,
        )

    def find_sorted(self, field: str, limit: int | None,
                    descending: bool) -> list[dict[str, Value]]:
        return self._read(
            self.engine.find, True, "find_sorted", limit=limit, field=field,
            descending=descending,
        )

    def _write(self, operation: str) -> None:
        """Book one write: its plan (what EXPLAIN shows) and execution."""
        key, build, _ = self._operation(operation)
        self._plan(key, build)
        self.stats.bump("executions")

    def insert_bulk(self, documents: list[dict[str, Value]]) -> list[str]:
        self._write("insert")
        return self.engine.insert_bulk(documents)

    def update(self, doc_id: str, changes: dict[str, Value]) -> None:
        self._write("update")
        self.engine.update(doc_id, changes)

    def delete(self, doc_id: str) -> bool:
        self._write("delete")
        return self.engine.delete(doc_id)

    # -- EXPLAIN ---------------------------------------------------------------

    def explain_plan(self, **operation: Any) -> Plan:
        """Compile without executing, caching, or counting.

        EXPLAIN deliberately bypasses the cache in both directions: it
        never warms it (a later query still records its true miss) and
        never reads it (the rendered plan reflects the current compiler
        output).  Takes the keywords of
        :meth:`_operation`.
        """
        _, build, _ = self._operation(**operation)
        return build()

    def explain(self, **operation: Any) -> str:
        from repro.analysis.planview import render_plan

        return render_plan(self.explain_plan(**operation), self)
