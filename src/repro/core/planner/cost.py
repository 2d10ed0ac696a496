"""The planner's cost model: SPI priors blended with observed EWMAs.

Every tactic descriptor carries static *performance metrics* (Fig. 1):
a selection rank, protocol rounds per query, asymptotic notes.  Those
priors stand in before any traffic flows; once the engine has executed
plan nodes, the runtime's :class:`~repro.spi.metrics.CostObservatory`
holds per-(scope, operation, tactic) latency EWMAs that override the
priors.  The estimates feed ``explain()``; nothing routes on them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.planner import ir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import SchemaExecutor

#: Synthetic per-rank latency unit for tactics never observed yet; only
#: the *ordering* matters before real observations arrive.
_PRIOR_UNIT_MS = 1.0
#: Nominal cost of gateway-local set work and store round trips in the
#: same synthetic unit.
_STORE_MS = 1.0
_COMBINE_MS = 0.05
#: Nominal per-fetch surcharge when proof-on-fetch integrity is active:
#: a proof envelope per document plus the amortised ledger refresh.
_VERIFY_MS = 0.2
#: Nominal cost of serving a validated result-cache hit: one forced
#: freshness-ledger re-sync plus the gateway-local copy.
_RESULT_HIT_MS = 0.1


class CostModel:
    """Per-executor view over descriptor priors and observed latencies."""

    def __init__(self, executor: "SchemaExecutor"):
        self._executor = executor
        self._registry = executor.runtime.registry
        self._observatory = executor.runtime.cost

    # -- scopes ---------------------------------------------------------------

    def scope(self, field: str) -> str:
        return f"{self._executor.schema.name}.{field}"

    def _schema_scope(self) -> str:
        return self._executor.schema.name

    # -- per-tactic estimates -------------------------------------------------

    def prior_ms(self, tactic: str) -> float:
        descriptor = self._registry.descriptor(tactic)
        rounds = max(1, descriptor.performance.rounds_per_query)
        return _PRIOR_UNIT_MS * descriptor.performance.rank * rounds

    def observed_ms(self, scope: str, operation: str,
                    tactic: str) -> float | None:
        ewma = self._observatory.lookup(scope, operation, tactic)
        if ewma is None or ewma.observations == 0:
            return None
        return ewma.mean_ms

    def lookup_ms(self, scope: str, operation: str, tactic: str) -> float:
        observed = self.observed_ms(scope, operation, tactic)
        return self.prior_ms(tactic) if observed is None else observed

    # -- node estimates (EXPLAIN) ----------------------------------------------

    def estimate_ms(self, node: ir.PlanNode) -> float:
        """Estimated latency contribution of one node's subtree."""
        if isinstance(node, ir.IndexLookup):
            if node.tactic is None:
                return self._docs_ms("find_plain")
            return self.lookup_ms(self.scope(node.field), node.op,
                                  node.tactic)
        if isinstance(node, ir.BoolQuery):
            return self.lookup_ms(self._schema_scope() + "._bool", "bool",
                                  node.tactic)
        if isinstance(node, ir.AllIds):
            return self._docs_ms("all_ids")
        if isinstance(node, ir.StoreCount):
            return self._docs_ms("count")
        if isinstance(node, ir.SetOp):
            return _COMBINE_MS + sum(
                self.estimate_ms(part) for part in node.parts
            )
        if isinstance(node, ir.OrderedScan):
            return self.lookup_ms(self.scope(node.field), "ordered",
                                  node.tactic)
        if isinstance(node, ir.FetchDocs):
            return (self._docs_ms("get_many") + self.verify_surcharge_ms()
                    + self.estimate_ms(node.source))
        if isinstance(node, ir.Extreme):
            cost = self.lookup_ms(self.scope(node.field), "ordered",
                                  node.tactic) + self._docs_ms("get_many")
            if node.filter is not None:
                cost += self.estimate_ms(node.filter)
            return cost
        if isinstance(node, ir.CloudAggregate):
            return self.prior_ms(node.tactic) + self.estimate_ms(node.source)
        if isinstance(node, (ir.Decrypt, ir.Verify, ir.Limit,
                             ir.ProjectIds, ir.Count)):
            children = node.children()
            return _COMBINE_MS + sum(self.estimate_ms(c) for c in children)
        if isinstance(node, ir.WritePipeline):
            return sum(self.estimate_ms(step) for step in node.steps)
        if isinstance(node, ir.IndexMaintain):
            return sum(
                self.prior_ms(tactic)
                for _, tactics in node.fields
                for tactic in tactics
            )
        if isinstance(node, ir.ReadDoc):
            return _STORE_MS + self.verify_surcharge_ms()
        if isinstance(node, ir.StoreWrite):
            return _STORE_MS
        return _COMBINE_MS

    # -- result-cache hit probability ------------------------------------------

    def result_hit_probability(self, plan_key) -> float:
        """Learned validated-hit rate for one plan shape (0 when the
        result cache is off or the shape is unobserved)."""
        tier = getattr(self._executor.runtime, "cache_tier", None)
        if tier is None or tier.results is None:
            return 0.0
        observed = tier.shape_hit_probability(plan_key)
        return 0.0 if observed is None else observed

    def cached_estimate_ms(self, plan_key, node: ir.PlanNode) -> float:
        """Expected latency of one read shape under the result cache:
        the engine estimate weighted by the learned miss rate, plus the
        (cheap) validated-hit path weighted by the hit rate."""
        probability = self.result_hit_probability(plan_key)
        if probability <= 0.0:
            return self.estimate_ms(node)
        return ((1.0 - probability) * self.estimate_ms(node)
                + probability * _RESULT_HIT_MS)

    def verify_surcharge_ms(self) -> float:
        """Extra per-fetch cost of proof-on-fetch integrity (0 when the
        verifier is off, inactive, or in audit mode — audit verification
        runs off the hot path)."""
        verifier = getattr(self._executor.runtime, "verifier", None)
        if verifier is None or not verifier.active:
            return 0.0
        return _VERIFY_MS if verifier.config.mode == "fetch" else 0.0

    def _docs_ms(self, method: str) -> float:
        observed = self.observed_ms(self._schema_scope(), method, "docs")
        return _STORE_MS if observed is None else observed
