"""EXPLAIN rendering: a query plan with per-node cost and leakage.

``DataBlinder.explain`` compiles an operation to plan IR and renders it
here as an indented node tree.  Each node line carries the cost model's
estimate (descriptor priors blended with observed latency EWMAs —
``~`` marks a value backed by real observations) and, for nodes that
touch an encrypted index, the leakage level the serving tactic admits —
making the query-time half of the leakage budget visible per plan, not
just per field.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.planner import ir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.planner.planner import QueryPlanner


def _node_tactic(node: ir.PlanNode) -> str | None:
    tactic = getattr(node, "tactic", None)
    return tactic if isinstance(tactic, str) else None


def _leakage(planner: "QueryPlanner", node: ir.PlanNode) -> str:
    registry = planner.engine._x.runtime.registry
    tactic = _node_tactic(node)
    if tactic is not None:
        descriptor = registry.descriptor(tactic)
        return f"leaks {descriptor.leakage.level.label.lower()}"
    if isinstance(node, ir.IndexLookup):  # plain-field lookup
        return "plaintext field"
    if isinstance(node, (ir.AllIds, ir.FetchDocs, ir.StoreCount)):
        return "leaks identifiers"  # which ids the gateway touches
    if isinstance(node, (ir.Decrypt, ir.Verify, ir.SetOp, ir.Limit,
                         ir.ProjectIds, ir.Count)):
        return "gateway-side"
    return ""


def _observed(planner: "QueryPlanner", node: ir.PlanNode) -> bool:
    cost = planner.cost_model
    if isinstance(node, ir.IndexLookup) and node.tactic is not None:
        return cost.observed_ms(
            cost.scope(node.field), node.op, node.tactic
        ) is not None
    if isinstance(node, ir.BoolQuery):
        return cost.observed_ms(
            planner.engine._x._bool_scope(), "bool", node.tactic
        ) is not None
    return False


def render_plan(plan: ir.Plan, planner: "QueryPlanner",
                plan_key=None) -> str:
    """Multi-line EXPLAIN text for one compiled plan."""
    cost = planner.cost_model
    header = (
        f"plan: {plan.operation} on {plan.schema}"
        f" (verify={'on' if plan.verify else 'off'},"
        f" params={plan.param_count},"
        f" est {cost.estimate_ms(plan.root):.2f} ms)"
    )
    stack = planner.engine._x.runtime.stack()
    lines = [header, "  Stack: " + " > ".join(stack)]
    for node, depth in ir.walk(plan.root):
        detail = node.detail()
        label = node.kind + (f"({detail})" if detail else "")
        estimate = cost.estimate_ms(node)
        marker = "~" if _observed(planner, node) else ""
        leakage = _leakage(planner, node)
        suffix = f"  [cost {marker}{estimate:.2f} ms"
        if leakage:
            suffix += f"; {leakage}"
        suffix += "]"
        lines.append("  " * (depth + 1) + label + suffix)
    lines.extend(_crypto_wire_footer(plan, planner))
    lines.extend(_integrity_footer(planner))
    lines.extend(_cache_footer(plan, planner, plan_key))
    return "\n".join(lines)


def _cache_footer(plan: ir.Plan, planner: "QueryPlanner",
                  plan_key) -> list[str]:
    """``Cache:`` lines when the runtime has a read-cache tier.

    Surfaces the per-level state (entries and observed hit rate), the
    schema's leakage-admission verdict for the plaintext-bearing levels,
    and — once the shape has traffic — the learned hit probability with
    the effective (hit-weighted) cost estimate the operator should
    expect instead of the cold estimate in the header.
    """
    runtime = planner.engine._x.runtime
    tier = getattr(runtime, "cache_tier", None)
    if tier is None:
        return []
    snapshot = tier.snapshot()
    parts = []
    for level in ("tokens", "results", "documents"):
        stats = snapshot[level]
        enabled = getattr(tier.config, level)
        if not enabled or stats is None:
            parts.append(f"{level} off")
            continue
        hits = stats.get("hits", 0)
        misses = stats.get("misses", 0)
        total = hits + misses
        rate = f"{hits / total:.0%} hits" if total else "no traffic"
        parts.append(f"{level} on ({stats.get('entries', 0)} entries, "
                     f"{rate})")
    admitted = tier.admits_plaintext(plan.schema)
    lines = [
        "  Cache: " + ", ".join(parts),
        (f"  Cache admission: plaintext levels "
         f"{'admitted' if admitted else 'refused'} for {plan.schema} "
         f"(floor C{tier.config.plaintext_floor()})"),
    ]
    coherence = snapshot["coherence"]
    validations = coherence["validations"]
    if validations["local"] or validations["resynced"]:
        lines.append(
            f"  Cache coherence: {validations['local']} validated locally, "
            f"{validations['resynced']} after a ledger re-sync, "
            f"{coherence['stamp_mismatches']} stamp mismatches"
        )
    if plan_key is not None:
        probability = planner.cost_model.result_hit_probability(plan_key)
        if probability > 0.0:
            effective = planner.cost_model.cached_estimate_ms(
                plan_key, plan.root
            )
            lines.append(
                f"  Cache hit probability (this shape): "
                f"{probability:.0%} -> est {effective:.2f} ms effective"
            )
    return lines


def _integrity_footer(planner: "QueryPlanner") -> list[str]:
    """One ``Integrity:`` line when the runtime has a verifier.

    Surfaces which verification mode the plans run under and, for
    proof-on-fetch, the per-fetch surcharge the cost estimates above
    already include — so an operator reading EXPLAIN sees why a fetch
    node got more expensive after integrity was switched on.
    """
    runtime = planner.engine._x.runtime
    verifier = getattr(runtime, "verifier", None)
    if verifier is None:
        return []
    config = verifier.config
    if not verifier.active:
        return [f"  Integrity: {config.mode} configured, inactive "
                "(no registered sensitive field)"]
    if config.mode == "fetch":
        surcharge = planner.cost_model.verify_surcharge_ms()
        return [f"  Integrity: proof-on-fetch active "
                f"(+{surcharge:.2f} ms/fetch)"]
    return ["  Integrity: audit-pass active "
            "(verification runs off the query path)"]


def _crypto_wire_footer(plan: ir.Plan, planner: "QueryPlanner") -> list[str]:
    """Observed crypto-vs-wire split for write plans.

    The bulk-insert loop records its two phases (and a per-kernel
    breakdown) as ``Crypto:*`` / ``Wire:*`` stat rows; for a write plan
    the EXPLAIN output surfaces them so an operator can see whether a
    slow ingest is compute- or network-bound.  Reads, and a schema that
    has not inserted yet, have no such rows and no footer.
    """
    if plan.operation not in ("insert", "update", "delete"):
        return []
    timings = planner.stats.snapshot()["node_timings"]
    rows = [
        (kind, cost) for kind, cost in timings.items()
        if kind.startswith(("Crypto:", "Wire:"))
    ]
    if not rows:
        return []
    lines = ["  observed crypto/wire split:"]
    for kind, cost in rows:
        mean_ms = (
            1000.0 * cost["seconds"] / cost["calls"] if cost["calls"]
            else 0.0
        )
        lines.append(
            f"    {kind:<24}{cost['calls']:>7} calls"
            f"  {mean_ms:>9.3f} ms/call"
        )
    return lines
