"""EXPLAIN rendering: a query plan with each tactic's static metrics.

``DataBlinder.explain`` compiles an operation to plan IR and renders it
here as an indented node tree.  A node served by a tactic carries what
that tactic's descriptor declares (Fig. 1): its leakage level and its
protocol rounds per query — SoK-style, so the query-time half of the
leakage budget is visible per plan, not just per field.  Nothing on a
node line depends on traffic; measured per-node time lives in
``planner_report()`` alone, which the write-plan crypto/wire footer
reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.config import PLAINTEXT_FLOOR
from repro.core.planner import ir

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import SchemaExecutor


def _static_metrics(executor: "SchemaExecutor", node: ir.PlanNode) -> str:
    # A co-located fetch rides its lookup's round and adds FetchDocs'
    # leakage: which ids the gateway reads.
    colocated = isinstance(node, ir.ColocatedFetch)
    tactic = node.lookup.tactic if colocated else getattr(node, "tactic",
                                                          None)
    if isinstance(tactic, str):
        descriptor = executor.runtime.registry.descriptor(tactic)
        rounds = descriptor.performance.rounds_per_query
        leaks = descriptor.leakage.level.label.lower()
        return (f"leaks {leaks}{' + identifiers' if colocated else ''}; "
                f"{rounds} round{'' if rounds == 1 else 's'}/query")
    if isinstance(node, ir.IndexLookup):  # plain-field lookup
        return "plaintext field"
    if isinstance(node, (ir.AllIds, ir.FetchDocs, ir.StoreCount)):
        return "leaks identifiers"  # which ids the gateway touches
    if isinstance(node, (ir.Decrypt, ir.Verify, ir.SetOp, ir.Limit,
                         ir.ProjectIds, ir.Count)):
        return "gateway-side"
    return ""


def render_plan(plan: ir.Plan, executor: "SchemaExecutor") -> str:
    """Multi-line EXPLAIN text for one compiled plan."""
    lines = [
        f"plan: {plan.operation} on {plan.schema}"
        f" (verify={'on' if plan.verify else 'off'},"
        f" params={plan.param_count})",
        "  Stack: " + " > ".join(executor.runtime.stack()),
    ]
    for node, depth in ir.walk(plan.root):
        detail = node.detail()
        metrics = _static_metrics(executor, node)
        lines.append("  " * (depth + 1) + node.kind
                     + (f"({detail})" if detail else "")
                     + (f"  [{metrics}]" if metrics else ""))
    lines.extend(_crypto_wire_footer(plan, executor))
    lines.extend(_integrity_footer(executor))
    lines.extend(_cache_footer(plan, executor))
    return "\n".join(lines)


def _cache_footer(plan: ir.Plan, executor: "SchemaExecutor") -> list[str]:
    """``Cache:`` lines when the runtime has a read-cache tier: the
    per-level state (entries and observed hit rate), the schema's
    leakage-admission verdict for the plaintext-bearing levels, and how
    cache hits were validated."""
    tier = executor.runtime.cache_tier
    if tier is None:
        return []
    snapshot = tier.snapshot()
    parts = []
    for level in ("tokens", "results", "documents"):
        stats = snapshot[level]
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
         f"(floor C{PLAINTEXT_FLOOR})"),
    ]
    coherence = snapshot["coherence"]
    validations = coherence["validations"]
    if validations["local"] or validations["resynced"]:
        lines.append(
            f"  Cache coherence: {validations['local']} validated locally, "
            f"{validations['resynced']} after a ledger re-sync, "
            f"{coherence['stamp_mismatches']} stamp mismatches"
        )
    return lines


def _integrity_footer(executor: "SchemaExecutor") -> list[str]:
    """One ``Integrity:`` line when the runtime has a verifier: every
    document fetch above is proof-checked once a registered schema
    carries a sensitive field."""
    verifier = executor.runtime.verifier
    if verifier is None:
        return []
    if not verifier.active:
        return ["  Integrity: configured, inactive "
                "(no registered sensitive field)"]
    return ["  Integrity: proof-on-fetch active"]


def _crypto_wire_footer(plan: ir.Plan,
                        executor: "SchemaExecutor") -> list[str]:
    """Observed crypto-vs-wire split for write plans.

    The bulk-insert loop records its two phases (and a per-kernel
    breakdown) as ``Crypto:*`` / ``Wire:*`` stat rows; for a write plan
    the EXPLAIN output surfaces them so an operator can see whether a
    slow ingest is compute- or network-bound.  Reads, and a schema that
    has not inserted yet, have no such rows and no footer.
    """
    if plan.operation not in ("insert", "update", "delete"):
        return []
    timings = executor.stats.snapshot()["node_timings"]
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
