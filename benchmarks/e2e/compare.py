"""compare.py A.json B.json — did B regress against A?

Each file is a result set written by ``bench_e2e.py --repeats N``
(N >= 3 per workload).  One row per (metric, workload): median and
quartiles of both sides, the change in the metric's *worse* direction,
its bound and a verdict:

* ``same``       — B's median is within the bound of A's;
* ``better`` / ``worse`` — it moved past the bound;
* ``unresolved`` — the repeats spread wider than the bound and the two
  ranges overlap, so the data cannot tell (never reported as ``same``).

Bounds of the gated metrics come from ``BENCHMARK.json``; the per-class
latencies and ``failed_share`` carry the bounds below.  Share metrics
are bounded by absolute difference, everything else by the share of
A's median.  Exit 1 on any ``worse``, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_REPEATS = 3

#: Bounds of the detail metrics, by suffix: (bound, better).
DETAIL_BOUNDS = {
    # 15 %, not the issue's 10 %: wan_mix_open insert_p50_ms read 106.6
    # vs 92.4 ms (-13 %) between two sets of the same commit
    "_p50_ms": (0.15, "lower"),
    "_p90_ms": (0.10, "lower"),
    "_p95_ms": (0.10, "lower"),
    "failed_share": (0.02, "lower"),
}
#: Metrics whose bound is an absolute difference, not a share.
ABSOLUTE = frozenset({"ok_share", "slo_ok_share", "failed_share"})


def rules(spec: dict) -> dict[str, tuple[float, str]]:
    return {entry["name"]: (entry["bound"], entry["better"])
            for entry in spec["end_to_end"]}


def rule_for(name: str, gated: dict) -> tuple[float, str] | None:
    if name in gated:
        return gated[name]
    if "." in name:   # a layer's counter riding in the detail block
        return None
    for suffix, rule in DETAIL_BOUNDS.items():
        if name.endswith(suffix):
            return rule
    return None


def collect(result_set: dict) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the repeats' values (``n/a`` dropped)."""
    table: dict[str, dict[str, list[float]]] = {}
    for run in result_set["runs"]:
        row = table.setdefault(run["workload"], {})
        values = dict(run["detail"])
        values.update(run["metrics"])
        for name, value in values.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                row.setdefault(name, []).append(float(value))
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, median(values), q3


def verdict(a: list[float], b: list[float], bound: float, better: str,
            absolute: bool) -> tuple[str, float]:
    """(verdict, how much worse B's median is, in the bound's unit)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = quartiles(a)
    _, med_b, _ = quartiles(b)
    scale = 1.0 if absolute else abs(med_a) or 1.0
    worse_by = sign * (med_b - med_a) / scale
    spread = (q3 - q1) / scale
    if spread > bound:
        # Too noisy for the median rule: only disjoint ranges decide.
        bad_a = [sign * value for value in a]   # higher = worse
        bad_b = [sign * value for value in b]
        if min(bad_b) > max(bad_a):
            return "worse", worse_by
        if max(bad_b) < min(bad_a):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(a_set: dict, b_set: dict, spec: dict) -> list[dict]:
    gated = rules(spec)
    a_table, b_table = collect(a_set), collect(b_set)
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        a_row, b_row = a_table.get(workload), b_table.get(workload)
        if a_row is None or b_row is None:
            raise ValueError(f"workload {workload!r} missing from a set")
        a_runs = max(len(values) for values in a_row.values())
        b_runs = max(len(values) for values in b_row.values())
        if min(a_runs, b_runs) < MIN_REPEATS:
            raise ValueError(
                f"{workload}: needs >= {MIN_REPEATS} repeats per set, "
                f"got {a_runs} and {b_runs}")
        for name in sorted(set(a_row) & set(b_row)):
            rule = rule_for(name, gated)
            if rule is None:
                continue
            a, b = a_row[name], b_row[name]
            if len(a) < a_runs or len(b) < b_runs:
                continue   # n/a in some repeat: too few samples for it
            bound, better = rule
            outcome, worse_by = verdict(a, b, bound, better,
                                        name in ABSOLUTE)
            rows.append({
                "workload": workload, "metric": name,
                "a": quartiles(a), "b": quartiles(b),
                "worse_by": worse_by, "bound": bound,
                "absolute": name in ABSOLUTE, "verdict": outcome,
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<16}{'metric':<28}{'A med [q1, q3]':>34}"
             f"{'B med [q1, q3]':>34}{'worse by':>10}{'bound':>8}  verdict"]
    for row in rows:
        def cell(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        unit = "" if row["absolute"] else "%"
        factor = 1.0 if row["absolute"] else 100.0
        lines.append(
            f"{row['workload']:<16}{row['metric']:<28}"
            f"{cell(row['a']):>34}{cell(row['b']):>34}"
            f"{row['worse_by'] * factor:>9.2f}{unit or ' '}"
            f"{row['bound'] * factor:>7.2f}{unit or ' '}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    try:
        a_set, b_set = (json.loads(Path(path).read_text())
                        for path in argv)
        rows = compare(a_set, b_set, json.loads(SPEC_PATH.read_text()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    tally = {}
    for row in rows:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    print("\n" + ", ".join(f"{count} {name}"
                           for name, count in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


if __name__ == "__main__":
    raise SystemExit(main())
