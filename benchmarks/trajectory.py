"""Merge every ``BENCH_*.json`` artifact into one perf-trajectory table.

Each subsystem benchmark writes its acceptance numbers to a JSON file at
the repo root; this script folds them into a single markdown table — one
row per optimisation, baseline vs optimised vs headline factor — so the
README can show the repo's performance trajectory without anyone
hand-copying numbers.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py            # print table
    PYTHONPATH=src python benchmarks/trajectory.py --write    # refresh README

``--write`` replaces the block between the ``<!-- trajectory:begin -->``
/ ``<!-- trajectory:end -->`` markers in ``README.md`` (appending the
section if the markers are missing).  Artifacts that have not been
generated yet are simply skipped, so a partial checkout still renders.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BEGIN = "<!-- trajectory:begin -->"
END = "<!-- trajectory:end -->"


def _load(name: str) -> dict | None:
    path = ROOT / name
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _fmt(value: float, unit: str = "") -> str:
    text = f"{value:,.1f}" if value < 1000 else f"{value:,.0f}"
    return f"{text}{unit}"


def rows() -> list[tuple[str, str, str, str, str]]:
    """(optimisation, benchmark, baseline, optimised, headline)."""
    out = []

    data = _load("BENCH_batching.json")
    if data:
        t = data["throughput_ops_per_s"]
        out.append((
            "batched RPC + fan-out + prefetch", "bench_batching.py",
            _fmt(t["baseline"], " ops/s"), _fmt(t["pipelined"], " ops/s"),
            f"{t['speedup']:.1f}x mixed workload",
        ))
        meter = data.get("metering_overhead")
        if meter:
            out.append((
                "per-tactic metering counted at the source",
                "bench_batching.py",
                _fmt(meter["unmetered_ms_median"], " ms, sink detached"),
                _fmt(meter["metered_ms_median"], " ms, sink attached"),
                f"{meter['ratio_median']:.2f}x median of {meter['pairs']} "
                "paired 50-document inserts (gate 1.03x)",
            ))

    data = _load("BENCH_planner.json")
    if data:
        cache = data["plan_cache"]
        out.append((
            "query planner: shape-keyed plan cache", "bench_planner.py",
            _fmt(data["compile_overhead_us"]["mean"], " us/compile"),
            f"{cache['misses']} compiles / {cache['queries']} queries",
            f"{100 * cache['hit_rate']:.0f}% plan-cache hits over "
            f"{cache['shapes']} shapes",
        ))

    data = _load("BENCH_crypto.json")
    if data:
        grid = data["insert_many"]["grid"]
        out.append((
            "crypto kernels: precompute",
            "bench_crypto.py",
            _fmt(grid["baseline"]["insert_docs_per_s"], " docs/s"),
            _fmt(grid["precompute"]["insert_docs_per_s"], " docs/s"),
            f"{data['insert_many']['speedup_precompute_vs_baseline']:.1f}x "
            "protected inserts",
        ))

    data = _load("BENCH_sharding.json")
    if data:
        fanout = data["fanout_at_8_shards"]
        out.append((
            "sharded zone: parallel scatter/gather", "bench_sharding.py",
            _fmt(fanout["sequential_search_ops_per_s"], " ops/s"),
            _fmt(fanout["parallel_search_ops_per_s"], " ops/s"),
            f"{fanout['speedup']:.1f}x searches at 8 shards",
        ))
        keyed = data.get("keyed_scatter")
        if keyed:
            scaling = keyed["scaling"]
            out.append((
                "sharded zone: overlapped keyed scatter (get_many, "
                "filtered aggregate)", "bench_sharding.py",
                _fmt(scaling["1"]["find_ops_per_s"], " ops/s, 1 shard"),
                _fmt(scaling["8"]["find_ops_per_s"], " ops/s, 8 shards"),
                f"fetching find keeps {keyed['find_ratio_8_vs_1']:.2f}x "
                "of its 1-shard rate at 8 shards (filtered average "
                f"{keyed['average_ratio_8_vs_1']:.2f}x)",
            ))
        cost = data.get("replication_cost")
        if cost:
            out.append((
                "sharded zone: a write waits for every replica",
                "bench_sharding.py",
                _fmt(cost["replication1"]["median_insert_ops_per_s"],
                     " ops/s, replication=1"),
                _fmt(cost["replication2"]["median_insert_ops_per_s"],
                     " ops/s, replication=2"),
                f"{cost['ratio']:.2f}x median of {cost['rounds']} "
                f"alternating rounds, {cost['inserts_per_leg']} inserts "
                "per leg (gate 0.90x)",
            ))

    data = _load("BENCH_gateway.json")
    if data:
        scales = data["scales"]
        top = max(scales, key=int)
        row = scales[top]
        out.append((
            "async gateway runtime", "bench_gateway.py",
            _fmt(row["threadpool"]["throughput_ops_s"], " ops/s"),
            _fmt(row["async_native"]["throughput_ops_s"], " ops/s"),
            f"{row['speedup_async_vs_threadpool']:.1f}x at "
            f"{top} concurrent clients",
        ))

    data = _load("BENCH_integrity.json")
    if data:
        overhead = data["overhead_pct"]
        out.append((
            "integrity: proof-on-fetch verification",
            "bench_integrity.py",
            _fmt(data["modes"]["off"]["throughput_ops_s"], " ops/s"),
            _fmt(data["modes"]["fetch"]["throughput_ops_s"], " ops/s"),
            f"+{overhead['fetch']:.1f}% for 100% tamper/rollback "
            "detection",
        ))

        merkle = data.get("merkle")
        if merkle:
            top = merkle[max(merkle, key=int)]
            out.append((
                "integrity: O(log n) Merkle upkeep (update + root)",
                "bench_integrity.py",
                _fmt(top["build_ms"], " ms rebuild"),
                f"{top['update_root_ms']:.3f} ms",
                f"{top['build_over_update_root']:.0f}x at "
                f"{top['leaves']} leaves (median of {top['trials']} "
                f"paired trials), proof {top['proof_ms']:.3f} ms",
            ))

    data = _load("BENCH_cache.json")
    if data:
        hot = data["hot_read"]
        coherence = data["coherence"]
        validations = coherence["validations"]
        out.append((
            "gateway read-cache tier", "bench_cache.py",
            _fmt(hot["uncached"]["throughput_ops_s"], " ops/s"),
            _fmt(hot["cached"]["throughput_ops_s"], " ops/s"),
            f"{hot['speedup']:.1f}x Zipf hot reads, "
            f"{coherence['stale_reads']} stale reads with a "
            f"concurrent writer ({validations['local']} of "
            f"{validations['local'] + validations['resynced']} hit "
            "validations local)",
        ))

    return out


def render() -> str:
    lines = [
        "| optimisation | benchmark | baseline | optimised | headline |",
        "|---|---|---|---|---|",
    ]
    for name, bench, base, optimised, headline in rows():
        lines.append(
            f"| {name} | `{bench}` | {base} | {optimised} "
            f"| {headline} |"
        )
    return "\n".join(lines)


def write_readme(table: str) -> None:
    text = README.read_text()
    block = (
        f"{BEGIN}\n"
        "All numbers regenerate from `BENCH_*.json` via "
        "`python benchmarks/trajectory.py --write` — WAN legs model the "
        "paper's 40 ms one-way link.\n\n"
        f"{table}\n{END}"
    )
    if BEGIN in text and END in text:
        head, rest = text.split(BEGIN, 1)
        _, tail = rest.split(END, 1)
        text = head + block + tail
    else:
        section = f"\n## Performance trajectory\n\n{block}\n"
        marker = "\n## Security notes"
        if marker in text:
            text = text.replace(marker, section + marker, 1)
        else:
            text = text.rstrip() + "\n" + section
    README.write_text(text)


def main(argv: list[str]) -> int:
    table = render()
    print(table)
    if "--write" in argv:
        write_readme(table)
        print(f"\nREADME refreshed: {README}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
