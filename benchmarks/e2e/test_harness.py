"""Self-tests of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from e2e import compare, metrics, runner, trace, workloads
from e2e.workloads import Op

HERE = Path(__file__).resolve().parent


# -- generated inputs ----------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_ops_other_seed_other_ops(name):
    first = workloads.generate(name, 7, 2.0).digest()
    assert workloads.generate(name, 7, 2.0).digest() == first
    assert workloads.generate(name, 8, 2.0).digest() != first


def test_mix_cohorts_are_disjoint_and_share_the_corpus():
    wan = workloads.generate("wan_mix_open", 7, 2.0)
    cpu = workloads.generate("cpu_mix_closed", 7, 2.0)
    assert wan.corpus == cpu.corpus
    assert not wan.read_subjects & wan.write_subjects
    for op in wan.ops:
        if op.kind == "insert":
            assert op.docs[0]["subject"] in wan.write_subjects
        elif op.kind == "avg":
            assert op.where[1] in wan.read_subjects


def test_open_mix_keeps_inserts_and_finds_in_separate_phases():
    wan = workloads.generate("wan_mix_open", 7, 6.0)
    classes = [{op.cls for op in wan.ops if op.phase == phase}
               for phase in (0, 1)]
    assert classes == [{"insert", "aggregate"}, {"find", "aggregate"}]
    counts = {cls: sum(op.cls == cls for op in wan.ops)
              for cls in ("insert", "find", "aggregate")}
    assert counts == {"insert": 20, "find": 20, "aggregate": 20}
    assert [op.phase for op in wan.ops] == sorted(op.phase for op in wan.ops)
    overlap = workloads.open_mix_at(10.0, 7, 6.0, phased=False)
    assert {op.phase for op in overlap.ops} == {0}


# -- percentile rule -------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.tail(list(range(199)), 0.95) is None
    assert metrics.tail(list(range(200)), 0.95) == pytest.approx(189.05)
    assert metrics.tail(list(range(99)), 0.90) is None
    assert metrics.highest_tail(list(range(120)))[0] == 0.90
    assert metrics.highest_tail(list(range(30)))[0] == 0.50


def test_failed_ops_miss_the_slo_and_leave_the_percentiles():
    outcomes = [runner.Outcome("find", "find_eq", 0.0, end=0.010)
                for _ in range(8)]
    outcomes.append(runner.Outcome("find", "find_eq", 0.0, end=5.0,
                                   error="StaleStateError"))
    outcomes.append(runner.Outcome("find", "find_eq", 0.0, end=2.0))
    gated, detail = metrics.summarise(outcomes, 0.5, 7.0)
    assert gated["ok_share"] == pytest.approx(0.9)
    assert gated["slo_ok_share"] == pytest.approx(0.8)
    assert detail["find_n"] == 9 and detail["n_attempted"] == 10
    assert detail["find_p95_ms"] is None
    assert detail["errors"] == {"StaleStateError": 1}


# -- span arithmetic -------------------------------------------------------------


def _span(tracer, op, layer, start, end, parent=None):
    tracer._next += 1
    span = trace.Span(tracer._next, op, layer, layer, start, parent, 0)
    span.end = end
    tracer.spans.append(span)
    return span


def _rooted(tracer, start, end, cls="find"):
    root = _span(tracer, len(tracer.roots), "core", start, end)
    root.name, root.note = cls, {}
    tracer.roots.append(root)
    return root


def test_self_time_with_overlapping_children_follows_the_last_finisher():
    tracer = trace.Tracer()
    root = _rooted(tracer, 0.0, 10.0)
    router = _span(tracer, 0, "shard.router", 1.0, 9.5, root)
    early = _span(tracer, 0, "net.wire_wait", 1.0, 1.8, router)
    fast = _span(tracer, 0, "net.wire_wait", 2.0, 5.0, router)  # parallel
    slow = _span(tracer, 0, "net.wire_wait", 2.5, 9.0, router)
    assert trace.critical_children([early, fast, slow]) == [slow, early]
    own = {s.sid: t for s, t, _ in trace.self_times(tracer.spans, root)}
    assert own[root.sid] == pytest.approx(1.5)
    assert own[router.sid] == pytest.approx(8.5 - 6.5 - 0.8)
    assert fast.sid not in own          # off the critical path
    table = trace.budget(tracer)["find"]
    assert table["sum_ms"] == pytest.approx(table["wall_ms"])
    assert table["round_trips"] == 2


def test_orphan_is_adopted_by_the_innermost_outer_layer_span():
    tracer = trace.Tracer()
    root = _rooted(tracer, 0.0, 1.0)
    router = _span(tracer, 0, "shard.router", 0.1, 0.9, root)
    sibling = _span(tracer, 0, "net.wire_wait", 0.2, 0.8, router)
    orphan = _span(tracer, 0, "net.wire_wait", 0.3, 0.7)  # pool thread
    trace.adopt_orphans(tracer.spans, root)
    assert orphan.parent is router and orphan.parent is not sibling


def test_budget_fails_when_a_span_leaks_past_its_parent():
    tracer = trace.Tracer()
    root = _rooted(tracer, 0.0, 1.0)
    _span(tracer, 0, "net.stack", 0.5, 2.0, root)   # outlives the op
    with pytest.raises(trace.BudgetError):
        trace.budget(tracer)


def test_proxy_records_nested_spans_and_skips_reentry():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer, low, high = trace.Tracer(), Layer(), Layer()
    tracer.wrap(low, "outer", "shard.router")
    tracer.wrap(low, "inner", "shard.router")
    high.inner = low.outer          # high.outer -> low.outer -> low.inner
    tracer.wrap(high, "outer", "net.stack")
    assert high.outer() == 3        # no op in flight: nothing recorded
    assert not tracer.spans
    with tracer.op(0, "find"):
        assert high.outer() == 3
    layers = sorted(s.layer for s in tracer.spans)
    assert layers == ["core", "net.stack", "shard.router"]
    router = next(s for s in tracer.spans if s.layer == "shard.router")
    assert router.parent.layer == "net.stack"


# -- open loop -------------------------------------------------------------------


def test_open_loop_latency_runs_from_the_due_time():
    """A stall that delays the generator is charged to every later op."""
    ops = [Op("find_eq", "find", due=0.00), Op("find_eq", "find", due=0.02),
           Op("find_eq", "find", due=0.04)]

    def submit(op, outcome):
        if op.due == 0.0:
            time.sleep(0.30)        # the stalled op blocks the generator
        future = Future()
        future.set_result([])
        return future

    outcomes = runner.run_open(ops, submit)
    assert outcomes[0].latency_ms >= 300
    # Served instantly once submitted, yet they waited out the stall.
    assert outcomes[1].latency_ms >= 270
    assert outcomes[2].latency_ms >= 250
    assert outcomes[1].gen_lag_ms >= 270


def test_next_phase_starts_when_the_previous_one_has_completed():
    import threading

    ops = [Op("insert", "insert", due=0.0, phase=0),
           Op("find_eq", "find", due=0.0, phase=1)]
    slow = Future()
    threading.Timer(0.2, slow.set_result, ["id"]).start()

    def submit(op, outcome):
        if op.phase == 0:
            return slow
        assert slow.done()
        future = Future()
        future.set_result([])
        return future

    outcomes = runner.run_open(ops, submit)
    assert not outcomes[1].error
    assert outcomes[1].due >= outcomes[0].due + 0.2
    assert outcomes[1].latency_ms < 100    # timed from its own phase


def test_refused_op_is_a_failure_not_an_exception():
    def submit(op, outcome):
        raise RuntimeError("queue full")

    outcomes = runner.run_open([Op("find_eq", "find")], submit)
    assert outcomes[0].error == "RuntimeError"


# -- compare ---------------------------------------------------------------------


def _result_set(values):
    return {"runs": [
        {"workload": "w", "metrics": {"op_p50_ms": v}, "detail": {}}
        for v in values
    ]}


def test_compare_verdicts():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "op_p50_ms", "bound": 0.10,
                            "better": "lower"}]}

    def run(a, b):
        rows = compare.compare(_result_set(a), _result_set(b), spec)
        return rows[0]["verdict"]

    assert run([100, 101, 102], [103, 104, 105]) == "same"
    assert run([100, 101, 102], [120, 121, 122]) == "worse"
    assert run([100, 101, 102], [80, 81, 82]) == "better"
    assert run([80, 100, 130], [90, 105, 125]) == "unresolved"
    assert run([80, 100, 130], [140, 150, 160]) == "worse"
    with pytest.raises(ValueError):
        run([100, 101], [100, 101])


# -- the whole thing, small ------------------------------------------------------


def test_quick_run_finishes_within_a_minute_and_exits_zero():
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--quick",
         "--label", "selftest"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert time.perf_counter() - started < 60
    for name in workloads.NAMES:
        assert f"== {name}" in done.stdout
    assert "insert_p95_ms" in done.stdout and "n/a" in done.stdout
