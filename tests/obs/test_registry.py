"""Registry units: families, label cardinality, bucket edges, the JSON
snapshot and the Prometheus text exposition."""

import json
import re

import pytest

from repro.obs import Registry, flatten
from repro.obs import registry as registry_module

_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)')


def parse_exposition(text: str) -> tuple[dict, dict]:
    """Twenty-line parser of the Prometheus text format: returns
    ``{(name, sorted label pairs): value}`` and ``{name: type}``."""
    samples, types = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
        elif line.startswith("#") or not line:
            continue
        else:
            match = _LINE.match(line)
            assert match, f"unparseable exposition line: {line!r}"
            name, body, value = match.groups()
            labels = tuple(sorted(
                (key, raw.replace('\\"', '"').replace("\\n", "\n")
                 .replace("\\\\", "\\"))
                for key, raw in _LABEL.findall(body or "")))
            assert (name, labels) not in samples, f"duplicate: {line!r}"
            samples[name, labels] = float(value)
    return samples, types


class TestFamilies:
    def test_counter_and_gauge(self):
        registry = Registry()
        hits = registry.counter("hits_total", "hits", ("tier",))
        hits.inc(("results",))
        hits.inc(("results",), 4)
        hits.inc(("documents",))
        depth = registry.gauge("queue_depth", "waiting operations")
        depth.set((), 7)
        depth.set((), 3)
        assert hits.series() == {("results",): [5], ("documents",): [1]}
        assert depth.series() == {(): [3]}

    def test_same_name_is_the_same_family(self):
        registry = Registry()
        assert (registry.counter("x_total", "x")
                is registry.counter("x_total", "x"))

    def test_wrong_label_count_is_rejected(self):
        family = Registry().counter("x_total", "x", ("a", "b"))
        with pytest.raises(ValueError):
            family.inc(("only-one",))

    def test_label_cardinality_is_bounded(self, monkeypatch):
        monkeypatch.setattr(registry_module, "MAX_SERIES", 3)
        family = Registry().counter("x_total", "x", ("who",))
        for index in range(10):
            family.inc((f"user-{index}",))
        series = family.series()
        assert len(series) == 4   # three label sets + the overflow one
        assert series[(registry_module.OVERFLOW,)] == [7]
        assert sum(slot[0] for slot in series.values()) == 10

    def test_histogram_bucket_edges_are_inclusive(self):
        family = Registry().histogram("t_seconds", "t", (),
                                      buckets=(0.5, 0.1, 1.0))
        assert family.buckets == (0.1, 0.5, 1.0)
        for value in (0.05, 0.1, 0.100001, 0.5, 1.0, 1.5):
            family.observe((), value)
        count, total, *buckets = family.series()[()]
        assert count == 6 and total == pytest.approx(3.250001)
        assert buckets == [2, 2, 1, 1]   # le 0.1, 0.5, 1.0, +Inf
        cumulative = {labels["le"]: value for name, labels, value
                      in family.samples() if name == "t_seconds_bucket"}
        assert cumulative == {"0.1": 2, "0.5": 4, "1.0": 5, "+Inf": 6}


class TestFlatten:
    def test_levels_then_path(self):
        section = {"obs": {"hits": 3, "node_timings": {
            "IndexLookup:det": {"calls": 2, "seconds": 0.5}},
            "name": "skipped", "flag": True, "rows": [1, 2]}}
        samples = sorted(flatten("planner", section, ("schema",)),
                         key=lambda s: s[0])
        assert samples == [
            ("planner_calls", {"schema": "obs",
                               "path": "node_timings.IndexLookup:det"}, 2),
            ("planner_hits", {"schema": "obs"}, 3),
            ("planner_seconds", {"schema": "obs",
                                 "path": "node_timings.IndexLookup:det"},
             0.5),
        ]

    def test_free_form_leaf_keys_are_sanitised(self):
        (name, _, _), = flatten("cache", {"shard:zone-0": 1})
        assert name == "cache_shard_zone_0"


class TestSnapshotAndText:
    def build(self) -> Registry:
        registry = Registry()
        calls = registry.counter("calls_total", "calls", ("service",))
        calls.inc(('tactic/a/f "quoted"\\x',), 2)
        blocked = registry.histogram("blocked_seconds", "blocked",
                                     ("service",))
        blocked.observe(("s",), 0.002)
        registry.collect("cache", lambda: {
            "results": {"hits": 4, "misses": 1}, "documents": None,
        }, ("tier",))
        registry.collect("admission", lambda: {"admitted": 9})
        return registry

    def test_snapshot_is_json(self):
        snapshot = self.build().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["cache"]["results"]["hits"] == 4
        assert snapshot["admission"] == {"admitted": 9}
        (row,) = snapshot["metrics"]["calls_total"]["series"]
        assert row["value"] == [2]

    def test_collectors_run_only_on_read(self):
        reads = []
        registry = Registry()
        registry.collect("lazy", lambda: reads.append(1) or {"n": 1})
        assert reads == []
        registry.snapshot()
        registry.text()
        assert len(reads) == 2

    def test_text_round_trips(self):
        samples, types = parse_exposition(self.build().text())
        assert types["datablinder_calls_total"] == "counter"
        assert types["datablinder_blocked_seconds"] == "histogram"
        assert types["datablinder_cache_hits"] == "gauge"
        service = ("service", 'tactic/a/f "quoted"\\x')
        assert samples["datablinder_calls_total", (service,)] == 2
        assert samples["datablinder_cache_hits", (("tier", "results"),)] == 4
        assert samples["datablinder_admission_admitted", ()] == 9
        assert samples["datablinder_blocked_seconds_count",
                       (("service", "s"),)] == 1
        assert samples["datablinder_blocked_seconds_bucket",
                       (("le", "0.001"), ("service", "s"))] == 0
        assert samples["datablinder_blocked_seconds_bucket",
                       (("le", "0.005"), ("service", "s"))] == 1
        assert samples["datablinder_blocked_seconds_bucket",
                       (("le", "+Inf"), ("service", "s"))] == 1
