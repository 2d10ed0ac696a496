"""The metrics registry: count at the source, collect on read.

Two kinds of member.  A *family* (counter, gauge, fixed-bucket
histogram) is incremented where the event happens and costs one lock
and one dict lookup there.  A *collector* is a callable that adapts
what a layer already exports (a ``*Stats.snapshot()``, the wire cells);
it runs only when somebody asks, so reading is never on an operation's
critical path.  :meth:`Registry.snapshot` is the JSON view (one section
per collector plus ``metrics`` for the families), :meth:`Registry.text`
the Prometheus exposition of the same numbers.
"""

from __future__ import annotations

import bisect
import functools
import re
import threading
from typing import Any, Callable, Iterable, Iterator

#: One exposition line: ``(series name, labels, value)``.
Sample = tuple[str, dict[str, str], float]

#: Label sets a family keeps; later newcomers share one overflow series
#: so a label fed from request data cannot grow the registry unbounded.
MAX_SERIES = 1024
OVERFLOW = "_other"
#: Seconds: from a deferred enqueue (µs) to a retried WAN round trip.
LATENCY_BUCKETS = (0.0001, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5)

_NAME = re.compile(r"[^a-zA-Z0-9_]")


class Family:
    """One named metric: a series per label-value tuple.

    ``kind`` is ``counter`` (:meth:`inc`), ``gauge`` (:meth:`set`) or
    ``histogram`` (:meth:`observe`; ``buckets`` are inclusive upper
    edges, ``+Inf`` implied).  A histogram series is ``[count, sum,
    per-bucket counts...]``, the others ``[value]``.
    """

    def __init__(self, kind: str, name: str, help: str,
                 labels: Iterable[str] = (),
                 buckets: Iterable[float] = ()):
        self.kind, self.name, self.help = kind, name, help
        self.labels = tuple(labels)
        self.buckets = tuple(sorted(buckets)) if kind == "histogram" else ()
        self._series: dict[tuple, list] = {}
        self._lock = threading.Lock()

    def _slot(self, key: tuple) -> list:
        slot = self._series.get(key)
        if slot is None:
            if len(key) != len(self.labels):
                raise ValueError(
                    f"{self.name} takes labels {self.labels}, got {key}")
            if len(self._series) >= MAX_SERIES:
                key = (OVERFLOW,) * len(self.labels)
            slot = self._series.setdefault(key, [0] * (
                3 + len(self.buckets) if self.buckets else 1))
        return slot

    def inc(self, key: tuple = (), amount: float = 1) -> None:
        with self._lock:
            self._slot(key)[0] += amount

    def set(self, key: tuple = (), value: float = 0) -> None:
        with self._lock:
            self._slot(key)[0] = value

    def observe(self, key: tuple, value: float) -> None:
        with self._lock:
            slot = self._slot(key)
            slot[0] += 1
            slot[1] += value
            slot[2 + bisect.bisect_left(self.buckets, value)] += 1

    def series(self) -> dict[tuple, list]:
        with self._lock:
            return {key: list(slot) for key, slot in self._series.items()}

    def samples(self) -> Iterator[Sample]:
        for key, slot in sorted(self.series().items()):
            labels = dict(zip(self.labels, key))
            if self.kind != "histogram":
                yield self.name, labels, slot[0]
                continue
            for index, edge in enumerate(self.buckets + ("+Inf",)):
                yield (f"{self.name}_bucket", {**labels, "le": str(edge)},
                       sum(slot[2:3 + index]))
            yield f"{self.name}_sum", labels, slot[1]
            yield f"{self.name}_count", labels, slot[0]


def flatten(section: str, value: Any, levels: tuple[str, ...] = (),
            keys: tuple[str, ...] = ()) -> Iterator[Sample]:
    """The numeric leaves of a nested section as samples.

    The series is ``<section>_<leaf key>``; the dict keys above the leaf
    are label values — the first ``len(levels)`` named by ``levels``,
    deeper ones joined into ``path`` — so free-form keys (schema names,
    node kinds) never reach a metric name.  Strings, booleans, ``None``
    and lists stay JSON-only.
    """
    for key, child in value.items() if isinstance(value, dict) else ():
        if isinstance(child, dict):
            yield from flatten(section, child, levels, keys + (str(key),))
        elif isinstance(child, (int, float)) and not isinstance(child, bool):
            labels = dict(zip(levels, keys))
            if len(keys) > len(levels):
                labels["path"] = ".".join(keys[len(levels):])
            yield f"{section}_{_NAME.sub('_', str(key))}", labels, child


class Registry:
    """Families plus pull collectors behind one snapshot."""

    def __init__(self, namespace: str = "datablinder"):
        self.namespace = namespace
        self._families: dict[str, Family] = {}
        self._collectors: dict[str, tuple[Callable, Callable]] = {}

    def family(self, kind: str, name: str, help: str,
               labels: Iterable[str] = (),
               buckets: Iterable[float] = LATENCY_BUCKETS) -> Family:
        """Get or create the family ``name``."""
        return self._families.setdefault(
            name, Family(kind, name, help, labels, buckets))

    counter = functools.partialmethod(family, "counter")
    gauge = functools.partialmethod(family, "gauge")
    histogram = functools.partialmethod(family, "histogram")

    def collect(self, section: str, read: Callable[[], Any],
                levels: tuple[str, ...] = (),
                samples: Callable[[Any], Iterable[Sample]] | None = None
                ) -> None:
        """Register (or replace) the pull collector of one section.

        ``read()`` returns the section's JSON-able value; its text
        exposition is ``samples(value)``, by default :func:`flatten`
        with ``levels``.
        """
        self._collectors[section] = (read, samples or (
            lambda value: flatten(section, value, levels)))

    def snapshot(self) -> dict[str, Any]:
        out = {section: read()
               for section, (read, _) in list(self._collectors.items())}
        out["metrics"] = {family.name: {"type": family.kind, "series": [
            {"labels": dict(zip(family.labels, key)), "value": slot}
            for key, slot in sorted(family.series().items())
        ]} for family in list(self._families.values())}
        return out

    def text(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        blocks: dict[str, list[str]] = {}

        def emit(block: str, kind: str, samples: Iterable[Sample],
                 help: str = "") -> None:
            for name, labels, value in samples:
                head = f"{self.namespace}_{block or name}"
                if head not in blocks:
                    blocks[head] = [f"# TYPE {head} {kind}"]
                    if help:
                        blocks[head].insert(0, f"# HELP {head} {help}")
                body = ",".join(
                    '%s="%s"' % (label, str(text).replace("\\", "\\\\")
                                 .replace('"', '\\"').replace("\n", "\\n"))
                    for label, text in sorted(labels.items()))
                blocks[head].append(
                    f"{self.namespace}_{name}"
                    f"{'{' + body + '}' if body else ''} {value!r}")

        for family in list(self._families.values()):
            emit(family.name, family.kind, family.samples(), family.help)
        for read, samples in list(self._collectors.values()):
            emit("", "gauge", samples(read()))
        return "\n".join(
            line for lines in blocks.values() for line in lines) + "\n"
