"""Tracing from outside: spans around calls into each layer.

Nothing under ``src/`` knows about this file.  :func:`instrument`
shadows the public entry points of each layer object *on the instance*
with timing proxies (the objects are shared by reference, so every
holder sees the proxy), and the runner opens one root span per
operation.  Spans are kept in memory and written out at exit.

Self time = span − the part of it its children cover.  When children
overlap (scatter legs, prefetch), only the chain that finishes last —
the critical path — is charged, so the per-layer self times of one
operation sum to its wall-clock exactly when every span on that path
nests inside its parent; :func:`budget` fails the run when they do not
(a span leaking past its parent, or an orphan adopted by the wrong
parent, is counted twice).

Parent links come from a ``ContextVar`` (threads keep it through nested
calls, asyncio tasks and ``to_thread`` copy it).  A span that starts a
plain pool thread has no link; the traced pass runs one operation at a
time, so such an orphan is adopted by the innermost *outer-layer* span
of the current operation that contains it in time.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import mean, median, pstdev
from typing import Any, Callable

#: Budget layers, outermost first; the rank orders orphan adoption.
LAYERS = ("core", "cache", "crypto", "net.stack", "integrity.verify",
          "shard.router", "net.wire_wait", "cloud.handle")
RANK = {layer: rank for rank, layer in enumerate(LAYERS)}
BUDGET_TOLERANCE = 0.05

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None)

TRANSPORT_METHODS = (
    "call_request", "call_batch", "call_request_async",
    "call_batch_async", "call_labeled", "drain_async_writes",
)


class BudgetError(RuntimeError):
    """The per-layer self times do not sum back to wall-clock."""


class Span:
    __slots__ = ("sid", "op", "layer", "name", "start", "end", "parent",
                 "owner", "note")

    def __init__(self, sid, op, layer, name, start, parent, owner):
        self.sid = sid
        self.op = op            # operation index, -1 outside the traced pass
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent    # Span | None
        self.owner = owner      # id() of the instrumented object
        self.note = None        # layer-specific annotation

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.sid, "op": self.op, "layer": self.layer,
                "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent.sid if self.parent else None}


class Tracer:
    """Span store + the proxies that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._active: Span | None = None   # root of the op in flight
        self._next = 0

    # -- recording ---------------------------------------------------------------

    def _open(self, layer: str, name: str, owner: int) -> Span | None:
        parent = _CURRENT.get()
        root = self._active
        if root is None or (parent is not None and parent.owner == owner):
            return None  # outside the traced pass, or re-entrant call
        self._next += 1
        return Span(self._next, root.op, layer, name,
                    time.perf_counter(), parent, owner)

    @contextmanager
    def op(self, index: int, cls: str):
        """The root span of one operation, open in the calling context
        (a task or ``to_thread`` hop started inside copies it)."""
        self._next += 1
        root = Span(self._next, index, "core", cls, time.perf_counter(),
                    None, 0)
        root.note = {}
        self._active = root
        token = _CURRENT.set(root)
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._active = None
            _CURRENT.reset(token)
            self.roots.append(root)
            self.spans.append(root)

    # -- proxies -----------------------------------------------------------------

    def wrap(self, obj: Any, method: str, layer: str,
             name: str | None = None,
             annotate: Callable | None = None) -> None:
        """Shadow ``obj.method`` with a timing proxy (no-op if absent)."""
        original = getattr(obj, method, None)
        if original is None or not callable(original):
            return
        label = name or f"{type(obj).__name__}.{method}"
        setattr(obj, method,
                self._proxy(original, layer, label, id(obj), annotate))

    def _proxy(self, original: Callable, layer: str, label: str,
               owner: int, annotate: Callable | None = None) -> Callable:
        tracer = self

        def close(span: Span, token) -> None:
            span.end = time.perf_counter()
            _CURRENT.reset(token)
            tracer.spans.append(span)

        if asyncio.iscoroutinefunction(original):
            @functools.wraps(original)
            async def proxy(*args, **kwargs):
                span = tracer._open(layer, label, owner)
                if span is None:
                    return await original(*args, **kwargs)
                token = _CURRENT.set(span)
                try:
                    result = await original(*args, **kwargs)
                    if annotate is not None:
                        span.note = annotate(args, kwargs, result)
                    return result
                finally:
                    close(span, token)
        else:
            @functools.wraps(original)
            def proxy(*args, **kwargs):
                span = tracer._open(layer, label, owner)
                if span is None:
                    return original(*args, **kwargs)
                token = _CURRENT.set(span)
                try:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        span.note = annotate(args, kwargs, result)
                    if inspect.isfunction(result):
                        # ``index_many_begin`` hands back its second
                        # half as a closure; time that too.
                        result = tracer._proxy(
                            result, layer, f"{label}:finish", id(result))
                    return result
                finally:
                    close(span, token)

        return proxy

    def wrap_public(self, obj: Any, layer: str, prefix: str) -> None:
        for method in dir(type(obj)):
            if method.startswith("_"):
                continue
            if isinstance(getattr(type(obj), method, None), property):
                continue
            self.wrap(obj, method, layer, f"{prefix}.{method}")

    # -- output ------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.record()) + "\n")


# -- installing the proxies ----------------------------------------------------


def _leg_note(args, kwargs, result) -> dict:
    """What one leg carried: request kinds, fetched docs, proofs."""
    payload = args[0] if args else next(iter(kwargs.values()))
    if isinstance(payload, (list, tuple)):   # batch: list[Response] back
        requests, results = payload, result
    else:                                    # single: the bare result
        requests, results = [payload], [result]
    note = {"requests": len(requests), "sync": 0, "docs": 0, "proofs": []}
    for request, answer in zip(requests, results):
        service = getattr(request, "service", "")
        method = getattr(request, "method", "")
        answer = getattr(answer, "result", answer)  # batch Response
        if service.startswith("integrity/") and method == "report":
            note["sync"] += 1
        elif service.startswith("docs/") and method.startswith("get"):
            items = answer if isinstance(answer, list) else [answer]
            note["docs"] += len(items)
            if method.endswith("_proven"):
                note["proofs"].extend(
                    item.get("proof") for item in items
                    if isinstance(item, dict))
    return note


def instrument(deployment, tracer: Tracer) -> None:
    """Install the timing proxies on one deployment's layer objects."""
    from repro.integrity.verify import VerifyingTransport

    runtime = deployment.runtime
    # (c) the gateway stack from the top down to the router
    transport = runtime.transport
    while transport is not None and transport is not deployment.router:
        verifying = isinstance(transport, VerifyingTransport)
        layer = "integrity.verify" if verifying else "net.stack"
        extra = (("coherence_stamp", "audit") if verifying else
                 ("ship", "ship_async", "flush", "_ship", "_ship_async"))
        for method in TRANSPORT_METHODS + extra:
            tracer.wrap(transport, method, layer)
        transport = (getattr(transport, "inner", None)
                     or getattr(transport, "_inner", None))
    # (b) the sharded router, (a) each per-node leg, the cloud hosts
    for method in TRANSPORT_METHODS:
        tracer.wrap(deployment.router, method, "shard.router")
    for node, leg in deployment.cluster.nodes():
        for method in TRANSPORT_METHODS[:4]:
            tracer.wrap(leg, method, "net.wire_wait", f"leg:{node}",
                        _leg_note)
        host = deployment.cluster.zone(node).host
        for method in ("dispatch", "dispatch_batch"):
            tracer.wrap(host, method, "cloud.handle", f"cloud:{node}")
    # cache tier (+ its two LRUs), crypto kernels, tactic halves, keys
    tier = runtime.cache_tier
    if tier is not None:
        tracer.wrap_public(tier, "cache", "cache")
        for lru in (tier.results, tier.documents):
            if lru is not None:
                for method in ("lookup", "put", "invalidate",
                               "invalidate_where"):
                    tracer.wrap(lru, method, "cache", f"cache.lru.{method}")
    for method in ("submit", "submit_batch", "dedup_map"):
        tracer.wrap(runtime.kernels, method, "crypto", f"kernel.{method}")
    for scope, tactic in runtime.loaded_tactics():
        tracer.wrap_public(runtime.tactic(scope, tactic), "crypto",
                           f"tactic:{tactic}")
    tracer.wrap(runtime.keystore, "derive", "crypto", "keys.derive")
    tracer.wrap_public(runtime.keystore.hsm, "crypto", "keys.hsm")


# -- analysis --------------------------------------------------------------------


def adopt_orphans(spans: list[Span], root: Span) -> None:
    """Give every parentless span of one op its time-containing parent."""
    for span in spans:
        if span.parent is not None or span is root:
            continue
        rank = RANK[span.layer]
        best = root
        for other in spans:
            if (other is not span and RANK[other.layer] < rank
                    and other.start <= span.start
                    and other.end >= span.end
                    and other.start >= best.start):
                best = other
        span.parent = best


def critical_children(children: list[Span]) -> list[Span]:
    """The non-overlapping chain of children that finishes last.

    Walking back from the parent's end: the child that ends last is on
    the critical path; before it started, the one that ended last
    before that; and so on.  Siblings that ran in parallel with a
    critical child (other scatter legs, an overlapped prefetch) are off
    the path, with everything under them.
    """
    chain: list[Span] = []
    horizon = float("inf")
    for child in sorted(children, key=lambda s: s.end, reverse=True):
        if child.end <= horizon:
            chain.append(child)
            horizon = child.start
    return chain


def self_times(spans: list[Span],
               root: Span) -> list[tuple[Span, float, list[Span]]]:
    """(span, self seconds, critical children) for every span on the
    op's critical path."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.sid, []).append(span)
    out = []
    stack = [root]
    while stack:
        span = stack.pop()
        chain = critical_children(children.get(span.sid, []))
        # Only the part of a child inside its parent is the parent's
        # time to give away: a child that leaks past its parent is then
        # counted twice and breaks the budget sum, which is the point.
        covered = sum(
            max(0.0, min(c.end, span.end) - max(c.start, span.start))
            for c in chain)
        out.append((span, span.duration - covered, chain))
        stack.extend(chain)
    return out


def budget(tracer: Tracer, factor: float = 1.0) -> dict[str, dict]:
    """Per op class: mean self ms per layer, their sum, and the wall.

    ``factor`` is the traced pass's machine-speed factor; milliseconds
    are reported for the nominal machine (``metrics.apply_speed``).
    Raises :class:`BudgetError` when a class's layers do not sum to its
    traced wall-clock within 5 %.
    """
    by_op: dict[int, list[Span]] = {}
    for span in tracer.spans:
        by_op.setdefault(span.op, []).append(span)
    per_class: dict[str, dict] = {}
    for root in tracer.roots:
        spans = by_op[root.op]
        adopt_orphans(spans, root)
        row = per_class.setdefault(
            root.name, {"ops": 0, "wall": 0.0, "round_trips": 0,
                        **{layer: 0.0 for layer in LAYERS}})
        row["ops"] += 1
        row["wall"] += root.duration
        critical = self_times(spans, root)
        root.note["critical"] = critical
        for span, own, _ in critical:
            row[span.layer] += own
            # A leg on the critical path is one sequential round trip.
            # (On a 0 ms link the pool may run a scatter's legs back to
            # back; they then count as the sequential legs they were.)
            if span.layer == "net.wire_wait":
                row["round_trips"] += 1
    table = {}
    for cls, row in per_class.items():
        ops = row["ops"]
        scale = 1000.0 / ops / factor
        entry = {layer: row[layer] * scale for layer in LAYERS}
        entry["sum_ms"] = sum(entry.values())
        entry["wall_ms"] = row["wall"] * scale
        entry["gap_pct"] = (entry["sum_ms"] / entry["wall_ms"] - 1) * 100
        entry["round_trips"] = row["round_trips"] / ops
        entry["ops"] = ops
        table[cls] = entry
    for cls, entry in table.items():
        if abs(entry["gap_pct"]) > BUDGET_TOLERANCE * 100:
            raise BudgetError(
                f"{cls}: layer self times sum to {entry['sum_ms']:.3f} ms "
                f"but traced wall-clock is {entry['wall_ms']:.3f} ms "
                f"({entry['gap_pct']:+.1f} %)")
    return table


def layer_metrics(tracer: Tracer, table: dict[str, dict], nodes: int,
                  factor: float = 1.0) -> dict:
    """Span-derived per-layer metrics over the whole traced pass."""
    from repro.net import message

    ops = sum(entry["ops"] for entry in table.values())

    def per_op(layer: str) -> float:
        return sum(e[layer] * e["ops"] for e in table.values()) / ops

    out = {
        "core.self_ms": per_op("core"),
        "crypto.busy_ms": per_op("crypto"),
        "net.stack_self_ms": per_op("net.stack"),
        "net.wire_wait_ms": per_op("net.wire_wait"),
        "shard.router_self_ms": per_op("shard.router"),
        "integrity.verify_busy_ms": per_op("integrity.verify"),
        "cache.self_ms": per_op("cache"),
        "cloud.handle_ms": per_op("cloud.handle"),
    }
    for cls in ("insert", "find", "aggregate"):
        out[f"net.round_trips.{cls}"] = table.get(cls, {}).get(
            "round_trips", 0.0)

    legs = [s for s in tracer.spans if s.layer == "net.wire_wait"]
    out["shard.legs_per_op"] = len(legs) / ops
    out["integrity.sync_round_trips_per_op"] = sum(
        s.note["sync"] for s in legs if s.note) / nodes / ops
    proofs = [p for s in legs if s.note for p in s.note["proofs"]]
    out["integrity.proof_bytes_per_fetch"] = (
        mean(len(message.encode(p)) for p in proofs) if proofs else 0.0)
    fetched = sum(s.note["docs"] for s in legs if s.note)
    returned = sum(r.note.get("result_docs", 0) for r in tracer.roots)
    out["core.docs_fetched_per_result"] = (
        fetched / returned if returned else 0.0)

    by_router: dict[int, list[float]] = {}
    for leg in legs:
        if leg.parent is not None and leg.parent.layer == "shard.router":
            by_router.setdefault(leg.parent.sid, []).append(leg.duration)
    scatters = [d for d in by_router.values() if len(d) > 1]
    slowest = [max(d) for d in (scatters or by_router.values())]
    out["shard.slowest_leg_p50_ms"] = (
        median(slowest) * 1000.0 / factor if slowest else 0.0)
    out["shard.leg_skew_ratio"] = (
        mean(max(d) / mean(d) for d in scatters) if scatters else 1.0)

    crypto = [(s, own) for r in tracer.roots
              for s, own, _ in r.note["critical"] if s.layer == "crypto"]
    busy = sum(own for _, own in crypto) or 1.0
    for tactic in ("det", "mitra", "rnd", "paillier", "ope", "biex"):
        out[f"tactics.busy_share.{tactic}"] = sum(
            own for s, own in crypto
            if s.name.startswith(f"tactic:{tactic}")) / busy
    kernels = [s for s in tracer.spans if s.name.startswith("kernel.")]
    out["crypto.kernel_calls_per_op"] = len(kernels) / ops
    out["keys.hsm_calls_per_op"] = sum(
        1 for s in tracer.spans if s.name.startswith("keys.hsm")) / ops
    return out


def docs_per_node_cv(deployment) -> float:
    counts = []
    for name in deployment.cluster.names():
        _, documents = deployment.cluster.zone(name).application_stores(
            deployment.blinder.application)
        counts.append(len(documents))
    return pstdev(counts) / mean(counts) if mean(counts) else 0.0
