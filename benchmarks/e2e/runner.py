"""Load drivers: one closed-loop client, one open-loop generator.

Both produce a list of :class:`Outcome`; neither retries, swallows or
reclassifies an exception — the exception's type name is the outcome's
``error``.  Load comes from one generator thread in either mode.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Callable

from repro.core.query import Eq, Range

from e2e.oracle import Oracle
from e2e.workloads import Op


@dataclass
class Outcome:
    cls: str
    kind: str
    due: float              # perf_counter() the op was due / issued
    weight: int = 1         # documents written (insert_many: chunk size)
    end: float = 0.0
    queue_wait_ms: float = 0.0   # due/submit -> the call started
    gen_lag_ms: float = 0.0      # how late the generator issued it
    speed: float = 1.0      # machine-speed factor around this op
    error: str = ""         # "", exception type name, or "wrong: ..."
    result: Any = None      # kept for post-run checks (open loop only)

    @property
    def latency_ms(self) -> float:
        """Wall-clock latency (what a deadline sees)."""
        return (self.end - self.due) * 1000.0

    @property
    def scaled_ms(self) -> float:
        """Latency on the nominal machine (see ``metrics``)."""
        return self.latency_ms / self.speed


def invoke(entities, op: Op, ids: dict[int, str]):
    """Map one generated op onto the ``Entities`` surface.

    Works for ``Entities`` (returns the result) and ``AsyncEntities``
    (returns the coroutine) alike — same names, same signatures.
    """
    kind = op.kind
    if kind == "insert":
        return entities.insert(dict(op.docs[0]))
    if kind == "insert_many":
        return entities.insert_many([dict(d) for d in op.docs])
    if kind == "find_eq":
        return entities.find(Eq(op.field, op.value))
    if kind == "find_range":
        return entities.find(Range(op.field, op.value, op.high))
    if kind == "avg":
        return entities.average(op.field, where=Eq(*op.where))
    if kind == "count":
        return entities.count(Eq(*op.where))
    if kind == "get":
        return entities.get(ids[op.slot])
    if kind == "update":
        return entities.update(ids[op.slot], dict(op.changes))
    if kind == "delete":
        return entities.delete(ids[op.slot])
    raise ValueError(f"unknown op kind {kind!r}")


def run_closed(ops: list[Op], entities, oracle: Oracle, seconds: float,
               op_span: Callable | None = None, start: int = 0,
               limit: int | None = None,
               every: int = 0, between: Callable | None = None
               ) -> list[Outcome]:
    """One client: issue, wait, check (off the clock), repeat.

    Runs ``ops[start:]`` until ``seconds`` of wall-clock or ``limit``
    operations.  ``op_span(index, op)`` is the traced run's root-span
    context; it yields the root span.  ``between()`` runs off the clock
    after every ``every`` operations (the calibration kernel).
    """
    outcomes: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    idle_since = time.perf_counter()
    stop = len(ops) if limit is None else min(len(ops), start + limit)
    for index in range(start, stop):
        op = ops[index]
        issued = time.perf_counter()
        if issued >= deadline:
            break
        outcome = Outcome(op.cls, op.kind, issued,
                          weight=max(1, len(op.docs)),
                          gen_lag_ms=(issued - idle_since) * 1000.0)
        span = op_span(index, op) if op_span else nullcontext()
        try:
            with span as root:
                started = time.perf_counter()
                result = invoke(entities, op, oracle.ids)
                outcome.end = time.perf_counter()
            if root is not None and isinstance(result, list):
                root.note["result_docs"] = len(result)
        except Exception as exc:  # noqa: BLE001 - tallied, never retried
            outcome.end = time.perf_counter()
            outcome.error = type(exc).__name__
        else:
            wrong = oracle.check(op, result)
            if wrong:
                outcome.error = f"wrong: {wrong}"
            else:
                oracle.apply(op, result)
        outcome.queue_wait_ms = (started - issued) * 1000.0
        outcomes.append(outcome)
        if every and (index + 1) % every == 0:
            between()
        idle_since = time.perf_counter()
    return outcomes


def run_open(ops: list[Op],
             submit: Callable[[Op, Outcome], Any]) -> list[Outcome]:
    """Open loop: submit each op at its due time, whatever came before.

    ``submit(op, outcome)`` returns a ``concurrent.futures.Future`` (or
    raises when the gateway refuses the op).  Latency runs from the
    *due* time, so a stall that delays the generator is charged to
    every operation it made late.  Consecutive ops of one ``phase``
    share a schedule; the next phase starts once every operation of
    this one has completed.  Results are checked by the caller after
    the run (operations overlap here).
    """
    outcomes: list[Outcome] = []

    async def generate() -> None:
        for _, phase in groupby(ops, key=lambda op: op.phase):
            await run_phase(list(phase))

    async def run_phase(ops: list[Op]) -> None:
        origin = time.perf_counter()
        pending = []
        for op in ops:
            due = origin + op.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(op.cls, op.kind, due,
                              weight=max(1, len(op.docs)))
            outcome.gen_lag_ms = (time.perf_counter() - due) * 1000.0
            outcomes.append(outcome)
            try:
                future = submit(op, outcome)
            except Exception as exc:  # noqa: BLE001 - refused at the door
                outcome.end = time.perf_counter()
                outcome.error = type(exc).__name__
                continue
            future.add_done_callback(
                lambda _f, o=outcome: setattr(o, "end",
                                              time.perf_counter())
            )
            pending.append((outcome, future))
        for outcome, future in pending:
            try:
                outcome.result = await asyncio.wrap_future(future)
            except Exception as exc:  # noqa: BLE001 - tallied
                outcome.error = type(exc).__name__

    asyncio.run(generate())
    return outcomes


def gateway_submitter(gateway, entities, oracle: Oracle,
                      deadline_s: float):
    """``submit`` for :func:`run_open` over ``AsyncGatewayRuntime``.

    The op factory runs on the gateway's loop once the op holds an
    in-flight slot; the two ``perf_counter`` reads around that hop are
    ``gateway.queue_wait`` — cheap enough for untraced runs.
    """
    def submit(op: Op, outcome: Outcome):
        submitted = time.perf_counter()

        def factory():
            outcome.queue_wait_ms = (
                time.perf_counter() - submitted) * 1000.0
            return invoke(entities, op, oracle.ids)

        return gateway.submit(factory, principal="bench", op=op.cls,
                              deadline_s=deadline_s)

    return submit


def check_open(ops: list[Op], outcomes: list[Outcome],
               oracle: Oracle) -> None:
    """Post-run correctness of the open-loop run (bounds, see oracle).

    Successful inserts are mirrored first, so the upper bound of every
    find includes whatever the run managed to insert.
    """
    for op, outcome in zip(ops, outcomes):
        if op.kind == "insert" and not outcome.error:
            wrong = oracle.check(op, outcome.result)
            if wrong:
                outcome.error = f"wrong: {wrong}"
            else:
                oracle.apply(op, outcome.result)
    for op, outcome in zip(ops, outcomes):
        if op.kind != "insert" and not outcome.error:
            wrong = oracle.check_concurrent(op, outcome.result)
            if wrong:
                outcome.error = f"wrong: {wrong}"
        outcome.result = None
