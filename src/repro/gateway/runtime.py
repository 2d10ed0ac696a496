"""Async gateway runtime: admission, bounds and deadlines on one loop.

There is a single execution path: the synchronous plan engine over the
synchronous transport stack.  The event loop does not execute
operations — each admitted operation is one ``asyncio.to_thread`` hop
(see :class:`repro.core.entities.AsyncEntities`) onto the runtime's own
worker pool of ``max_in_flight + 4`` threads.  What the loop owns is
everything *around* the operation: admission through the service tier
(rate limit, pending bound), the in-flight semaphore, the deadline
timer, the audit record and per-operation context isolation.

Isolation comes from ``contextvars``: every admitted operation runs as
its own asyncio task, task creation snapshots the context and
``to_thread`` copies it onto the worker, so one operation's cache
principal, batch scope, op-verification scope and timing sink (all
ContextVar-held) can never bleed into another.

A deadline *abandons* the worker, it does not interrupt it: the caller
gets :class:`~repro.errors.DeadlineExceeded` on time and the in-flight
slot is released, while the worker runs its operation to the end (a
blocking round trip cannot be cancelled mid-wire).  An expired write
may therefore still land; ``close`` joins the worker pool so that it
has landed, or failed, by the time shutdown returns.

:class:`SyncGateway` is the blocking façade: the exact ``Entities``
method surface, each call submitted to the loop and joined.  Existing
synchronous code keeps its API and its results; it simply shares the
loop's admission, deadline and audit machinery with native async
callers.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Awaitable, Callable, TYPE_CHECKING

from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    GatewayOverloadError,
    RateLimitExceeded,
)
from repro.cache.tier import set_principal
from repro.core.entities import AsyncEntities, Entities
from repro.gateway.frontdoor import FrontDoor
from repro.integrity.verify import begin_op_scope, op_verification

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.middleware import DataBlinder
    from repro.core.query import Predicate


class RuntimeStats:
    """Thread-safe admission/completion counters for the runtime."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.rate_limited = 0
        self.expired = 0
        self.in_flight = 0
        self.peak_in_flight = 0

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def leave(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "admitted": self.admitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "rate_limited": self.rate_limited,
                "expired": self.expired,
                "in_flight": self.in_flight,
                "peak_in_flight": self.peak_in_flight,
            }


class AsyncGatewayRuntime:
    """Event-loop operation scheduler over one :class:`DataBlinder`.

    * **Admission** — ``submit`` consults the front door (per-principal
      token bucket) and a pending-operation bound before any work is
      scheduled; refusals raise before touching tactic state or the
      wire.
    * **Concurrency** — at most ``max_in_flight`` operations execute at
      once (an ``asyncio.Semaphore`` on the loop); everything else
      queues as an admitted-but-waiting task.
    * **Deadlines** — ``deadline_s`` (per call, with a runtime default)
      bounds the caller's wait via ``asyncio.wait_for`` and raises
      :class:`~repro.errors.DeadlineExceeded`; the worker is abandoned,
      not interrupted, and finishes its operation in the background.
    * **Audit** — every terminal outcome (``ok``, ``error``,
      ``expired``, ``rate_limited``, ``rejected``) is recorded with the
      principal, operation, touched fields and latency.

    The loop thread starts lazily on first submit and is a daemon;
    ``close`` drains in-flight operations, joins the workers of expired
    ones, and only then stops the loop.
    """

    def __init__(self, blinder: "DataBlinder", *,
                 max_in_flight: int = 64,
                 max_queue: int = 4096,
                 default_deadline_s: float | None = None,
                 front: FrontDoor | None = None):
        self.blinder = blinder
        self.max_in_flight = max(1, int(max_in_flight))
        self.max_queue = max(0, int(max_queue))
        self.default_deadline_s = default_deadline_s
        self.front = front or FrontDoor()
        self.stats = RuntimeStats()
        blinder.runtime.obs.collect("admission", self.stats.snapshot)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._workers: ThreadPoolExecutor | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False

    # -- loop lifecycle ---------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._closed:
                raise AdmissionRejected("gateway runtime is closed")
            if self._loop is not None:
                return self._loop
            loop = asyncio.new_event_loop()
            # The default executor serves the to_thread hop of every
            # in-flight operation, plus headroom for the workers of
            # operations abandoned at their deadline.
            self._workers = ThreadPoolExecutor(
                max_workers=self.max_in_flight + 4,
                thread_name_prefix="gateway-op",
            )
            loop.set_default_executor(self._workers)
            started = threading.Event()

            def run() -> None:
                asyncio.set_event_loop(loop)
                self._semaphore = asyncio.Semaphore(self.max_in_flight)
                started.set()
                loop.run_forever()

            thread = threading.Thread(
                target=run, name="gateway-loop", daemon=True
            )
            thread.start()
            started.wait()
            self._loop = loop
            self._thread = thread
            return loop

    @property
    def running(self) -> bool:
        with self._lock:
            return self._loop is not None and not self._closed

    # -- admission + execution --------------------------------------------------

    def submit(self, operation: Callable[[], Awaitable[Any]], *,
               principal: str = "anonymous", op: str = "call",
               fields: list[str] | None = None,
               deadline_s: float | None = None) -> Future:
        """Admit one async operation; returns its result future.

        ``operation`` is a zero-argument callable producing the
        operation coroutine (built lazily on the loop so task-context
        snapshotting covers it).  Raises
        :class:`~repro.errors.RateLimitExceeded` /
        :class:`~repro.errors.AdmissionRejected` when refused — refusals
        are audited but never scheduled.
        """
        start = time.perf_counter()
        try:
            self._admit(principal)
        except GatewayOverloadError as error:
            outcome = ("rate_limited"
                       if isinstance(error, RateLimitExceeded)
                       else "rejected")
            self.stats.bump(outcome)
            self.front.observe(
                principal, op, fields,
                (time.perf_counter() - start) * 1000.0,
                outcome, detail=str(error),
            )
            raise
        loop = self._ensure_loop()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        self.stats.bump("admitted")
        future = asyncio.run_coroutine_threadsafe(
            self._run_op(operation, principal, op, fields, deadline_s,
                         start),
            loop,
        )
        return future

    def _admit(self, principal: str) -> None:
        with self._lock:
            if self._closed:
                raise AdmissionRejected("gateway runtime is closed")
            if self.max_queue and self._pending >= (
                self.max_in_flight + self.max_queue
            ):
                raise AdmissionRejected(
                    f"admission queue full "
                    f"({self._pending} operations pending)"
                )
            # Reserve the slot before the (lock-free) limiter check so
            # two racing submits cannot both squeeze past the bound.
            self._pending += 1
        try:
            self.front.admit(principal)
        except GatewayOverloadError:
            with self._lock:
                self._pending -= 1
            raise

    async def _run_op(self, operation: Callable[[], Awaitable[Any]],
                      principal: str, op: str,
                      fields: list[str] | None,
                      deadline_s: float | None, start: float) -> Any:
        outcome, detail = "ok", ""
        # Materialised before task creation so the operation task's
        # context snapshot (and the worker's copy of it) carries the
        # same scope dict: the verifying transport writes its outcome
        # there, and we can still read it here after a deadline
        # abandoned the worker.  The cache principal rides the same
        # snapshot — per-principal cache scoping falls out of
        # task-context isolation.
        set_principal(principal)
        scope = begin_op_scope()
        try:
            async with self._semaphore:
                self.stats.enter()
                try:
                    # A fresh task per operation: its context snapshot
                    # isolates ContextVar scopes even if we cancel it.
                    task = asyncio.ensure_future(operation())
                    if deadline_s is not None:
                        return await asyncio.wait_for(task, deadline_s)
                    return await task
                finally:
                    self.stats.leave()
        except asyncio.TimeoutError:
            outcome, detail = "expired", f"deadline {deadline_s}s"
            self.stats.bump("expired")
            raise DeadlineExceeded(
                f"operation {op!r} exceeded its {deadline_s}s deadline"
            ) from None
        except BaseException as error:
            outcome, detail = "error", str(error)
            self.stats.bump("failed")
            raise
        finally:
            if outcome == "ok":
                self.stats.bump("completed")
            with self._lock:
                self._pending -= 1
            self.front.observe(
                principal, op, fields,
                (time.perf_counter() - start) * 1000.0,
                outcome, detail=detail,
                verification=op_verification(scope),
            )

    # -- data-access surface ---------------------------------------------------

    def entities(self, schema_name: str) -> AsyncEntities:
        """The awaitable data API for one registered schema.

        For direct use *on the runtime's loop* (or any loop); to get
        admission/deadline/audit treatment, go through :meth:`submit`
        or the :class:`SyncGateway` façade.
        """
        return AsyncEntities(self.blinder._executor(schema_name))

    def run(self, coroutine: Awaitable[Any], *,
            principal: str = "anonymous", op: str = "call",
            fields: list[str] | None = None,
            deadline_s: float | None = None,
            timeout: float | None = None) -> Any:
        """Blocking convenience: submit and join one coroutine."""
        return self.submit(
            lambda: coroutine, principal=principal, op=op,
            fields=fields, deadline_s=deadline_s,
        ).result(timeout)

    def metrics_snapshot(self) -> dict:
        """``DataBlinder.metrics_snapshot`` (with ``admission``)."""
        return self.blinder.metrics_snapshot()

    def metrics_text(self) -> str:
        return self.blinder.metrics_text()

    # -- shutdown ---------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> int:
        """Wait until no admitted operation is pending (a returned
        write is already on every reachable replica, so there is
        nothing else to wait for); returns the operations still
        pending when ``timeout`` ran out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = self._pending
            if not pending or (deadline is not None
                               and time.monotonic() >= deadline):
                return pending
            time.sleep(0.005)

    def close(self, timeout: float = 30.0) -> None:
        """Ordered shutdown: refuse → drain ops → join workers → stop.

        New submissions are refused first, in-flight operations get
        ``timeout`` seconds to finish, the worker pool is joined (an
        operation that expired at its deadline left ``_pending`` while
        its abandoned worker may still be writing), and only then does
        the loop stop — so nothing durable is lost to an abrupt
        teardown.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            loop, thread = self._loop, self._thread
        deadline = time.monotonic() + timeout
        self.drain(timeout)
        if self._workers is not None:
            # ``shutdown`` has no timeout of its own; bound the join.
            joiner = threading.Thread(
                target=self._workers.shutdown, name="gateway-join",
                daemon=True,
            )
            joiner.start()
            joiner.join(max(0.001, deadline - time.monotonic()))
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=5.0)
            loop.close()

    def __enter__(self) -> "AsyncGatewayRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _predicate_fields(predicate: Predicate | None) -> list[str]:
    return sorted(predicate.fields()) if predicate is not None else []


def _document_fields(*documents: dict) -> list[str]:
    return sorted({k for document in documents for k in document
                   if k != "_id"})


def _aggregate_fields(field: str, where: "Predicate | None") -> list[str]:
    return sorted({field} | set(_predicate_fields(where)))


#: Audited as the ``aggregate`` they build.
_AGGREGATE_HELPERS = ("average", "sum", "min", "max")

#: ``Entities`` operation -> the field names its audit record carries,
#: worked out from the call's bound arguments.
_AUDITED_FIELDS: dict[str, Callable[[dict], list[str]]] = {
    "insert": lambda a: _document_fields(a["document"]),
    "insert_many": lambda a: _document_fields(*a["documents"]),
    "get": lambda a: [],
    "update": lambda a: sorted(a["changes"]),
    "delete": lambda a: [],
    "find": lambda a: _predicate_fields(a["predicate"]),
    "find_one": lambda a: _predicate_fields(a["predicate"]),
    "find_ids": lambda a: _predicate_fields(a["predicate"]),
    "count": lambda a: _predicate_fields(a["predicate"]),
    "aggregate": lambda a: _aggregate_fields(a["query"].field,
                                             a["query"].where),
    "find_sorted": lambda a: [a["field"]],
    "text_search": lambda a: [],
    "explain": lambda a: _predicate_fields(a["predicate"]),
    **dict.fromkeys(
        _AGGREGATE_HELPERS,
        lambda a: _aggregate_fields(a["field"], a["where"]),
    ),
}


def _audited(name: str, method: Callable) -> Callable:
    """The blocking twin of one ``Entities`` method: same signature,
    submitted to the loop as one audited operation and joined."""
    signature = inspect.signature(method)
    fields_of = _AUDITED_FIELDS[name]
    op = "aggregate" if name in _AGGREGATE_HELPERS else name

    @functools.wraps(method)
    def call(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        return self._runtime.submit(
            lambda: getattr(self._async, name)(*args, **kwargs),
            principal=self._principal, op=op,
            fields=fields_of(bound.arguments),
            deadline_s=self._deadline_s,
        ).result()

    return call


class SyncEntities:
    """Blocking ``Entities`` surface routed through the async runtime.

    Byte-identical results to :class:`repro.core.entities.Entities` on
    the same executor — every call is one admitted, deadline-bounded,
    audited operation on the loop.  The methods are generated from the
    ``Entities`` methods named in :data:`_AUDITED_FIELDS`.
    """

    def __init__(self, runtime: AsyncGatewayRuntime, schema_name: str,
                 principal: str = "anonymous",
                 deadline_s: float | None = None):
        self._runtime = runtime
        self._async = runtime.entities(schema_name)
        self._principal = principal
        self._deadline_s = deadline_s

    @property
    def schema_name(self) -> str:
        return self._async.schema_name

    eq = staticmethod(Entities.eq)
    between = staticmethod(Entities.between)


for _name in _AUDITED_FIELDS:
    setattr(SyncEntities, _name, _audited(_name, getattr(Entities, _name)))


class SyncGateway:
    """The sync façade over :class:`AsyncGatewayRuntime`.

    Hands out :class:`SyncEntities` bound to a principal — same method
    surface as the classic ``Entities``, same results, but every call
    flows through the loop's admission, deadline and audit machinery.
    """

    def __init__(self, runtime: AsyncGatewayRuntime,
                 principal: str = "anonymous",
                 deadline_s: float | None = None):
        self.runtime = runtime
        self.principal = principal
        self.deadline_s = deadline_s

    def entities(self, schema_name: str,
                 principal: str | None = None,
                 deadline_s: float | None = None) -> SyncEntities:
        return SyncEntities(
            self.runtime, schema_name,
            principal=principal or self.principal,
            deadline_s=(deadline_s if deadline_s is not None
                        else self.deadline_s),
        )

    def metrics_snapshot(self) -> dict:
        return self.runtime.metrics_snapshot()

    def metrics_text(self) -> str:
        return self.runtime.metrics_text()

    def close(self) -> None:
        self.runtime.close()


__all__ = [
    "AsyncGatewayRuntime",
    "RuntimeStats",
    "SyncEntities",
    "SyncGateway",
]
