"""Gateway-side RPC batching: coalescing cloud writes into one frame.

The executor's write paths fan out over every protected field of a
document — one ``insert``/``update``/``delete`` per (field, tactic)
cloud half plus the document-store write; a bulk insert sends one
``insert_many`` slot per tactic service, carrying every entry, plus the
document-store ``insert_many``.  Unbatched, each of those is a blocking
round trip across the gateway/cloud link; a 5-protected-field insert
pays ~6 sequential latency charges.  :class:`BatchCollector`
wraps the deployment's transport so that, inside a *collection scope*,
fire-and-forget writes are enqueued instead of shipped, and the whole
queue crosses the wire as **one** batch frame
(:meth:`repro.net.transport.Transport.call_batch`) when the scope
closes.

Semantics inside a scope:

* *Deferrable* calls (index writes and provisioning calls, whose
  results the gateway ignores) return ``None`` immediately and are
  queued in order.
* Any other call joins the queue as its final element and flushes the
  whole batch at once, returning that call's result — so e.g. the
  executor's document-store ``delete`` (whose boolean result is needed)
  still shares the single round trip with the per-field index deletes
  queued before it.
* Server-side execution order equals enqueue order, and one failing
  sub-call never poisons the rest (per-request error isolation in
  :meth:`repro.net.rpc.ServiceHost.dispatch_batch`).  The first error in
  the batch is re-raised gateway-side after the whole batch ran.

Scopes are **context-local** (:mod:`contextvars`), so concurrent
operations batch independently whether they are application threads,
asyncio tasks, or logical operations multiplexed over a pooled thread —
the gateway runtime runs each operation in its own copied context, so a
scope abandoned by one operation can never leak into the next one that
lands on the same pool thread (the latent bug of the earlier
thread-local scopes).  Outside a scope the collector is a transparent
pass-through, which keeps the unbatched baseline behaviour byte-for-byte
identical.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.net.rpc import (
    MUTATING_METHODS,
    PROVISIONING_METHODS,
    Request,
    Response,
)
from repro.net.transport import Transport, TransportLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.config import CacheConfig
    from repro.crypto.kernels.config import CryptoConfig
    from repro.integrity.config import IntegrityConfig
    from repro.shard.config import ShardConfig


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of the batched/pipelined gateway<->cloud data path.

    The all-defaults instance keeps every optimisation off, preserving
    the unbatched per-operation round-trip behaviour as the comparison
    baseline.
    """

    #: Coalesce per-field index writes + the document-store write of one
    #: executor operation into a single batch frame.
    batch_writes: bool = False
    #: Resolve independent CNF literals concurrently with up to this many
    #: worker threads (0/1 keeps the serial path with its short-circuit).
    fanout_workers: int = 0
    #: Prefetch the next ``get_many`` chunk while the previous one is
    #: being decrypted and verified (unbounded unordered reads; a
    #: ``limit`` or an ordered read usually stops inside its first chunk).
    prefetch: bool = False
    #: Shard the untrusted zone: when set (and the deployment hands the
    #: middleware a *list* of named per-node transports), documents and
    #: secure indexes partition across N cloud nodes behind a
    #: :class:`repro.shard.router.ShardedTransport`.  ``None`` keeps the
    #: seed single-zone wiring byte-for-byte.
    sharding: "ShardConfig | None" = None
    #: Gateway crypto kernels
    #: (:class:`repro.crypto.kernels.config.CryptoConfig`): fixed-base
    #: Paillier masks.  The dedup/LRU token maps behind the tactic batch
    #: SPI run in every configuration; ``None`` (or an all-defaults
    #: config) makes a cold Paillier mask per ciphertext.
    crypto: "CryptoConfig | None" = None
    #: Integrity & freshness verification
    #: (:class:`repro.integrity.config.IntegrityConfig`): Merkle state
    #: roots on the cloud, a freshness ledger at the gateway, and
    #: proof-on-fetch verified reads (plus an on-demand audit sweep),
    #: activated once a schema has a sensitive field.  ``None`` keeps
    #: the seed's trusting read path byte-for-byte (no tracker, no extra
    #: services, no wire changes).
    integrity: "IntegrityConfig | None" = None
    #: Gateway read-cache tier (:class:`repro.cache.config.CacheConfig`):
    #: search-result and decrypted-document caches, coherent via
    #: local write-versions and — with ``integrity`` configured — the
    #: freshness ledger's per-shard root/seq stamps.  ``None`` keeps the
    #: seed read path byte-for-byte (no tier object, no extra state).
    cache: "CacheConfig | None" = None

    @classmethod
    def production(cls) -> "PipelineConfig":
        """The all-layers-on composition ``bench_e2e`` measures: crypto
        kernels, write batching, fan-out + prefetch, a sharded zone,
        proof-on-fetch integrity and the cache tier."""
        from repro.cache.config import CacheConfig
        from repro.crypto.kernels.config import CryptoConfig
        from repro.integrity.config import IntegrityConfig
        from repro.shard.config import ShardConfig

        return cls(
            batch_writes=True, fanout_workers=4, prefetch=True,
            crypto=CryptoConfig(precompute=True), sharding=ShardConfig(),
            integrity=IntegrityConfig(), cache=CacheConfig(),
        )


#: Document-store services get stricter deferral rules than the tactic
#: services, where every mutating method's result is ignored by gateway
#: callers (see :meth:`BatchCollector._defers`).
_DOCS_PREFIX = "docs/"


class _Scope:
    """One operation's open collection scope (supports nesting)."""

    __slots__ = ("depth", "pending", "acks", "failed")

    def __init__(self) -> None:
        self.depth = 1
        self.pending: list[Request] = []
        self.acks: list[Callable[[], None]] = []
        self.failed = False


class BatchCollector(TransportLayer):
    """Transport wrapper that batches deferrable writes per scope."""

    def __init__(self, inner: Transport):
        super().__init__(inner)
        # Context-local scope slot.  Per-instance so two collectors in
        # one process never share scopes; the default makes every fresh
        # context (new thread, new copied operation context) scopeless.
        self._scope_var: contextvars.ContextVar[_Scope | None] = (
            contextvars.ContextVar(f"batch_scope_{id(self):x}",
                                   default=None)
        )

    # -- scope management --------------------------------------------------------

    def _scope(self) -> _Scope | None:
        return self._scope_var.get()

    @contextmanager
    def collect(self) -> Iterator["BatchCollector"]:
        """Open a collection scope in the calling context.

        Nested scopes join the outermost one; the queue flushes when the
        outermost scope exits (also on error, so gateway-side state —
        SSE counters, Sophos tokens — never runs ahead of the cloud).
        The scope lives in a :class:`~contextvars.ContextVar`, so it is
        visible exactly to the opening thread/task and to work it runs
        under a copy of its context (``asyncio.to_thread``), never to an
        unrelated operation scheduled onto the same pooled thread.  The
        :meth:`after_ack` callbacks run after the last frame, and only
        when no level of the scope raised and every frame shipped ok.
        """
        scope = self._scope()
        token = None
        if scope is None:
            scope = _Scope()
            token = self._scope_var.set(scope)
        else:
            scope.depth += 1
        try:
            yield self
        except BaseException:
            scope.failed = True
            raise
        finally:
            scope.depth -= 1
            if scope.depth == 0:
                if token is not None:
                    try:
                        self._scope_var.reset(token)
                    except ValueError:
                        # Finalized from a foreign context: a cancelled
                        # or abandoned operation's frame was GC'd after
                        # its opening context died.  There is no slot
                        # left to clear, but the pending writes below
                        # still flush so the cloud never falls behind
                        # gateway-side tactic state.
                        pass
                else:  # pragma: no cover - outermost always holds the token
                    self._scope_var.set(None)
                if scope.pending:
                    self._ship(scope.pending, scope)
        if scope.depth == 0 and not scope.failed:
            for fn in scope.acks:
                fn()

    def after_ack(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` now outside a scope, else at its successful exit."""
        scope = self._scope()
        if scope is None:
            fn()
        else:
            scope.acks.append(fn)

    def _defers(self, service: str, method: str) -> bool:
        if method in PROVISIONING_METHODS:
            return True
        if method not in MUTATING_METHODS:
            return False
        if service.startswith(_DOCS_PREFIX):
            # Document-store reads/deletes return data; only the pure
            # write methods are fire-and-forget there (``delete``'s
            # boolean result is consumed, so it flushes the batch as its
            # final element instead).
            return method in ("insert", "insert_many", "replace")
        return service != "admin"

    # -- Transport interface ------------------------------------------------------

    def call_request(self, request: Request) -> Any:
        scope = self._scope()
        if scope is None:
            return self._inner.call_request(request)
        if self._defers(request.service, request.method):
            scope.pending.append(request)
            return None
        # Join the queue as the final element and flush now: reads (and
        # result-bearing writes) must observe every queued write, and the
        # whole group still costs one round trip.
        scope.pending.append(request)
        pending, scope.pending = scope.pending, []
        responses = self._ship(pending, scope)
        return responses[-1].result

    def flush(self) -> None:
        """Ship any queued writes of the calling context's scope now."""
        scope = self._scope()
        if scope is not None and scope.pending:
            pending, scope.pending = scope.pending, []
            self._ship(pending, scope)

    def _ship(self, pending: list[Request], scope: _Scope) -> list[Response]:
        # The scope counts as failed until every response is ok.
        scope.failed, failed = True, scope.failed
        responses = self._inner.call_batch(pending)
        for response in responses:
            if not response.ok:
                response.unwrap()  # raises the first failure
        scope.failed = failed
        return responses
