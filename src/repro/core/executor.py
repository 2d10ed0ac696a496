"""Schema binding, plan cache and execution for one schema.

The executor is the middleware-core's "abstract execution of the
persistence logic" (§4.1).  It binds a schema's field plans to live
tactic instances, owns the body cipher and the write-batch/fan-out
plumbing, and runs every operation: compiled to plan IR
(:mod:`repro.core.planner.compile`), cached by predicate shape, and
executed on the plan engine (:mod:`repro.core.planner.engine`).

The plan cache keys compiled plans by ``(operation, predicate shape,
flags)``, where the shape comes from
:func:`~repro.core.planner.compile.parameterize`.  It is pure
gateway-side memoisation: values are bound at execution time, so a hit
performs the same RPCs a fresh compile would.  ``migrate_schema``
invalidates it (the new executor starts with an empty cache and carries
the counter forward).  Nothing in a plan depends on the untrusted
zone's topology, so a reshard leaves the cache alone.  An operation
becomes a ``(key, compile thunk, bindings)`` triple in exactly one
place, :meth:`SchemaExecutor._operation`; the live entry points and
EXPLAIN both read it, so EXPLAIN prints the plan the live call uses.

Verification still makes the whole pipeline sound under the
approximations the tactics are allowed: BIEX-ZMF false positives, stale
entries from insert-as-upsert range tactics and addition-only Sophos
updates are all trimmed by the plan's ``Verify`` stage, so ``find``
always returns exactly the matching documents.  Tactics that declare
``exact_search`` let the compiler drop that stage where membership
cannot change (the decrypt-free ``count`` path).

When a :class:`repro.net.batch.PipelineConfig` enables them, the
latency optimisations rewire the hot paths without changing results:
write batching, CNF literal fan-out, next-chunk prefetch on the engine's
one document stream — all executed node-by-node by the plan engine with
the seed semantics.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial, wraps
from typing import Any, Callable, ContextManager

from repro.cache.tier import MISS, NEGATIVE
from repro.core.planner.compile import PlanCompiler, parameterize
from repro.core.planner.engine import PlanEngine, PlannerStats, Run
from repro.core.planner.ir import Plan
from repro.core.query import AggregateQuery, Predicate
from repro.core.schema import Schema
from repro.core.selection import FieldPlan
from repro.crypto.encoding import Value
from repro.crypto.symmetric import Aead
from repro.errors import DocumentNotFound
from repro.gateway.service import GatewayRuntime
from repro.net import message
from repro.obs.timing import timing_sink
from repro.spi.interfaces import GatewayDocIDGen
from repro.tactics.base import random_doc_id
from repro.tactics.biex import BiexGateway

BOOL_SCOPE_SUFFIX = "._bool"


def _timed(method):
    """Run ``method`` as one operation on its schema: every timing the
    layers below book meanwhile lands in the schema's planner stats."""
    @wraps(method)
    def operation(self, *args, **kwargs):
        with timing_sink(self.stats.record_node):
            return method(self, *args, **kwargs)
    return operation


class SchemaExecutor:
    """All persistence logic for one (application, schema) binding."""

    def __init__(self, runtime: GatewayRuntime, schema: Schema,
                 plans: dict[str, FieldPlan], verify_results: bool = True,
                 pad_bucket: int = 0):
        self.runtime = runtime
        self.schema = schema
        self.plans = plans
        self.verify_results = verify_results
        #: When positive, body plaintexts are padded up to a multiple of
        #: this many bytes before encryption, hiding exact value lengths
        #: from a snapshot adversary (the taxonomy's "things which can be
        #: hidden by padding").
        self.pad_bucket = pad_bucket
        self._collector = (
            runtime.batch_collector if runtime.pipeline.batch_writes
            else None
        )
        self._fanout_pool: ThreadPoolExecutor | None = None
        self._fanout_lock = threading.Lock()
        self._body_aead = Aead(
            runtime.keystore.derive(f"{schema.name}._body", "core", "aead")
        )
        self._instances: dict[str, dict[str, Any]] = {}
        self._bool_instance: BiexGateway | None = None
        self._load_instances()
        self.compiler = PlanCompiler(self)
        #: Plan-cache counters and measured per-node times — what
        #: ``DataBlinder.planner_stats()`` reports.
        self.stats = PlannerStats()
        self.engine = PlanEngine(self, self.stats)
        #: The plan cache: compiled plans by their ``_operation`` key.
        self._cache: dict[Any, Plan] = {}
        self._cache_lock = threading.Lock()

    # -- instance wiring ---------------------------------------------------------

    def _bool_scope(self) -> str:
        return self.schema.name + BOOL_SCOPE_SUFFIX

    def _load_instances(self) -> None:
        registry = self.runtime.registry
        for field, plan in self.plans.items():
            by_role: dict[str, Any] = {}
            for role, tactic_name in plan.roles.items():
                if issubclass(registry.get(tactic_name).gateway_cls,
                              BiexGateway):
                    # Boolean tactics index cross-field terms, so a single
                    # instance is shared by every BL field of the schema.
                    scope = self._bool_scope()
                else:
                    scope = f"{self.schema.name}.{field}"
                instance = self.runtime.tactic(scope, tactic_name)
                by_role[role] = instance
                if isinstance(instance, BiexGateway):
                    self._bool_instance = instance
            self._instances[field] = by_role

    def _role_instance(self, field: str, role: str) -> Any | None:
        return self._instances.get(field, {}).get(role)

    def _uses_bool_tactic(self, field: str) -> bool:
        by_role = self._instances.get(field, {})
        return any(
            by_role.get(role) is self._bool_instance
            for role in ("bool", "eq")
        )

    def lookup_instance(self, field: str, role: str | None,
                        tactic: str) -> Any:
        """The instance serving one plan-IR lookup node.

        The selected tactic resolves to its wired role instance
        (identity matters for the shared boolean instance).
        """
        if role is not None:
            primary = self._instances.get(field, {}).get(role)
            if primary is not None and (
                self.plans[field].roles.get(role) == tactic
            ):
                return primary
        return self.runtime.tactic(f"{self.schema.name}.{field}", tactic)

    def _field_instances(self, field: str) -> list[Any]:
        """Distinct tactic instances bound to a field — the set every
        write feeds."""
        seen: list[Any] = []
        for role in sorted(self._instances.get(field, {})):
            instance = self._instances[field][role]
            if all(instance is not s for s in seen):
                seen.append(instance)
        return seen

    # -- pipelining helpers --------------------------------------------------------

    def _write_batch(self) -> ContextManager[Any]:
        """Collection scope for one write operation's cloud RPCs.

        With batching enabled, everything the tactic halves and the
        document store are sent inside this scope crosses the wire as one
        batch frame; otherwise it is a no-op and every RPC stands alone.
        """
        if self._collector is None:
            return nullcontext()
        return self._collector.collect()

    def _pool(self) -> ThreadPoolExecutor | None:
        """Bounded worker pool for read-side fan-out (lazy, shared)."""
        pipeline = self.runtime.pipeline
        workers = max(
            pipeline.fanout_workers,
            2 if pipeline.prefetch else 0,
        )
        if workers < 2:
            return None
        if self._fanout_pool is None:
            with self._fanout_lock:
                if self._fanout_pool is None:
                    self._fanout_pool = ThreadPoolExecutor(
                        max_workers=workers,
                        thread_name_prefix=f"fanout-{self.schema.name}",
                    )
        return self._fanout_pool

    # -- body encryption ------------------------------------------------------------

    def _seal_body(self, sensitive: dict[str, Value]) -> bytes:
        payload = message.encode(sensitive)
        if self.pad_bucket > 0:
            framed = len(payload).to_bytes(4, "big") + payload
            padded_length = -(-len(framed) // self.pad_bucket) * (
                self.pad_bucket
            )
            payload = framed + bytes(padded_length - len(framed))
        return self._body_aead.encrypt(payload)

    def _open_body(self, blob: bytes) -> dict[str, Value]:
        payload = self._body_aead.decrypt(blob)
        if self.pad_bucket > 0:
            length = int.from_bytes(payload[:4], "big")
            payload = payload[4:4 + length]
        return message.decode(payload)

    def _split_document(self, document: dict[str, Value]
                        ) -> tuple[dict[str, Value], dict[str, Value]]:
        sensitive: dict[str, Value] = {}
        plain: dict[str, Value] = {}
        for name, value in document.items():
            if name == "_id":
                continue
            spec = self.schema.fields.get(name)
            if spec is not None and spec.sensitive:
                sensitive[name] = value
            else:
                plain[name] = value
        return sensitive, plain

    # -- CRUD --------------------------------------------------------------------------

    def insert(self, document: dict[str, Value]) -> str:
        return self.insert_many([document])[0]

    @_timed
    def insert_many(self, documents: list[dict[str, Value]]) -> list[str]:
        """Bulk insert: tactic protocols run field by field through the
        batch SPI, and all the encrypted bodies ship to the document
        store in one round trip."""
        self._write("insert")
        return self.engine.insert_bulk(documents)

    def _generate_doc_id(self) -> str:
        for by_role in self._instances.values():
            for instance in by_role.values():
                if isinstance(instance, GatewayDocIDGen):
                    return instance.generate_doc_id()
        return random_doc_id()

    def cache_read_scope(self):
        """Per-operation document-cache view, or None (tier off, or
        this schema not admitted to plaintext caching)."""
        tier = self.runtime.cache_tier
        if tier is None:
            return None
        return tier.read_scope(self.schema.name)

    def get_uncached(self, doc_id: str) -> dict[str, Value]:
        """The seed fetch+decrypt path, bypassing the cache tier.

        Read-modify-write paths (update/delete index maintenance) use
        this: they must see the authoritative stored version, not a
        bounded-staleness cached one.
        """
        stored = self.runtime.docs("get_many", doc_ids=[doc_id])
        if not stored:
            raise DocumentNotFound(doc_id)
        return self._decrypt_stored(stored[0])

    @_timed
    def get(self, doc_id: str) -> dict[str, Value]:
        scope = self.cache_read_scope()
        if scope is None:
            return self.get_uncached(doc_id)
        hit = scope.lookup(doc_id)
        if hit is NEGATIVE:
            raise DocumentNotFound(
                f"document {doc_id!r} not found"
            )
        if hit is not MISS:
            return hit
        try:
            document = self.get_uncached(doc_id)
        except DocumentNotFound:
            scope.store_negative(doc_id)
            raise
        scope.store(doc_id, document)
        return document

    def _decrypt_stored(self, stored: dict) -> dict[str, Value]:
        if stored.get("schema") != self.schema.name:
            raise DocumentNotFound(
                f"{stored.get('_id')!r} belongs to schema "
                f"{stored.get('schema')!r}"
            )
        document = dict(stored.get("plain", {}))
        document.update(self._open_body(stored["body"]))
        document["_id"] = stored["_id"]
        return document

    @_timed
    def update(self, doc_id: str, changes: dict[str, Value]) -> None:
        self._write("update")
        self.engine.update(doc_id, changes)

    @_timed
    def delete(self, doc_id: str) -> bool:
        self._write("delete")
        return self.engine.delete(doc_id)

    def _bool_terms(self, sensitive: dict[str, Value]) -> list[bytes]:
        terms = []
        if self._bool_instance is None:
            return terms
        for field, value in sensitive.items():
            if value is None:
                continue
            if any(
                instance is self._bool_instance
                for instance in self._field_instances(field)
            ):
                terms.append(self._bool_instance.term(field, value))
        return terms

    # -- plan cache ------------------------------------------------------------------

    def _plan(self, key: Any, build: Callable[[], Plan]) -> Plan:
        with self._cache_lock:
            cached = self._cache.get(key)
        if cached is not None:
            self.stats.bump("cache_hits")
            return cached
        self.stats.bump("cache_misses")
        self.stats.bump("compiles")
        plan = build()
        with self._cache_lock:
            self._cache[key] = plan
        return plan

    def invalidate(self) -> None:
        """Drop every cached plan (schema migration / registry change)."""
        with self._cache_lock:
            self._cache.clear()
        self.stats.bump("invalidations")

    def absorb(self, predecessor: "SchemaExecutor") -> None:
        """Carry a migrated-away executor's counters into this one."""
        predecessor.invalidate()
        self.stats.bump("invalidations",
                        predecessor.stats.snapshot()["invalidations"])

    def cached_plans(self) -> int:
        with self._cache_lock:
            return len(self._cache)

    def _operation(self, operation: str = "find",
                   predicate: Predicate | None = None,
                   verify: bool | None = None, limit: int | None = None,
                   field: str | None = None, function: str | None = None,
                   descending: bool = False
                   ) -> tuple[Any, Callable[[], Plan], list]:
        """The operation table: ``(plan-cache key, compile thunk,
        binding vector)`` for one operation.

        The only place an operation becomes a plan — the live entry
        points and ``explain_plan`` both read it, so EXPLAIN cannot
        print a plan the live call would not use.
        """
        compiler = self.compiler
        verify = self.verify_results if verify is None else verify
        bounded = limit is not None
        parameterized, values, shape = parameterize(predicate)
        slots = len(values)
        if operation == "find":
            key = ("find", shape, verify, bounded)
            build = partial(compiler.compile_find, parameterized, verify,
                            bounded, slots)
        elif operation == "find_ids":
            key = ("find_ids", shape, verify)
            build = partial(compiler.compile_find_ids, parameterized,
                            verify, slots)
        elif operation == "count":
            key = ("count", shape)
            build = partial(compiler.compile_count, parameterized, slots)
        elif operation == "aggregate":
            if function is None or field is None:
                raise ValueError("aggregate needs function= and field=")
            key = ("aggregate", function, field, shape)
            build = partial(compiler.compile_aggregate, function, field,
                            parameterized, slots)
        elif operation == "find_sorted":
            if field is None:
                raise ValueError("find_sorted needs field=")
            key = ("find_sorted", field, descending, bounded)
            build = partial(compiler.compile_find_sorted, field,
                            descending, bounded)
        elif operation in ("insert", "update", "delete"):
            key = ("write", operation)
            build = partial(compiler.compile_write, operation)
        else:
            raise ValueError(f"unknown operation {operation!r}")
        return key, build, values

    def _write(self, operation: str) -> None:
        """Book one write: its plan (what EXPLAIN shows) and execution."""
        key, build, _ = self._operation(operation)
        self._plan(key, build)
        self.stats.bump("executions")

    # The search-result cache composes with (not replaces) the plan
    # cache: the plan cache skips the compile, the result cache skips the
    # whole engine execution.  Keys are the plan-cache key plus the bound
    # parameter values (and the actual limit, which the plan key only
    # carries as a flag); coherence validation lives in the tier.
    # ``plaintext`` marks document-bearing results, which are subject to
    # leakage admission; id/count results always cache.

    @_timed
    def _read(self, execute: Callable[[Plan, Run], Any], plaintext: bool,
              operation: str, predicate: Predicate | None = None,
              limit: int | None = None, **spec: Any) -> Any:
        """Plan one read, then run it under the search-result cache."""
        key, build, values = self._operation(operation, predicate,
                                             limit=limit, **spec)
        plan = self._plan(key, build)

        def run() -> Any:
            self.stats.bump("executions")
            return execute(plan, Run(values, predicate, limit))

        tier = self.runtime.cache_tier
        schema = self.schema.name
        # A plaintext result on a schema the tier does not admit is never
        # stored, so don't take a fill token (after a write, a ledger
        # re-sync) for it.
        if tier is None or (plaintext and not tier.admits_plaintext(schema)):
            return run()
        extra = (limit, values)
        hit = tier.result_lookup(schema, key, extra, plaintext)
        if hit is not MISS:
            self.stats.bump("result_hits")
            return hit
        self.stats.bump("result_misses")
        fill_token = tier.result_fill_token(schema)
        result = run()
        tier.result_store(schema, key, extra, result, fill_token,
                          plaintext)
        return result

    # -- search ------------------------------------------------------------------------

    def find(self, predicate: Predicate | None = None,
             verify: bool | None = None,
             limit: int | None = None) -> list[dict[str, Value]]:
        return self._read(self.engine.find, True, "find", predicate, limit,
                          verify=verify)

    def find_ids(self, predicate: Predicate | None = None,
                 verify: bool | None = None) -> set[str]:
        return self._read(self.engine.find_ids, False, "find_ids",
                          predicate, verify=verify)

    def count(self, predicate: Predicate | None = None) -> int:
        return self._read(self.engine.count, False, "count", predicate)

    def aggregate(self, query: AggregateQuery) -> Value:
        return self._read(
            self.engine.aggregate, True, "aggregate", query.where,
            field=query.field, function=query.function.value,
        )

    def find_sorted(self, field: str, limit: int | None = None,
                    descending: bool = False) -> list[dict[str, Value]]:
        """Documents ordered by a range-annotated field (ORDER BY)."""
        return self._read(
            self.engine.find, True, "find_sorted", limit=limit, field=field,
            descending=descending,
        )

    @_timed
    def text_search(self, query: str, limit: int,
                    require_all: bool) -> list[dict[str, Value]]:
        """Ranked full-text hits over this schema's plaintext fields."""
        return self.engine.text_search(query, limit, require_all)

    # -- EXPLAIN ------------------------------------------------------------------------------

    def explain_plan(self, **operation: Any) -> Plan:
        """Compile without executing, caching, or counting.

        EXPLAIN deliberately bypasses the cache in both directions: it
        never warms it (a later query still records its true miss) and
        never reads it (the rendered plan reflects the current compiler
        output).  Takes the keywords of :meth:`_operation`.
        """
        _, build, _ = self._operation(**operation)
        return build()

    def explain(self, **operation: Any) -> str:
        """Rendered plan (nodes, leakage, rounds) without executing."""
        from repro.analysis.planview import render_plan

        return render_plan(self.explain_plan(**operation), self)
