"""Engine: plan execution over the batch/fan-out/prefetch machinery.

Id-producing nodes keep the seed executor's semantics node by node:
boolean CNF clauses resolve in one ``bool_query_terms`` round before
anything else, and independent literals fan out on the shared bounded
pool (serial evaluation keeps the empty-intersection short circuit).

Ids become documents in exactly one place, :meth:`PlanEngine._stream`:
unordered ``find``, ``find_sorted``, ``min``/``max``, the verifying
``find_ids``/``count`` and ``text_search`` differ only in the id order,
chunk size and stop rule they hand it, so whether a read uses the
document cache and the next-chunk prefetch follows from the read, not
from which loop it reached.  Bulk inserts likewise have one loop,
field-major through the tactic batch SPI inside one batch collection
scope.

Every executed node's wall time lands once, in the executor's
:class:`PlannerStats` row for its ``kind:tactic`` — the one store of
measured per-node time (``planner_report()``), which the layers below
reach through the operation's timing sink (:mod:`repro.obs.timing`);
both pool submits (fan-out, prefetch) carry the operation's context.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future
from contextlib import closing
from contextvars import copy_context
from typing import TYPE_CHECKING, Any

from repro.cache.tier import MISS, NEGATIVE
from repro.core.planner import ir
from repro.core.query import Predicate, evaluate_plain
from repro.crypto.encoding import Value
from repro.errors import DocumentNotFound, QueryError, RemoteError
from repro.spi.interfaces import (
    GatewayDeletion,
    GatewayInsertion,
    GatewayUpdate,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import SchemaExecutor


class PlannerStats:
    """Thread-safe planner counters and per-node-kind timings."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.compiles = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidations = 0
        self.executions = 0
        #: Search-result cache traffic (only counted when the cache
        #: tier's result level is on): validated hits vs executions
        #: that went to the engine.
        self.result_hits = 0
        self.result_misses = 0
        #: node-kind (e.g. ``"IndexLookup:det"``) -> [calls, seconds]
        self.node_timings: dict[str, list] = {}

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def record_node(self, kind: str, seconds: float) -> None:
        with self._lock:
            entry = self.node_timings.setdefault(kind, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "compiles": self.compiles,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "invalidations": self.invalidations,
                "executions": self.executions,
                "result_hits": self.result_hits,
                "result_misses": self.result_misses,
                "node_timings": {
                    kind: {"calls": calls, "seconds": seconds}
                    for kind, (calls, seconds) in sorted(
                        self.node_timings.items()
                    )
                },
            }

    def render(self) -> str:
        snap = self.snapshot()
        lines = [
            "Query planner statistics",
            (
                f"  plans: {snap['compiles']} compiled, "
                f"{snap['cache_hits']} cache hits, "
                f"{snap['cache_misses']} misses, "
                f"{snap['invalidations']} invalidations"
            ),
            f"  executions: {snap['executions']}",
        ]
        if snap["result_hits"] or snap["result_misses"]:
            lines.append(
                f"  result cache: {snap['result_hits']} hits, "
                f"{snap['result_misses']} misses"
            )
        if snap["node_timings"]:
            lines.append("  node timings:")
            for kind, cost in snap["node_timings"].items():
                mean_ms = (
                    1000.0 * cost["seconds"] / cost["calls"]
                    if cost["calls"] else 0.0
                )
                lines.append(
                    f"    {kind:<24}{cost['calls']:>7} calls"
                    f"{mean_ms:>10.2f} ms mean"
                )
        return "\n".join(lines)


class Run:
    """Per-execution context: bindings, limit, the run-scoped id memo."""

    __slots__ = ("bindings", "predicate", "limit", "_all_ids", "_lock")

    def __init__(self, bindings: list, predicate: Predicate | None,
                 limit: int | None = None):
        self.bindings = bindings
        self.predicate = predicate
        self.limit = limit
        self._all_ids: set[str] | None = None
        self._lock = threading.Lock()

    def all_ids(self, fetch) -> set[str]:
        """One ``all_ids`` fetch per evaluation, shared by every node
        (and safe under the concurrent fan-out)."""
        with self._lock:
            if self._all_ids is None:
                self._all_ids = fetch()
            return self._all_ids

    def value(self, slot: int | None):
        if slot is None:
            return None
        return self.bindings[slot]


class PlanEngine:
    def __init__(self, executor: "SchemaExecutor", stats: PlannerStats):
        self._x = executor
        self._stats = stats

    # -- observation helpers ---------------------------------------------------

    def _observe(self, kind: str, tactic: str, seconds: float) -> None:
        self._stats.record_node(f"{kind}:{tactic}", seconds)

    def _timed_docs(self, kind: str, method: str, **kwargs: Any) -> Any:
        started = time.perf_counter()
        result = self._x.runtime.docs(method, **kwargs)
        self._observe(kind, "docs", time.perf_counter() - started)
        return result

    # -- id-producing nodes ----------------------------------------------------

    def eval_ids(self, node: ir.PlanNode, run: Run) -> set[str]:
        if isinstance(node, ir.AllIds):
            return set(run.all_ids(self._fetch_all_ids))
        if isinstance(node, ir.IndexLookup):
            return self._lookup_ids(node, run)
        if isinstance(node, ir.BoolQuery):
            return self._bool_ids(node, run)
        if isinstance(node, ir.SetOp):
            if node.op == "union":
                union: set[str] = set()
                for part in node.parts:
                    union |= self.eval_ids(part, run)
                return union
            if node.op == "diff":
                base = self.eval_ids(node.parts[0], run)
                return base - self.eval_ids(node.parts[1], run)
            return self._intersect_ids(node.parts, run)
        if isinstance(node, ir.ProjectIds):
            return {
                document["_id"]
                for document in self._docs(node.source, run, limit=None)
            }
        raise QueryError(f"cannot evaluate plan node {node.kind}")

    def _fetch_all_ids(self) -> set[str]:
        return set(self._timed_docs(
            "AllIds", "all_ids", schema=self._x.schema.name
        ))

    def _lookup_ids(self, node: ir.IndexLookup, run: Run) -> set[str]:
        x = self._x
        if node.tactic is None:
            if node.op == "eq":
                query = {
                    "schema": x.schema.name,
                    f"plain.{node.field}": run.value(node.param),
                }
            else:
                bounds: dict[str, Value] = {}
                if node.low_param is not None:
                    bounds["$gte"] = run.value(node.low_param)
                if node.high_param is not None:
                    bounds["$lte"] = run.value(node.high_param)
                query = {
                    "schema": x.schema.name,
                    f"plain.{node.field}": bounds,
                }
            return set(self._timed_docs(
                "IndexLookup", "find_plain", query=query
            ))
        instance = x.lookup_instance(node.field, node.role, node.tactic)
        started = time.perf_counter()
        if node.op == "eq":
            ids = instance.resolve_eq(
                instance.eq_query(run.value(node.param))
            )
        else:
            ids = instance.range_query(
                run.value(node.low_param), run.value(node.high_param)
            )
        self._observe("IndexLookup", node.tactic,
                      time.perf_counter() - started)
        return set(ids)

    def _bool_ids(self, node: ir.BoolQuery, run: Run) -> set[str]:
        x = self._x
        instance = x.runtime.tactic(x._bool_scope(), node.tactic)
        started = time.perf_counter()
        cnf_terms = [
            [
                instance.term(field, run.value(slot))
                for field, slot in clause
            ]
            for clause in node.clauses
        ]
        raw = instance.bool_query_terms(cnf_terms)
        ids = instance.resolve_bool(raw)
        self._observe("BoolQuery", node.tactic,
                      time.perf_counter() - started)
        return set(ids)

    def _intersect_ids(self, parts: tuple[ir.PlanNode, ...],
                       run: Run) -> set[str]:
        """Ordered intersection with the seed's concurrency semantics.

        Boolean clauses (always compiled first) resolve serially; the
        remaining parts fan out literal-by-literal when the pool is on
        and more than one literal is in play, otherwise they evaluate
        serially with the empty-intersection short circuit.
        """
        x = self._x
        serial_upto = 0
        for part in parts:
            if not isinstance(part, ir.BoolQuery):
                break
            serial_upto += 1
        result: set[str] | None = None
        for part in parts[:serial_upto]:
            ids = self.eval_ids(part, run)
            result = ids if result is None else result & ids
        rest = parts[serial_upto:]

        def leaf_nodes(part: ir.PlanNode) -> tuple[ir.PlanNode, ...]:
            if isinstance(part, ir.SetOp) and part.op == "union":
                return part.parts
            return (part,)

        literal_count = sum(len(leaf_nodes(part)) for part in rest)
        pool = x._pool()
        if (pool is not None and x.runtime.pipeline.fanout_workers > 1
                and literal_count > 1):
            futures = [
                [pool.submit(copy_context().run, self.eval_ids, leaf, run)
                 for leaf in leaf_nodes(part)]
                for part in rest
            ]
            for part_futures in futures:
                union: set[str] = set()
                for future in part_futures:
                    union |= future.result()
                result = union if result is None else result & union
            return result if result is not None else set()

        for part in rest:
            if result is not None and not result:
                return set()  # short-circuit: intersection already empty
            ids = self.eval_ids(part, run)
            result = ids if result is None else result & ids
        return result if result is not None else set()

    # -- the document stream ---------------------------------------------------

    def _ordered_ids(self, field: str, role: str, tactic: str,
                     descending: bool, kind: str) -> list[str]:
        """The order tactic's sorted id list, observed as one node."""
        instance = self._x.lookup_instance(field, role, tactic)
        started = time.perf_counter()
        ordered = instance.ordered_ids(descending=descending)
        self._observe(kind, tactic, time.perf_counter() - started)
        return ordered

    def _stream(self, ids: Iterable[str], chunk_size: int,
                overlap: bool, scope: Any,
                filled: dict[str, dict] | None = None
                ) -> Iterator[dict[str, Value]]:
        """Live decrypted documents for ``ids``, in that order.

        The one place ids become documents, and the plan engine's only
        caller of ``docs.get_many``.  Ids the operation's document-cache ``scope``
        holds (positive or negative) skip the wire; so do the stored
        documents a co-located find's reply already carried
        (``filled``, keyed by id — ``ids`` alone decide what is read,
        so a carried document outside them is dropped).  The others are
        fetched ``chunk_size`` misses at a time, only once the consumer
        reaches the first of them, so an all-hit read sends nothing and
        an early stop fetches nothing further.  Absent and
        foreign-schema ids are dropped (negative-cached under a scope);
        fills carry the token the scope captured when the read began.

        With ``overlap`` and ``PipelineConfig.prefetch`` the next
        chunk's fetch runs on the pool while this chunk decrypts.  The
        first chunk is fetched inline — a pool hop there would only cap
        concurrent reads at the pool size — and the pending future is
        cancelled (or drained, when already running) on every exit
        path, generator close included.
        """
        x = self._x
        filled = filled or {}
        pool = x._pool() if overlap and x.runtime.pipeline.prefetch else None
        answers = (
            (doc_id, MISS if scope is None else scope.lookup(doc_id))
            for doc_id in ids
        )
        #: Answers a chunk's look-ahead passed, waiting for the consumer.
        looked: deque[tuple[str, Any]] = deque()

        def next_chunk(chunk: list[str]) -> list[str]:
            for entry in answers:
                looked.append(entry)
                if entry[1] is MISS and entry[0] not in filled:
                    chunk.append(entry[0])
                    if len(chunk) >= chunk_size:
                        break
            return chunk

        def fetch(chunk: list[str]) -> list[dict]:
            return self._timed_docs("FetchDocs", "get_many", doc_ids=chunk)

        live: dict[str, dict | None] = {}
        pending: Future | None = None
        try:
            while True:
                entry = looked.popleft() if looked else next(answers, None)
                if entry is None:
                    return
                doc_id, found = entry
                if found is NEGATIVE:
                    continue
                if found is MISS:
                    if doc_id in filled:
                        live[doc_id] = filled.pop(doc_id)
                    elif doc_id not in live:
                        if pending is None:
                            chunk = next_chunk([doc_id])
                        stored = (pending.result() if pending is not None
                                  else fetch(chunk))
                        live = dict.fromkeys(chunk)
                        live.update(self._own(stored))
                        # Overlap the next wire fetch with this chunk's
                        # decryption and verification.
                        chunk = next_chunk([]) if pool is not None else []
                        pending = (pool.submit(copy_context().run, fetch,
                                               chunk) if chunk else None)
                    item = live[doc_id]
                    if item is None:
                        if scope is not None:
                            scope.store_negative(doc_id)
                        continue
                    found = x._decrypt_stored(item)
                    if scope is not None:
                        scope.store(doc_id, found)
                yield found
        finally:
            if pending is not None and not pending.cancel():
                try:
                    pending.result()
                except Exception:
                    pass  # the result is discarded either way

    def _own(self, stored: Iterable[dict]) -> Iterator[tuple[str, dict]]:
        """``(id, stored)`` for the fetched documents of this schema."""
        schema = self._x.schema.name
        return ((item["_id"], item) for item in stored
                if item.get("schema") == schema)

    def _colocated(self, node: ir.IndexLookup, run: Run,
                   chunk: int) -> tuple[list[str], dict[str, dict]]:
        """One ``lookup_fetch`` scatter: every shard resolves the token
        on its tactic half and returns its matching ids plus the stored
        documents of its first ``chunk`` of them."""
        x = self._x
        instance = x.lookup_instance(node.field, node.role, node.tactic)
        if node.op == "eq":
            query, args = "eq_query", instance.eq_args(run.value(node.param))
        else:
            query, args = "range_query", instance.range_args(
                run.value(node.low_param), run.value(node.high_param)
            )
        started = time.perf_counter()
        reply = x.runtime.docs("lookup_fetch", index=instance.ctx.service,
                               query=query, args=args, chunk=chunk)
        self._observe("ColocatedFetch", node.tactic,
                      time.perf_counter() - started)
        return sorted(reply["ids"]), dict(self._own(reply["docs"]))

    def _docs(self, node: ir.PlanNode, run: Run,
              limit: int | None) -> list[dict[str, Value]]:
        """Execute a Decrypt/Verify/Limit stack over a FetchDocs or
        ColocatedFetch node."""
        verify = False
        while isinstance(node, (ir.Limit, ir.Verify, ir.Decrypt)):
            # A Limit node mirrors ``limit is not None`` (both come from
            # the same argument of the operation table).
            verify = verify or isinstance(node, ir.Verify)
            node = node.source
        if not isinstance(node, (ir.FetchDocs, ir.ColocatedFetch)):
            raise QueryError(
                f"document pipeline bottoms out at {node.kind}"
            )
        if limit is not None and limit <= 0:
            return []
        # The fill token is taken before any id resolution or fetch.
        scope = self._x.cache_read_scope()
        ordered = isinstance(node, ir.FetchDocs) and node.ordered
        # Seed `find` rule: a small limit keeps the transfer small.
        chunk_size = (node.chunk_default if ordered or limit is None
                      else max(limit * 2, 16))
        filled: dict[str, dict] = {}
        if isinstance(node, ir.ColocatedFetch):
            ids, filled = self._colocated(node.lookup, run, chunk_size)
        elif ordered:
            scan = node.source
            if not isinstance(scan, ir.OrderedScan):
                raise QueryError(
                    "ordered fetch requires an OrderedScan source"
                )
            ids = self._ordered_ids(scan.field, scan.role, scan.tactic,
                                    scan.descending, "OrderedScan")
        else:
            ids = sorted(self.eval_ids(node.source, run))
        verify = verify and run.predicate is not None
        documents: list[dict[str, Value]] = []
        # A bounded read sizes its chunk to end inside it: a prefetch
        # would fetch what nobody reads and the early stop wait for it.
        overlap = not ordered and limit is None
        with closing(self._stream(ids, chunk_size, overlap, scope,
                                  filled)) as stream:
            for document in stream:
                if verify and not evaluate_plain(run.predicate, document):
                    continue
                documents.append(document)
                if limit is not None and len(documents) >= limit:
                    break
        return documents

    # -- read entry points -----------------------------------------------------

    def find(self, plan: ir.Plan, run: Run) -> list[dict[str, Value]]:
        return self._docs(plan.root, run, run.limit)

    def find_ids(self, plan: ir.Plan, run: Run) -> set[str]:
        return self.eval_ids(plan.root, run)

    def count(self, plan: ir.Plan, run: Run) -> int:
        root = plan.root
        if isinstance(root, ir.StoreCount):
            return self._timed_docs(
                "StoreCount", "count", query={"schema": self._x.schema.name}
            )
        if isinstance(root, ir.Count):
            source = root.source
            if isinstance(source, (ir.Decrypt, ir.Verify, ir.FetchDocs)):
                return len(self._docs(source, run, limit=None))
            return len(self.eval_ids(source, run))
        raise QueryError(f"count plan bottoms out at {root.kind}")

    def aggregate(self, plan: ir.Plan, run: Run) -> Value:
        root = plan.root
        if isinstance(root, ir.Extreme):
            return self._extreme(root, run)
        if isinstance(root, ir.CloudAggregate):
            return self._cloud_aggregate(root, run)
        # Aggregate COUNT without a counting tactic degrades to count().
        return self.count(plan, run)

    def _cloud_aggregate(self, node: ir.CloudAggregate, run: Run) -> Value:
        doc_ids = sorted(self.eval_ids(node.source, run))
        instance = self._x.lookup_instance(node.field, node.role,
                                           node.tactic)
        started = time.perf_counter()
        result = instance.aggregate(node.function, doc_ids)
        self._observe("CloudAggregate", node.tactic,
                      time.perf_counter() - started)
        return result

    def _extreme(self, node: ir.Extreme, run: Run) -> Value:
        """Min/max off the order tactic's sorted index.

        Candidates stream in value order, narrowed to the filter's id
        set; the first live document carrying a value wins.  The index
        is insert-as-upsert, so live documents are current; deleted ones
        never leave the stream.
        """
        allowed: set[str] | None = None
        if node.filter is not None:
            allowed = self.eval_ids(node.filter, run)
            if not allowed:
                return None
        ordered = self._ordered_ids(node.field, node.role, node.tactic,
                                    node.function == "max", "Extreme")
        if allowed is not None:
            ordered = (doc_id for doc_id in ordered if doc_id in allowed)
        scope = self._x.cache_read_scope()
        with closing(self._stream(ordered, 16, False, scope)) as stream:
            for document in stream:
                value = document.get(node.field)
                if value is not None:
                    return value
        return None

    def text_search(self, query: str, limit: int,
                    require_all: bool) -> list[dict[str, Value]]:
        """The cloud text index's ranked hits among this schema's
        documents, read in rank order through :meth:`_stream`."""
        scope = self._x.cache_read_scope()
        hits = self._timed_docs(
            "TextSearch", "find_text", query=query, limit=limit,
            require_all=require_all, schema=self._x.schema.name,
        )
        ids = [doc_id for doc_id, _ in hits]
        with closing(self._stream(ids, max(len(ids), 1), False,
                                  scope)) as stream:
            return list(stream)

    # -- write entry points ----------------------------------------------------

    def _note_local_write(self, doc_ids: list[str]) -> None:
        """Read-your-writes invalidation into the cache tier (no-op
        without one): bump the schema's write version and drop the
        written ids' document entries, negatives included."""
        tier = self._x.runtime.cache_tier
        if tier is not None:
            tier.note_local_write(self._x.schema.name, doc_ids)

    def insert_bulk(self,
                    documents: list[dict[str, Value]]) -> list[str]:
        """Field-major bulk insert through the tactic batch SPI.

        Phase 1 (crypto): validate and split every document, *begin*
        every field's index batch (DET dedup, OPE memo walks, Paillier
        encryption — or, for a tactic without a batch kernel, nothing:
        its default ``index_many_begin`` leaves the per-entry protocol
        loop to *finish*) and seal the document bodies.  Phase 2 (wire):
        finish each batch inside one write-batch scope.  A batch finish
        sends one ``insert_many`` slot per tactic service; under
        ``batch_writes`` those slots *and* the document-store write
        leave the gateway in a single frame, without it one frame per
        slot.  The two phases land in separate
        ``Crypto:insert`` / ``Wire:insert`` stat rows, beside the
        ``Crypto:<kernel>`` rows the kernels book into the operation's
        timing sink, so ``explain()`` shows where a bulk write spends
        its time.

        Index RPCs leave field by field, not document by document; no
        tactic orders its index entries by arrival.
        """
        x = self._x
        started = time.perf_counter()
        prepared: list[tuple[str, dict[str, Value], dict[str, Value]]] = []
        for document in documents:
            x.schema.validate(document)
            doc_id = document.get("_id") or x._generate_doc_id()
            sensitive, plain = x._split_document(document)
            prepared.append((doc_id, sensitive, plain))

        field_entries: dict[str, list[tuple[str, Value]]] = {}
        for doc_id, sensitive, _ in prepared:
            for field, value in sensitive.items():
                if value is not None:
                    field_entries.setdefault(field, []).append(
                        (doc_id, value)
                    )

        finishers = []
        bool_fields: set[str] = set()
        for field, entries in field_entries.items():
            for instance in x._field_instances(field):
                if instance is x._bool_instance:
                    bool_fields.add(field)
                elif isinstance(instance, GatewayInsertion):
                    finishers.append(instance.index_many_begin(entries))
        doc_bool_terms: list[tuple[str, list[bytes]]] = []
        if x._bool_instance is not None and bool_fields:
            for doc_id, sensitive, _ in prepared:
                terms = [
                    x._bool_instance.term(field, value)
                    for field, value in sensitive.items()
                    if value is not None and field in bool_fields
                ]
                if terms:
                    doc_bool_terms.append((doc_id, terms))
        stored = [
            {
                "_id": doc_id,
                "schema": x.schema.name,
                "body": x._seal_body(sensitive),
                "plain": plain,
            }
            for doc_id, sensitive, plain in prepared
        ]
        crypto_elapsed = time.perf_counter() - started

        wire_started = time.perf_counter()
        with x._write_batch():
            for finish in finishers:
                finish()
            for doc_id, terms in doc_bool_terms:
                x._bool_instance.insert_terms(doc_id, terms)
            if stored:
                x.runtime.docs("insert_many", documents=stored)
        wire_elapsed = time.perf_counter() - wire_started

        self._stats.record_node("Crypto:insert", crypto_elapsed)
        self._stats.record_node("Wire:insert", wire_elapsed)
        self._stats.record_node(
            "WritePipeline:insert", time.perf_counter() - started
        )
        doc_ids = [doc_id for doc_id, _, _ in prepared]
        self._note_local_write(doc_ids)
        return doc_ids

    def update(self, doc_id: str, changes: dict[str, Value]) -> None:
        x = self._x
        started = time.perf_counter()
        # Read-modify-write must see the authoritative stored version,
        # so the fetch bypasses the document cache.
        old = x.get_uncached(doc_id)
        new = {k: v for k, v in old.items() if k != "_id"}
        new.update({k: v for k, v in changes.items() if k != "_id"})
        x.schema.validate(new)

        old_sensitive, _ = x._split_document(old)
        new_sensitive, new_plain = x._split_document(new)

        with x._write_batch():
            self._apply_update(doc_id, old_sensitive, new_sensitive,
                               new_plain)
        self._stats.record_node(
            "WritePipeline:update", time.perf_counter() - started
        )
        self._note_local_write([doc_id])

    def _apply_update(self, doc_id: str,
                      old_sensitive: dict[str, Value],
                      new_sensitive: dict[str, Value],
                      new_plain: dict[str, Value]) -> None:
        x = self._x
        bool_changed = False
        for field in set(old_sensitive) | set(new_sensitive):
            old_value = old_sensitive.get(field)
            new_value = new_sensitive.get(field)
            if old_value == new_value:
                continue
            for instance in x._field_instances(field):
                if instance is x._bool_instance:
                    bool_changed = True
                elif isinstance(instance, GatewayUpdate) and (
                    old_value is not None and new_value is not None
                ):
                    instance.update(doc_id, old_value, new_value)
                elif new_value is not None and isinstance(
                    instance, GatewayInsertion
                ):
                    if old_value is not None and isinstance(
                        instance, GatewayDeletion
                    ):
                        instance.delete(doc_id, old_value)
                    instance.insert(doc_id, new_value)
                elif new_value is None and old_value is not None and (
                    isinstance(instance, GatewayDeletion)
                ):
                    instance.delete(doc_id, old_value)
        if bool_changed and x._bool_instance is not None:
            x._bool_instance.update_terms(
                doc_id,
                x._bool_terms(old_sensitive),
                x._bool_terms(new_sensitive),
            )
        x.runtime.docs("replace", document={
            "_id": doc_id,
            "schema": x.schema.name,
            "body": x._seal_body(new_sensitive),
            "plain": new_plain,
        })

    def delete(self, doc_id: str) -> bool:
        x = self._x
        started = time.perf_counter()
        try:
            # Authoritative read: index deletion must remove exactly the
            # stored values, never a cached approximation.
            old = x.get_uncached(doc_id)
        except (DocumentNotFound, RemoteError):
            return False
        old_sensitive, _ = x._split_document(old)
        try:
            with x._write_batch():
                for field, value in old_sensitive.items():
                    if value is None:
                        continue
                    for instance in x._field_instances(field):
                        if instance is x._bool_instance:
                            continue
                        if isinstance(instance, GatewayDeletion):
                            instance.delete(doc_id, value)
                if x._bool_instance is not None:
                    terms = x._bool_terms(old_sensitive)
                    if terms:
                        x._bool_instance.delete_terms(doc_id, terms)
                # The document-store delete needs its result, so under a
                # write batch it rides as the batch's final element (the
                # collector flushes and hands its result back).
                deleted = bool(x.runtime.docs("delete", doc_id=doc_id))
                if deleted:
                    self._note_local_write([doc_id])
                return deleted
        finally:
            self._stats.record_node(
                "WritePipeline:delete", time.perf_counter() - started
            )
