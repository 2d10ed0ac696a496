"""Engine: plan execution over the batch/fan-out/prefetch machinery.

Every :class:`~repro.net.batch.PipelineConfig` semantic of the seed
executor is preserved node-by-node: boolean CNF clauses resolve in one
``bool_query_terms`` round before anything else, independent literals
fan out on the shared bounded pool (serial evaluation keeps the
empty-intersection short circuit), candidate fetches are chunked with
optional next-chunk prefetch, and write pipelines run inside one batch
collection scope.

The engine additionally records a latency observation per executed node
into the runtime's :class:`~repro.spi.metrics.CostObservatory` — what
``explain()`` prints beside the descriptor priors — and per-node-kind
timings into the planner's stats.

One deliberate fix over the seed: an early ``limit`` return no longer
leaks the pending prefetch future — it is cancelled, or drained when
already running, on every exit path.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any

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
    from repro.core.planner.planner import PlannerStats


class Run:
    """Per-execution context: bindings plus the run-scoped id memo."""

    __slots__ = ("bindings", "predicate", "_all_ids", "_lock")

    def __init__(self, bindings: list, predicate: Predicate | None):
        self.bindings = bindings
        self.predicate = predicate
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
    def __init__(self, executor: "SchemaExecutor", stats: "PlannerStats"):
        self._x = executor
        self._stats = stats

    # -- observation helpers ---------------------------------------------------

    def _observe(self, scope: str, operation: str, tactic: str,
                 seconds: float, kind: str) -> None:
        self._x.runtime.cost.observe(scope, operation, tactic, seconds)
        self._stats.record_node(f"{kind}:{tactic}", seconds)
        self._drain_shard_timings()

    def _drain_shard_timings(self) -> None:
        """Attribute per-shard wire time to ``Shard:<node>`` stat rows.

        The sharded router accumulates (node, seconds) pairs on the
        calling thread; non-sharded transports return nothing and this
        is a no-op.
        """
        for shard, seconds in self._x.runtime.drain_shard_timings():
            self._stats.record_node(f"Shard:{shard}", seconds)

    def _timed_docs(self, operation: str, kind: str, method: str,
                    **kwargs: Any) -> Any:
        started = time.perf_counter()
        result = self._x.runtime.docs(method, **kwargs)
        self._observe(self._x.schema.name, operation, "docs",
                      time.perf_counter() - started, kind)
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
            "all_ids", "AllIds", "all_ids", schema=self._x.schema.name
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
                "find_plain", "IndexLookup", "find_plain", query=query
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
        self._observe(
            f"{x.schema.name}.{node.field}", node.op, node.tactic,
            time.perf_counter() - started, "IndexLookup",
        )
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
        self._observe(
            x._bool_scope(), "bool", node.tactic,
            time.perf_counter() - started, "BoolQuery",
        )
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
        if (pool is not None and x.pipeline.fanout_workers > 1
                and literal_count > 1):
            futures = [
                [pool.submit(self.eval_ids, leaf, run)
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

    # -- the document pipeline -------------------------------------------------

    def _chunk_size(self, node: ir.FetchDocs, limit: int | None) -> int:
        if not node.ordered and limit is not None:
            # Seed `find` rule: a small limit keeps the transfer small.
            return max(limit * 2, 16)
        return node.chunk_default

    def _docs(self, node: ir.PlanNode, run: Run,
              limit: int | None) -> list[dict[str, Value]]:
        """Execute a Decrypt/Verify/Limit stack over a FetchDocs node."""
        verify = False
        has_limit = False
        while True:
            if isinstance(node, ir.Limit):
                has_limit = True
                node = node.source
            elif isinstance(node, ir.Verify):
                verify = True
                node = node.source
            elif isinstance(node, ir.Decrypt):
                node = node.source
            else:
                break
        if not isinstance(node, ir.FetchDocs):
            raise QueryError(
                f"document pipeline bottoms out at {node.kind}"
            )
        if not has_limit:
            limit = None
        if node.ordered:
            return self._ordered_docs(node, run, limit)
        return self._fetched_docs(node, run, limit, verify)

    def _fetched_docs(self, node: ir.FetchDocs, run: Run,
                      limit: int | None,
                      verify: bool) -> list[dict[str, Value]]:
        """The seed ``find`` loop: chunked get_many with prefetch overlap.

        The pending prefetch future is cancelled (or drained, when the
        pool already started it) on *every* exit path — early ``limit``
        returns included — so no orphaned fetch outlives the call.
        """
        x = self._x
        candidate_ids = sorted(self.eval_ids(node.source, run))
        chunk_size = self._chunk_size(node, limit)
        scope = x.cache_read_scope()
        if scope is not None:
            return self._cached_fetch(scope, candidate_ids, chunk_size,
                                      run, limit, verify)
        chunks = [
            candidate_ids[offset:offset + chunk_size]
            for offset in range(0, len(candidate_ids), chunk_size)
        ]
        pool = x._pool() if x.pipeline.prefetch else None

        def fetch(chunk: list[str]) -> list[dict]:
            return self._timed_docs(
                "get_many", "FetchDocs", "get_many", doc_ids=chunk
            )

        documents: list[dict[str, Value]] = []
        pending: Future | None = None
        try:
            for index, chunk in enumerate(chunks):
                # The first chunk has nothing to overlap with, so it is
                # fetched inline: a pool hop there would only cap
                # concurrent finds at the pool's worker count.
                stored = (pending.result() if pending is not None
                          else fetch(chunk))
                # Overlap the next wire fetch with this chunk's
                # decryption and verification.
                pending = (
                    pool.submit(fetch, chunks[index + 1])
                    if pool is not None and index + 1 < len(chunks)
                    else None
                )
                for item in stored:
                    if item.get("schema") != x.schema.name:
                        continue
                    document = x._decrypt_stored(item)
                    if verify and run.predicate is not None and (
                        not evaluate_plain(run.predicate, document)
                    ):
                        continue
                    documents.append(document)
                    if limit is not None and len(documents) >= limit:
                        return documents
            return documents
        finally:
            if pending is not None and not pending.cancel():
                try:
                    pending.result()
                except Exception:
                    pass  # the result is discarded either way

    def _cached_fetch(self, scope, candidate_ids: list[str],
                      chunk_size: int, run: Run, limit: int | None,
                      verify: bool) -> list[dict[str, Value]]:
        """The fetch loop over the document cache.

        Cached candidates (positive and negative) skip the wire; the
        missing ids fetch chunk-by-chunk as the sorted scan reaches
        them, so an early ``limit`` return stops fetching exactly like
        the seed loop.  When every candidate hits, no ``get_many``
        leaves the gateway at all — the whole answer is one coherence
        validation.  Output is sorted-id order (the order the seed
        produces whenever the store preserves request order).
        """
        from repro.cache.tier import MISS, NEGATIVE

        x = self._x
        missing: list[str] = []
        hits: dict[str, Any] = {}
        for doc_id in candidate_ids:
            found = scope.lookup(doc_id)
            if found is MISS:
                missing.append(doc_id)
            else:
                hits[doc_id] = found
        fetched: dict[str, dict | None] = {}
        fetch_offset = 0

        def fetch_until(doc_id: str) -> None:
            nonlocal fetch_offset
            while doc_id not in fetched and fetch_offset < len(missing):
                chunk = missing[fetch_offset:fetch_offset + chunk_size]
                fetch_offset += chunk_size
                stored = self._timed_docs(
                    "get_many", "FetchDocs", "get_many", doc_ids=chunk
                )
                by_id = {item["_id"]: item for item in stored}
                for wanted in chunk:
                    item = by_id.get(wanted)
                    if item is None or (
                        item.get("schema") != x.schema.name
                    ):
                        scope.store_negative(wanted)
                        fetched[wanted] = None
                        continue
                    document = x._decrypt_stored(item)
                    scope.store(wanted, document)
                    fetched[wanted] = document

        documents: list[dict[str, Value]] = []
        for doc_id in candidate_ids:
            found = hits.get(doc_id, MISS)
            if found is NEGATIVE:
                continue
            if found is MISS:
                fetch_until(doc_id)
                document = fetched.get(doc_id)
                if document is None:
                    continue
            else:
                document = found
            if verify and run.predicate is not None and (
                not evaluate_plain(run.predicate, document)
            ):
                continue
            documents.append(document)
            if limit is not None and len(documents) >= limit:
                return documents
        return documents

    def _ordered_docs(self, node: ir.FetchDocs, run: Run,
                      limit: int | None) -> list[dict[str, Value]]:
        """The seed ``find_sorted`` loop over the order index."""
        x = self._x
        scan = node.source
        if not isinstance(scan, ir.OrderedScan):
            raise QueryError("ordered fetch requires an OrderedScan source")
        instance = x.lookup_instance(scan.field, scan.role, scan.tactic)
        started = time.perf_counter()
        ordered = instance.ordered_ids(descending=scan.descending)
        self._observe(
            f"{x.schema.name}.{scan.field}", "ordered", scan.tactic,
            time.perf_counter() - started, "OrderedScan",
        )
        chunk_size = self._chunk_size(node, None)
        results: list[dict[str, Value]] = []
        offset = 0
        while offset < len(ordered) and (limit is None
                                         or len(results) < limit):
            chunk = ordered[offset:offset + chunk_size]
            offset += chunk_size
            stored = self._timed_docs(
                "get_many", "FetchDocs", "get_many", doc_ids=chunk
            )
            by_id = {item["_id"]: item for item in stored}
            for doc_id in chunk:
                item = by_id.get(doc_id)
                if item is None or item.get("schema") != x.schema.name:
                    continue
                results.append(x._decrypt_stored(item))
                if limit is not None and len(results) >= limit:
                    break
        return results

    # -- read entry points -----------------------------------------------------

    def find(self, plan: ir.Plan, run: Run,
             limit: int | None) -> list[dict[str, Value]]:
        return self._docs(plan.root, run, limit)

    def find_ids(self, plan: ir.Plan, run: Run) -> set[str]:
        return self.eval_ids(plan.root, run)

    def count(self, plan: ir.Plan, run: Run) -> int:
        root = plan.root
        if isinstance(root, ir.StoreCount):
            return self._timed_docs(
                "count", "StoreCount", "count",
                query={"schema": self._x.schema.name},
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
        x = self._x
        doc_ids = sorted(self.eval_ids(node.source, run))
        instance = x.lookup_instance(node.field, node.role, node.tactic)
        started = time.perf_counter()
        result = instance.aggregate(node.function, doc_ids)
        self._observe(
            f"{x.schema.name}.{node.field}", "aggregate", node.tactic,
            time.perf_counter() - started, "CloudAggregate",
        )
        return result

    def _extreme(self, node: ir.Extreme, run: Run) -> Value:
        """Min/max off the order tactic's sorted index (seed loop).

        Candidates stream in value order; each is fetched, decrypted and
        verified (stale upsert entries or a filter predicate may discard
        the head of the list), and the first surviving value wins.
        """
        x = self._x
        instance = x.lookup_instance(node.field, node.role, node.tactic)
        allowed: set[str] | None = None
        if node.filter is not None:
            allowed = self.eval_ids(node.filter, run)
            if not allowed:
                return None
        descending = node.function == "max"
        started = time.perf_counter()
        ordered = instance.ordered_ids(descending=descending)
        self._observe(
            f"{x.schema.name}.{node.field}", "ordered", node.tactic,
            time.perf_counter() - started, "Extreme",
        )
        batch = 16
        offset = 0
        while offset < len(ordered):
            chunk = ordered[offset:offset + batch]
            offset += batch
            candidates = [
                doc_id for doc_id in chunk
                if allowed is None or doc_id in allowed
            ]
            if not candidates:
                continue
            stored = self._timed_docs(
                "get_many", "FetchDocs", "get_many", doc_ids=candidates
            )
            by_id = {item["_id"]: item for item in stored}
            for doc_id in candidates:
                item = by_id.get(doc_id)
                if item is None or item.get("schema") != x.schema.name:
                    continue
                document = x._decrypt_stored(item)
                value = document.get(node.field)
                if value is None:
                    continue
                # The index is insert-as-upsert, so live documents are
                # current; deleted ones were skipped by get_many above.
                return value
        return None

    # -- write entry points ----------------------------------------------------

    def _note_local_write(self, doc_ids: list[str]) -> None:
        """Read-your-writes invalidation into the cache tier (no-op
        without one): bump the schema's write version and drop the
        written ids' document entries, negatives included."""
        tier = self._x.runtime.cache_tier
        if tier is not None:
            tier.note_local_write(self._x.schema.name, doc_ids)

    def insert_bulk(self, plan: ir.Plan,
                    documents: list[dict[str, Value]]) -> list[str]:
        """The seed bulk-insert loop over the write-instance set.

        Under a write batch, every per-field index RPC *and* the final
        document-store write leave the gateway in a single batch frame.
        With active crypto kernels the loop is restructured field-major
        through the tactic batch SPI instead (see
        :meth:`_insert_bulk_kernel`); the default config keeps this
        exact seed path.
        """
        x = self._x
        if x.runtime.crypto.active:
            return self._insert_bulk_kernel(documents)
        started = time.perf_counter()
        stored = []
        doc_ids = []
        with x._write_batch():
            for document in documents:
                x.schema.validate(document)
                doc_id = document.get("_id") or x._generate_doc_id()
                sensitive, plain = x._split_document(document)
                bool_terms: list[bytes] = []
                for field, value in sensitive.items():
                    if value is None:
                        continue
                    for instance in x._field_instances(field):
                        if instance is x._bool_instance:
                            bool_terms.append(instance.term(field, value))
                        elif isinstance(instance, GatewayInsertion):
                            instance.insert(doc_id, value)
                if bool_terms and x._bool_instance is not None:
                    x._bool_instance.insert_terms(doc_id, bool_terms)
                stored.append({
                    "_id": doc_id,
                    "schema": x.schema.name,
                    "body": x._seal_body(sensitive),
                    "plain": plain,
                })
                doc_ids.append(doc_id)
            if stored:
                x.runtime.docs("insert_many", documents=stored)
        self._stats.record_node(
            "WritePipeline:insert", time.perf_counter() - started
        )
        self._drain_shard_timings()
        self._note_local_write(doc_ids)
        return doc_ids

    def _insert_bulk_kernel(
        self, documents: list[dict[str, Value]]
    ) -> list[str]:
        """Field-major bulk insert through the tactic batch SPI.

        Phase 1 (crypto): validate and split every document, *begin*
        every field's index batch (DET dedup, OPE memo walks, Paillier
        encryption) and seal the document bodies.  Phase 2
        (wire): finish each batch into one write-batch frame and flush.
        The two phases land in separate ``Crypto:insert`` /
        ``Wire:insert`` stat rows, with per-kernel breakdown rows drained
        from the executor, so ``explain()`` shows where a bulk write
        spends its time.

        Index RPCs leave field-major instead of the seed's doc-major
        order; the batch collector coalesces both into a single frame,
        and no tactic orders its index entries by arrival.
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
        for name, seconds in x.runtime.kernels.drain_timings():
            self._stats.record_node(f"Crypto:{name}", seconds)
        self._stats.record_node(
            "WritePipeline:insert", time.perf_counter() - started
        )
        self._drain_shard_timings()
        doc_ids = [doc_id for doc_id, _, _ in prepared]
        self._note_local_write(doc_ids)
        return doc_ids

    def update(self, plan: ir.Plan, doc_id: str,
               changes: dict[str, Value]) -> None:
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
        self._drain_shard_timings()
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

    def delete(self, plan: ir.Plan, doc_id: str) -> bool:
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
            self._drain_shard_timings()
