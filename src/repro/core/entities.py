"""The *Entities* interface: the data-access API applications program to.

Fig. 3 exposes three gateway interfaces to the trusted-zone applications;
``Entities`` is the data one — regular CRUD plus the search and aggregate
operations of the Fig. 2 model.  It is a thin façade over the
:class:`repro.core.executor.SchemaExecutor`; applications never touch
keys, tactics or ciphertexts.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
from typing import TYPE_CHECKING

from repro.core.query import AggregateQuery, Eq, Predicate, Range
from repro.crypto.encoding import Value
from repro.spi.descriptors import Aggregate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import SchemaExecutor


class Entities:
    """CRUD + search + aggregates over one registered schema.

    >>> entities = middleware.entities("observation")   # doctest: +SKIP
    >>> doc_id = entities.insert({"status": "final", "value": 6.3})
    >>> entities.find(Eq("status", "final"))
    """

    def __init__(self, executor: SchemaExecutor):
        self._executor = executor

    @property
    def schema_name(self) -> str:
        return self._executor.schema.name

    # -- CRUD -----------------------------------------------------------------

    def insert(self, document: dict[str, Value]) -> str:
        """Insert a document; returns its (possibly generated) id."""
        return self._executor.insert(document)

    def insert_many(self, documents: list[dict[str, Value]]) -> list[str]:
        """Bulk insert; encrypted bodies ship in one round trip."""
        return self._executor.insert_many(documents)

    def get(self, doc_id: str) -> dict[str, Value]:
        """Fetch and decrypt one document by id."""
        return self._executor.get(doc_id)

    def update(self, doc_id: str, changes: dict[str, Value]) -> None:
        """Merge ``changes`` into the stored document and re-index."""
        self._executor.update(doc_id, changes)

    def delete(self, doc_id: str) -> bool:
        """Delete a document; returns whether it existed."""
        return self._executor.delete(doc_id)

    # -- search ------------------------------------------------------------------

    def find(self, predicate: Predicate | None = None,
             verify: bool | None = None,
             limit: int | None = None) -> list[dict[str, Value]]:
        """Search; returns decrypted documents.

        With ``verify`` left at its default, candidates are re-checked
        against the plaintext predicate after decryption, so results are
        exact regardless of tactic approximations.  ``limit`` bounds both
        the result set and the candidate transfer.
        """
        return self._executor.find(predicate, verify=verify, limit=limit)

    def find_one(self, predicate: Predicate) -> dict[str, Value] | None:
        results = self._executor.find(predicate, limit=1)
        return results[0] if results else None

    def find_ids(self, predicate: Predicate | None = None) -> set[str]:
        return self._executor.find_ids(predicate)

    def count(self, predicate: Predicate | None = None) -> int:
        return self._executor.count(predicate)

    # -- aggregates ----------------------------------------------------------------

    def aggregate(self, query: AggregateQuery) -> Value:
        """Run an aggregate (cloud-side homomorphic evaluation)."""
        return self._executor.aggregate(query)

    def average(self, field: str,
                where: Predicate | None = None) -> Value:
        return self.aggregate(AggregateQuery(Aggregate.AVG, field, where))

    def sum(self, field: str, where: Predicate | None = None) -> Value:
        return self.aggregate(AggregateQuery(Aggregate.SUM, field, where))

    def min(self, field: str, where: Predicate | None = None) -> Value:
        """Smallest value, served off the order tactic's sorted index."""
        return self.aggregate(AggregateQuery(Aggregate.MIN, field, where))

    def max(self, field: str, where: Predicate | None = None) -> Value:
        """Largest value, served off the order tactic's sorted index."""
        return self.aggregate(AggregateQuery(Aggregate.MAX, field, where))

    def find_sorted(self, field: str, limit: int | None = None,
                    descending: bool = False) -> list[dict[str, Value]]:
        """Documents ordered by a range-annotated field (ORDER BY)."""
        return self._executor.find_sorted(field, limit=limit,
                                          descending=descending)

    def text_search(self, query: str, limit: int = 10,
                    require_all: bool = False) -> list[dict[str, Value]]:
        """Ranked full-text search over *non-sensitive* string fields.

        Sensitive fields never reach the cloud's text index (they travel
        as an opaque encrypted body), so this searches exactly what the
        schema chose to leave public.
        """
        return self._executor.text_search(query, limit, require_all)

    # -- query planning -----------------------------------------------------------

    def explain(self, predicate: Predicate | None = None,
                **kwargs) -> str:
        """Rendered query plan (no execution); see ``DataBlinder.explain``."""
        return self._executor.explain(predicate=predicate, **kwargs)

    # -- convenience predicates -------------------------------------------------------

    @staticmethod
    def eq(field: str, value: Value) -> Eq:
        return Eq(field, value)

    @staticmethod
    def between(field: str, low: Value, high: Value) -> Range:
        return Range(field, low, high)


def _awaitable(method):
    """The coroutine twin of one :class:`Entities` method: same name,
    signature and result, one ``asyncio.to_thread`` hop."""

    @functools.wraps(method)
    async def hop(self, *args, **kwargs):
        return await asyncio.to_thread(method, self._sync, *args, **kwargs)

    return hop


class AsyncEntities:
    """The coroutine flavour of :class:`Entities`.

    Same operations, same results, awaitable: every coroutine is one
    ``asyncio.to_thread`` hop over the :class:`Entities` method of the
    same name (generated from it below), so there is a single execution
    path (the synchronous plan engine over the synchronous transport
    stack) and the event loop only interleaves whole operations.
    ``to_thread`` copies the caller's context, so the cache principal,
    batch scope, op-verification scope and timing sink follow the
    operation onto its worker.  The façades share the executor, plan
    cache and write pipeline, so sync and async callers may be mixed
    freely on one application.
    """

    def __init__(self, executor: SchemaExecutor):
        self._sync = Entities(executor)

    @property
    def schema_name(self) -> str:
        return self._sync.schema_name

    eq = staticmethod(Entities.eq)
    between = staticmethod(Entities.between)


for _name, _method in vars(Entities).items():
    if not _name.startswith("_") and inspect.isfunction(_method):
        setattr(AsyncEntities, _name, _awaitable(_method))
