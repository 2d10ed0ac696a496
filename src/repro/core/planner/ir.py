"""The plan IR: an immutable operator DAG over protected indexes.

Arasu & Kaushik's oblivious query processing and Vaswani et al.'s
information-flow analysis both model encrypted query execution as an
explicit operator plan; this module is that shape for DataBlinder.  A
plan is a tree of frozen dataclass nodes.  Id-producing nodes
(``IndexLookup``, ``BoolQuery``, ``SetOp``, ``AllIds``, ``OrderedScan``)
feed the document pipeline (``FetchDocs`` -> ``Decrypt`` -> ``Verify``
-> ``Limit``/``ProjectIds``/``Count``; a ``find`` over one co-located
lookup starts at ``ColocatedFetch`` instead) or a terminal computation
(``Extreme``, ``CloudAggregate``).  Write operations compile to a
``WritePipeline`` of stage nodes.

Predicate *values* never appear in a plan: the compiler replaces each
literal value with a :class:`Param` slot, so a plan is reusable for
every predicate of the same shape — the property the plan cache relies
on — and so a cached plan never pins sensitive plaintext in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Param:
    """A slot in a plan's binding vector (a parameterized literal value)."""

    index: int


class PlanNode:
    """Base class of all plan operators."""

    @property
    def kind(self) -> str:
        return type(self).__name__

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def detail(self) -> str:
        """One-line operand summary for EXPLAIN rendering."""
        return ""


# ---------------------------------------------------------------------------
# Id-producing nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllIds(PlanNode):
    """The schema's full live id universe (one memoized fetch per run)."""


@dataclass(frozen=True)
class IndexLookup(PlanNode):
    """One Eq/Range literal resolved against a single index.

    ``tactic`` is ``None`` for non-sensitive fields, which the cloud
    document store serves in plaintext.  ``param``/``low_param``/
    ``high_param`` are binding-vector slots; a ``None`` range slot means
    that bound is structurally open.
    """

    field: str
    op: str  # "eq" | "range"
    role: str | None
    tactic: str | None
    param: int | None = None
    low_param: int | None = None
    high_param: int | None = None

    def detail(self) -> str:
        target = self.tactic or "plain"
        if self.op == "range":
            bounds = (
                f"[{'lo' if self.low_param is not None else '-inf'}, "
                f"{'hi' if self.high_param is not None else '+inf'}]"
            )
            return f"{self.op} {self.field} {bounds} via {target}"
        return f"{self.op} {self.field} via {target}"


@dataclass(frozen=True)
class BoolQuery(PlanNode):
    """CNF clauses served natively by the schema's shared boolean tactic.

    ``clauses`` is a CNF of ``(field, param_slot)`` terms; the whole
    conjunction ships as one ``bool_query_terms`` protocol round.
    """

    tactic: str
    clauses: tuple[tuple[tuple[str, int], ...], ...]

    def detail(self) -> str:
        rendered = " & ".join(
            "(" + " | ".join(field for field, _ in clause) + ")"
            for clause in self.clauses
        )
        return f"{rendered} via {self.tactic}"


@dataclass(frozen=True)
class SetOp(PlanNode):
    """Gateway-side id-set combination: union, intersect, or diff.

    ``intersect`` parts evaluate in order with an empty-set short
    circuit; ``diff`` is ``parts[0] - parts[1]``.
    """

    op: str  # "union" | "intersect" | "diff"
    parts: tuple[PlanNode, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return self.parts

    def detail(self) -> str:
        return self.op


@dataclass(frozen=True)
class OrderedScan(PlanNode):
    """The order tactic's sorted id list (ORDER BY / min-max streaming)."""

    field: str
    role: str
    tactic: str
    descending: bool

    def detail(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"{self.field} {direction} via {self.tactic}"


# ---------------------------------------------------------------------------
# Document pipeline nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FetchDocs(PlanNode):
    """Chunked ``get_many`` of the source's candidate ids.

    ``chunk_default`` is the node's chunk size; an unordered fetch under
    a runtime ``limit`` uses ``max(2 * limit, 16)`` instead, so a small
    limit keeps the transfer small.
    """

    source: PlanNode
    chunk_default: int = 64
    ordered: bool = False  # preserve source order instead of sorting ids

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def detail(self) -> str:
        return f"chunk={self.chunk_default}"


@dataclass(frozen=True)
class ColocatedFetch(PlanNode):
    """``FetchDocs`` over one ``IndexLookup`` in a single per-shard round.

    The lookup's tactic declares ``colocated_lookup``: its index entries
    live on the shard of their document, so each shard resolves the
    token and returns, in the same reply, the documents of its first
    chunk of matching ids (sorted) plus the whole id list.  Ids left
    without a document (a reshard in flight, a cross-shard miss) are
    fetched by the ordinary ``get_many`` afterwards.  One node: the
    lookup is its operand, not a child.
    """

    lookup: IndexLookup
    chunk_default: int = 64

    def detail(self) -> str:
        return f"{self.lookup.detail()}, chunk={self.chunk_default}"


@dataclass(frozen=True)
class Decrypt(PlanNode):
    """AEAD-open fetched bodies into plaintext documents (gateway-side)."""

    source: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Verify(PlanNode):
    """Re-check decrypted documents against the plaintext predicate.

    Trims tactic approximations (BIEX-ZMF false positives, stale
    insert-as-upsert entries, Sophos addition-only updates) so results
    are exact.  The compiler omits this node when every feeding index is
    declared ``exact_search`` and membership cannot change.
    """

    source: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Limit(PlanNode):
    """Stop after ``limit`` surviving documents (bound at run time)."""

    source: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)


@dataclass(frozen=True)
class ProjectIds(PlanNode):
    """Reduce a document stream to its id set."""

    source: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Count(PlanNode):
    """Cardinality of an id set or document stream."""

    source: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)


@dataclass(frozen=True)
class StoreCount(PlanNode):
    """The document store's native per-schema count (no id transfer)."""


# ---------------------------------------------------------------------------
# Terminal computations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extreme(PlanNode):
    """Min/max streamed off the order index, first survivor wins."""

    function: str  # "min" | "max"
    field: str
    role: str
    tactic: str
    filter: PlanNode | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.filter,) if self.filter is not None else ()

    def detail(self) -> str:
        return f"{self.function}({self.field}) via {self.tactic}"


@dataclass(frozen=True)
class CloudAggregate(PlanNode):
    """Cloud-side homomorphic aggregate over the source's id set."""

    function: str
    field: str
    role: str
    tactic: str
    source: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.source,)

    def detail(self) -> str:
        return f"{self.function}({self.field}) via {self.tactic}"


# ---------------------------------------------------------------------------
# Write pipeline nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadDoc(PlanNode):
    """Fetch-and-decrypt the current version (update/delete pre-image)."""


@dataclass(frozen=True)
class IndexMaintain(PlanNode):
    """Per-field tactic index maintenance for one write operation.

    ``fields`` maps each sensitive field to the tactics its entries
    land in.
    """

    op: str  # "insert" | "update" | "delete"
    fields: tuple[tuple[str, tuple[str, ...]], ...]

    def detail(self) -> str:
        return f"{self.op} over {len(self.fields)} field(s)"


@dataclass(frozen=True)
class StoreWrite(PlanNode):
    """The document-store write closing a write operation's batch."""

    method: str  # "insert_many" | "replace" | "delete"

    def detail(self) -> str:
        return self.method


@dataclass(frozen=True)
class WritePipeline(PlanNode):
    """A write operation's stages; index + store writes share one batch
    frame when ``PipelineConfig.batch_writes`` is on."""

    op: str  # "insert" | "update" | "delete"
    steps: tuple[PlanNode, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return self.steps

    def detail(self) -> str:
        return self.op


# ---------------------------------------------------------------------------
# The plan container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """One compiled operation."""

    operation: str
    schema: str
    root: PlanNode
    #: Number of value slots the binding vector must fill.
    param_count: int = 0
    #: Effective verification flag baked into the plan's shape.
    verify: bool = False


def walk(node: PlanNode, depth: int = 0) -> Iterator[tuple[PlanNode, int]]:
    """Depth-first (node, depth) traversal of a plan subtree."""
    yield node, depth
    for child in node.children():
        yield from walk(child, depth + 1)
