"""Service Provider Interfaces (Table 1 of the paper).

Each high-level data-access operation decomposes into *gateway* interfaces
(run in the trusted zone) and *cloud* interfaces (run in the untrusted
zone).  A tactic implements the subset matching its functionality; the
``Setup`` pair is mandatory for every tactic.  Table 2's per-tactic SPI
counts are derived by introspecting which of these ABCs a tactic's gateway
and cloud classes implement (see
:func:`repro.spi.descriptors.implemented_interfaces`).

The gateway classes receive a :class:`repro.spi.context.GatewayTacticContext`
and talk to their cloud counterpart exclusively through its RPC service —
tactics are inherently distributed protocols (§4.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.crypto.encoding import Value

DocId = str
DocIdSet = set[str]

# ---------------------------------------------------------------------------
# Gateway-side interfaces
# ---------------------------------------------------------------------------


class GatewaySetup(ABC):
    """Mandatory: key material generation and initial index provisioning."""

    @abstractmethod
    def setup(self) -> None:
        ...


class GatewayInsertion(ABC):
    """Index/encrypt one field value of a newly inserted document."""

    @abstractmethod
    def insert(self, doc_id: DocId, value: Value) -> None:
        ...


class GatewayDocIDGen(ABC):
    """Generate unlinkable document identifiers."""

    @abstractmethod
    def generate_doc_id(self) -> DocId:
        ...


class GatewaySecureEnc(ABC):
    """Produce/open the stored (body) representation of a value."""

    @abstractmethod
    def seal(self, value: Value) -> bytes:
        ...

    @abstractmethod
    def open(self, blob: bytes) -> Value:
        ...


class GatewayUpdate(ABC):
    """Re-index a field value change of an existing document."""

    @abstractmethod
    def update(self, doc_id: DocId, old_value: Value,
               new_value: Value) -> None:
        ...


class GatewayRetrieval(ABC):
    """Fetch tactic-held state needed to serve a document read."""

    @abstractmethod
    def retrieve(self, doc_id: DocId) -> Any:
        ...


class GatewayDeletion(ABC):
    """Remove a document's traces from the tactic's structures."""

    @abstractmethod
    def delete(self, doc_id: DocId, value: Value) -> None:
        ...


class GatewayEqQuery(ABC):
    """Build the equality-search trapdoor and run the cloud protocol."""

    @abstractmethod
    def eq_query(self, value: Value) -> Any:
        """Return the raw protocol response (resolved separately)."""


class GatewayEqResolution(ABC):
    """Turn the raw equality response into plaintext document ids."""

    @abstractmethod
    def resolve_eq(self, raw: Any) -> DocIdSet:
        ...


class GatewayBoolQuery(ABC):
    """Build trapdoors for a boolean (CNF) query and run the protocol.

    ``cnf`` is a list of clauses; each clause is a list of
    ``(field, value)`` terms combined by OR, clauses combined by AND.
    """

    @abstractmethod
    def bool_query(self, cnf: list[list[tuple[str, Value]]]) -> Any:
        ...


class GatewayBoolResolution(ABC):
    @abstractmethod
    def resolve_bool(self, raw: Any) -> DocIdSet:
        ...


class GatewayRangeQuery(ABC):
    """Encrypt range bounds and run the cloud-side comparison protocol."""

    @abstractmethod
    def range_query(self, low: Value, high: Value) -> DocIdSet:
        ...


class GatewayAggFunctionResolution(ABC):
    """Decrypt/post-process an aggregate computed blind by the cloud.

    ``raw`` is the list of partial aggregates, one per shard that
    answered (a single zone gives one); the tactic folds them under its
    public key before decrypting.  ``count`` is their total."""

    @abstractmethod
    def resolve_aggregate(self, function: str, raw: list[Any],
                          count: int) -> Value:
        ...


# ---------------------------------------------------------------------------
# Cloud-side interfaces
# ---------------------------------------------------------------------------


class CloudSetup(ABC):
    """Mandatory: provision the cloud-side structures for one tactic."""

    @abstractmethod
    def setup(self, **params: Any) -> None:
        ...


class CloudInsertion(ABC):
    @abstractmethod
    def insert(self, **payload: Any) -> Any:
        ...


class CloudUpdate(ABC):
    @abstractmethod
    def update(self, **payload: Any) -> Any:
        ...


class CloudRetrieval(ABC):
    @abstractmethod
    def retrieve(self, **payload: Any) -> Any:
        ...


class CloudDeletion(ABC):
    @abstractmethod
    def delete(self, **payload: Any) -> Any:
        ...


class CloudEqQuery(ABC):
    @abstractmethod
    def eq_query(self, **payload: Any) -> Any:
        ...


class CloudBoolQuery(ABC):
    @abstractmethod
    def bool_query(self, **payload: Any) -> Any:
        ...


class CloudRangeQuery(ABC):
    @abstractmethod
    def range_query(self, **payload: Any) -> Any:
        ...


class CloudAggFunction(ABC):
    """Evaluate an aggregate over ciphertexts without decrypting.

    Returns a list of one partial; a shard router concatenates the
    lists of its nodes into the ``raw`` of ``resolve_aggregate``."""

    @abstractmethod
    def aggregate(self, **payload: Any) -> list[Any]:
        ...


GATEWAY_INTERFACES: dict[str, type] = {
    "Setup": GatewaySetup,
    "Insertion": GatewayInsertion,
    "DocIDGen": GatewayDocIDGen,
    "SecureEnc": GatewaySecureEnc,
    "Update": GatewayUpdate,
    "Retrieval": GatewayRetrieval,
    "Deletion": GatewayDeletion,
    "EqQuery": GatewayEqQuery,
    "EqResolution": GatewayEqResolution,
    "BoolQuery": GatewayBoolQuery,
    "BoolResolution": GatewayBoolResolution,
    "RangeQuery": GatewayRangeQuery,
    "AggFunctionResolution": GatewayAggFunctionResolution,
}

# Table 1 of the paper: which SPI interfaces compose each high-level
# data-access operation.  <Read> and <Query> denote the interface sets of
# a retrieval / search operation folded into the row.
TABLE1: dict[str, dict[str, list[str]]] = {
    "Insert": {
        "gateway": ["Insertion", "DocIDGen", "SecureEnc"],
        "cloud": ["Insertion"],
    },
    "Update": {
        "gateway": ["Update", "DocIDGen", "Retrieval", "SecureEnc"],
        "cloud": ["Update", "Retrieval"],
    },
    "Delete": {
        "gateway": ["Deletion"],
        "cloud": ["Deletion"],
    },
    "Read": {
        "gateway": ["Retrieval", "SecureEnc"],
        "cloud": ["Retrieval"],
    },
    "Equality Search": {
        "gateway": ["EqQuery", "EqResolution", "<Read>"],
        "cloud": ["EqQuery"],
    },
    "Boolean Search": {
        "gateway": ["BoolQuery", "BoolResolution", "<Read>"],
        "cloud": ["BoolQuery"],
    },
    "Range Query": {
        "gateway": ["RangeQuery", "<Read>"],
        "cloud": ["RangeQuery"],
    },
    "Aggregate": {
        "gateway": ["<Query>", "AggFunctionResolution"],
        "cloud": ["AggFunction"],
    },
}

CLOUD_INTERFACES: dict[str, type] = {
    "Setup": CloudSetup,
    "Insertion": CloudInsertion,
    "Update": CloudUpdate,
    "Retrieval": CloudRetrieval,
    "Deletion": CloudDeletion,
    "EqQuery": CloudEqQuery,
    "BoolQuery": CloudBoolQuery,
    "RangeQuery": CloudRangeQuery,
    "AggFunction": CloudAggFunction,
}
