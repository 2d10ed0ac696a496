"""Built-in data protection tactics (the implemented rows of Table 2).

Each tactic registers a descriptor — protection class, per-operation
leakage profile, performance characteristics, the Table 2 'Challenge'
and 'Implementation' notes — together with its gateway and cloud
implementation classes.  The SPI interface counts reported in the
Table 2 benchmark are *derived* from those classes by introspection.

An eleventh tactic (ElGamal products) extends the paper's catalog to
demonstrate the pluggable architecture.
"""

from __future__ import annotations

from repro.spi.descriptors import (
    Aggregate,
    Operation,
    PerformanceMetrics,
    TacticDescriptor,
)
from repro.spi.leakage import (
    LeakageLevel,
    LeakageProfile,
    OperationLeakage,
    ProtectionClass,
)
from repro.tactics.blind_index import BlindIndexCloud, BlindIndexGateway
from repro.tactics.biex import (
    Biex2LevCloud,
    Biex2LevGateway,
    BiexZmfCloud,
    BiexZmfGateway,
)
from repro.tactics.det import DetCloud, DetGateway
from repro.tactics.elgamal_tactic import ElGamalCloud, ElGamalGateway
from repro.tactics.mitra import MitraCloud, MitraGateway
from repro.tactics.ope_tactic import OpeCloud, OpeGateway
from repro.tactics.ore_tactic import OreCloud, OreGateway
from repro.tactics.paillier_tactic import PaillierCloud, PaillierGateway
from repro.tactics.rnd import RndCloud, RndGateway
from repro.tactics.sophos import SophosCloud, SophosGateway
from repro.tactics.stateless import StatelessSseCloud, StatelessSseGateway


def _profile(level: LeakageLevel, setup: str, query: str,
             operations: list[str],
             forward_private: bool = False) -> LeakageProfile:
    return LeakageProfile({
        op: OperationLeakage(
            level=level,
            setup_leakage=setup,
            query_leakage=query,
            forward_private=forward_private,
        )
        for op in operations
    })


_OPS = Operation
_AGG = Aggregate

DET_DESCRIPTOR = TacticDescriptor(
    name="det",
    display_name="DET",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.READ,
                          _OPS.UPDATE, _OPS.DELETE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.EQUALITIES,
        setup="value equality across all documents (snapshot adversary)",
        query="query token equality; full access pattern",
        operations=["insert", "update", "delete", "eq_search", "read"],
    ),
    performance=PerformanceMetrics(
        rank=1, search_complexity="O(1)", rounds_per_query=1,
        notes="ciphertext doubles as the search token",
    ),
    protection_class=ProtectionClass.C4,
    challenge="-",
    implementation="implemented from scratch",
    boolean_via_equality=True,
    colocated_lookup=True,
)

MITRA_DESCRIPTOR = TacticDescriptor(
    name="mitra",
    display_name="Mitra",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.UPDATE,
                          _OPS.DELETE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.IDENTIFIERS,
        setup="nothing beyond total index size",
        query="access pattern of matching identifiers",
        operations=["insert", "update", "delete", "eq_search"],
        forward_private=True,
    ),
    performance=PerformanceMetrics(
        rank=4, search_complexity="O(u_w)", rounds_per_query=1,
        client_storage="O(|W|)",
        notes="per-keyword counters at the gateway",
    ),
    protection_class=ProtectionClass.C2,
    challenge="Local storage",
    implementation="implemented from scratch",
    boolean_via_equality=True,
)

SOPHOS_DESCRIPTOR = TacticDescriptor(
    name="sophos",
    display_name="Sophos",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.UPDATE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.IDENTIFIERS,
        setup="nothing beyond total index size",
        query="access pattern of matching identifiers",
        operations=["insert", "update", "eq_search"],
        forward_private=True,
    ),
    performance=PerformanceMetrics(
        rank=5, search_complexity="O(u_w)", rounds_per_query=1,
        client_storage="O(|W|)",
        notes="one RSA inversion per insertion",
    ),
    protection_class=ProtectionClass.C2,
    challenge="Key management",
    implementation="implemented from scratch",
    boolean_via_equality=True,
    # Addition-only updates leave stale old-value entries behind, so
    # candidate sets need gateway-side verification.
    exact_search=False,
)

RND_DESCRIPTOR = TacticDescriptor(
    name="rnd",
    display_name="RND",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.READ}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.STRUCTURE,
        setup="only ciphertext sizes",
        query="only result transfer size (exhaustive scan)",
        operations=["insert", "eq_search", "read"],
    ),
    performance=PerformanceMetrics(
        rank=2, search_complexity="O(n)", rounds_per_query=1,
        notes="equality search transfers every ciphertext to the gateway",
    ),
    protection_class=ProtectionClass.C1,
    challenge="Inefficiency",
    implementation="implemented from scratch",
    boolean_via_equality=True,
    # No Deletion SPI: removed documents stay in the scan until their
    # candidate ids fail the document fetch, so sets can be stale.
    exact_search=False,
)

BIEX_2LEV_DESCRIPTOR = TacticDescriptor(
    name="biex-2lev",
    display_name="BIEX-2Lev",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.BOOLEAN,
                          _OPS.UPDATE, _OPS.DELETE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.PREDICATES,
        setup="bucket sizes of the global and pairwise multimaps",
        query="co-occurrence structure of the boolean predicate",
        operations=["insert", "update", "delete", "eq_search",
                    "bool_search"],
    ),
    performance=PerformanceMetrics(
        rank=6, search_complexity="O(|DB(w1)| * q)", rounds_per_query=1,
        server_storage="O(sum of pairwise co-occurrences)",
        notes="read-efficient, storage-heavy local multimaps",
    ),
    protection_class=ProtectionClass.C3,
    challenge="Storage impl. complexity",
    implementation="re-implementation of the Clusion construction",
)

BIEX_ZMF_DESCRIPTOR = TacticDescriptor(
    name="biex-zmf",
    display_name="BIEX-ZMF",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.BOOLEAN,
                          _OPS.UPDATE, _OPS.DELETE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.PREDICATES,
        setup="filter load factor only",
        query="co-occurrence structure of the boolean predicate",
        operations=["insert", "update", "delete", "eq_search",
                    "bool_search"],
    ),
    performance=PerformanceMetrics(
        rank=7, search_complexity="O(|DB(w1)| * q * k)",
        rounds_per_query=1,
        server_storage="O(filter size)",
        notes="space-efficient matryoshka filters; probabilistic membership",
    ),
    protection_class=ProtectionClass.C3,
    challenge="Storage impl. complexity",
    implementation="re-implementation of the Clusion construction",
    # Matryoshka filters answer membership probabilistically: false
    # positives survive until verification trims them.
    exact_search=False,
)

OPE_DESCRIPTOR = TacticDescriptor(
    name="ope",
    display_name="OPE",
    operations=frozenset({_OPS.INSERT, _OPS.RANGE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.ORDER,
        setup="total numeric order of all values (snapshot adversary)",
        query="queried interval position",
        operations=["insert", "range_search"],
    ),
    performance=PerformanceMetrics(
        rank=8, search_complexity="O(log n + r)", rounds_per_query=1,
        notes="hypergeometric lazy sampling per encryption",
    ),
    protection_class=ProtectionClass.C5,
    challenge="-",
    implementation="re-implementation of the Boldyreva construction",
    # Insert-as-upsert: entries of updated or deleted documents linger
    # in the order index until verification discards them.
    exact_search=False,
    colocated_lookup=True,
)

ORE_DESCRIPTOR = TacticDescriptor(
    name="ore",
    display_name="ORE",
    operations=frozenset({_OPS.INSERT, _OPS.RANGE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.ORDER,
        setup="order via the public comparator; first differing bit",
        query="queried interval position",
        operations=["insert", "range_search"],
    ),
    performance=PerformanceMetrics(
        rank=9, search_complexity="O(log n + r)", rounds_per_query=1,
        notes="comparator invocations instead of numeric comparisons",
    ),
    protection_class=ProtectionClass.C5,
    challenge="-",
    implementation="re-implementation of the CLWW construction",
    # Insert-as-upsert, like OPE: stale entries require verification.
    exact_search=False,
    colocated_lookup=True,
)

PAILLIER_DESCRIPTOR = TacticDescriptor(
    name="paillier",
    display_name="Paillier",
    operations=frozenset({_OPS.INSERT}),
    aggregates=frozenset({_AGG.SUM, _AGG.AVG, _AGG.COUNT}),
    leakage=_profile(
        LeakageLevel.STRUCTURE,
        setup="only ciphertext sizes",
        query="which identifiers feed the aggregate",
        operations=["insert", "aggregate"],
    ),
    performance=PerformanceMetrics(
        rank=10, search_complexity="O(k)", rounds_per_query=1,
        notes="two modular exponentiations per insertion",
    ),
    protection_class=None,
    challenge="Key management",
    implementation="implemented from scratch",
)

ELGAMAL_DESCRIPTOR = TacticDescriptor(
    name="elgamal",
    display_name="ElGamal",
    operations=frozenset({_OPS.INSERT}),
    aggregates=frozenset({_AGG.PRODUCT, _AGG.COUNT}),
    leakage=_profile(
        LeakageLevel.STRUCTURE,
        setup="only ciphertext sizes",
        query="which identifiers feed the aggregate",
        operations=["insert", "aggregate"],
    ),
    performance=PerformanceMetrics(
        rank=11, search_complexity="O(k)", rounds_per_query=1,
        notes="extension tactic demonstrating crypto agility",
    ),
    protection_class=None,
    challenge="Key management",
    implementation="implemented from scratch (extension)",
)

BLIND_INDEX_DESCRIPTOR = TacticDescriptor(
    name="blind-index",
    display_name="BlindIndex",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.UPDATE,
                          _OPS.DELETE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.EQUALITIES,
        setup="value equality across all documents (snapshot adversary)",
        query="query token equality; full access pattern",
        operations=["insert", "update", "delete", "eq_search"],
    ),
    performance=PerformanceMetrics(
        rank=13, search_complexity="O(1)", rounds_per_query=1,
        notes="one blinded HSM exponentiation per token; key never at "
              "the gateway (offline dictionary attacks require the HSM)",
    ),
    protection_class=ProtectionClass.C4,
    challenge="HSM round per token",
    implementation="extension (OPRF per the Ionic/EC-OPRF related work)",
    boolean_via_equality=True,
    colocated_lookup=True,
)

STATELESS_SSE_DESCRIPTOR = TacticDescriptor(
    name="sse-stateless",
    display_name="StatelessSSE",
    operations=frozenset({_OPS.INSERT, _OPS.EQUALITY, _OPS.UPDATE,
                          _OPS.DELETE}),
    aggregates=frozenset(),
    leakage=_profile(
        LeakageLevel.IDENTIFIERS,
        setup="nothing beyond total index size",
        query="access pattern; per-keyword update pattern at insert time",
        operations=["insert", "update", "delete", "eq_search"],
        forward_private=False,
    ),
    performance=PerformanceMetrics(
        rank=12, search_complexity="O(u_w)", rounds_per_query=1,
        client_storage="O(1)",
        notes="zero gateway state (cloud-native); trades away forward "
              "privacy — the trade the paper's conclusion discusses",
    ),
    protection_class=ProtectionClass.C2,
    challenge="Forward privacy lost",
    implementation="extension implementing the paper's future work",
)

BUILTIN_TACTICS = [
    (DET_DESCRIPTOR, DetGateway, DetCloud),
    (MITRA_DESCRIPTOR, MitraGateway, MitraCloud),
    (SOPHOS_DESCRIPTOR, SophosGateway, SophosCloud),
    (RND_DESCRIPTOR, RndGateway, RndCloud),
    (BIEX_2LEV_DESCRIPTOR, Biex2LevGateway, Biex2LevCloud),
    (BIEX_ZMF_DESCRIPTOR, BiexZmfGateway, BiexZmfCloud),
    (OPE_DESCRIPTOR, OpeGateway, OpeCloud),
    (ORE_DESCRIPTOR, OreGateway, OreCloud),
    (STATELESS_SSE_DESCRIPTOR, StatelessSseGateway, StatelessSseCloud),
    (BLIND_INDEX_DESCRIPTOR, BlindIndexGateway, BlindIndexCloud),
    (PAILLIER_DESCRIPTOR, PaillierGateway, PaillierCloud),
    (ELGAMAL_DESCRIPTOR, ElGamalGateway, ElGamalCloud),
]


def register_builtin_tactics(registry) -> None:
    """Register every built-in tactic with the given registry."""
    for descriptor, gateway_cls, cloud_cls in BUILTIN_TACTICS:
        registry.register(descriptor, gateway_cls, cloud_cls)
