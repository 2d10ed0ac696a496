"""Configuration of the gateway read-cache tier.

The cache tier lives entirely in the trusted zone (the gateway of the
paper's Fig. 3): the untrusted cloud only ever sees ciphertext, so the
gateway is the one place where plaintext-side caching is admissible at
all.  Even there, cached plaintext is memory-resident secret material,
so admission is leakage-aware: fields annotated at the strictest
protection class are never cached in plaintext, regardless of knobs.

The all-defaults ``PipelineConfig`` carries ``cache=None``, which keeps
the seed read path byte-for-byte: no tier is constructed, no extra
state, no wire changes.  Constructing a :class:`CacheConfig` turns the
three levels on individually; their sizes and time-to-lives are the
constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Result cache capacity (entries).
RESULT_CAPACITY = 512
#: Result entry time-to-live in seconds.  The TTL is the only coherence
#: bound for *cross-gateway* writes when integrity is not configured —
#: with a FreshnessLedger the stamp check supersedes it.
RESULT_TTL_S = 30.0
#: Document cache capacity (entries).
DOCUMENT_CAPACITY = 2048
#: Document entry time-to-live in seconds.
DOCUMENT_TTL_S = 30.0
#: Approximate plaintext budget of the document cache in bytes
#: (capacity bounds it too).
DOCUMENT_MAX_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class CacheConfig:
    """Switches and admission policy of the three-level gateway read
    cache.

    All three levels are *correctness-transparent*: a cached answer is
    only served while its coherence token (topology epoch, key epoch,
    local write version and — with integrity configured — the freshness
    ledger stamp) still matches, so results equal what the uncached
    path would have returned.
    """

    #: Level 1 — memoise deterministic trapdoors (DET seals, blind-index
    #: HSM-OPRF tokens, OPE/ORE codes) per tactic instance, keyed by
    #: plaintext under the instance's key epoch.  Saves crypto-kernel
    #: work and HSM round trips; token bytes on the wire are unchanged
    #: (the memoised functions are deterministic).  Each instance's LRU
    #: holds ``crypto.kernels.config.TOKEN_CACHE_CAPACITY`` entries.
    tokens: bool = True
    #: Level 2 — cache whole query results keyed by compiled plan shape
    #: + parameter values + principal, validated against the coherence
    #: token on every hit.  A repeat query becomes a single
    #: ledger-validation check instead of a scatter/gather.
    results: bool = True
    #: Level 3 — cache decrypted documents by id (bounded LRU with TTL
    #: and size accounting), invalidated by local writes
    #: (read-your-writes) and by ledger root/seq advance for
    #: cross-gateway writes.
    documents: bool = True
    #: Remember DocumentNotFound outcomes so repeated misses for the
    #: same id short-circuit at the gateway.  Negative entries obey the
    #: same coherence token and are dropped when the id is inserted
    #: locally.
    negative_entries: bool = True
    #: Scope result- and document-cache entries by the requesting
    #: principal (the gateway runtime's per-operation principal), so
    #: tenants sharing one gateway never observe each other's cache.
    #: Token caches are key-material-scoped, not principal-scoped: the
    #: trapdoor for a value is identical for every principal.
    per_principal: bool = True
    #: Leakage-aware admission floor for *plaintext-bearing* caches
    #: (documents and document-carrying results): a schema is admitted
    #: only if every sensitive field's protection class is at or above
    #: this value.  Class C1 (== 1, the strictest) is never cacheable —
    #: values below 2 are treated as 2.  Id-only and count results
    #: carry no field plaintext and are always admissible.
    min_cacheable_class: int = 2

    def plaintext_floor(self) -> int:
        """The effective admission floor (C1 is never admissible)."""
        return max(2, int(self.min_cacheable_class))

    @property
    def active(self) -> bool:
        return bool(self.tokens or self.results or self.documents)
