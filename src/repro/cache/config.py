"""Configuration of the gateway read-cache tier.

The cache tier lives entirely in the trusted zone (the gateway of the
paper's Fig. 3): the untrusted cloud only ever sees ciphertext, so the
gateway is the one place where plaintext-side caching is admissible at
all.  Even there, cached plaintext is memory-resident secret material,
so admission follows the per-field protection classes: a schema with
a C1 field is never cached in plaintext.

The all-defaults ``PipelineConfig`` carries ``cache=None``, which keeps
the seed read path: no tier is constructed, no wire changes.  A
:class:`CacheConfig` turns the tier on; its sizes and time-to-lives are
the constants below.  Deterministic token memoisation runs in every
configuration, tier or not.
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
#: Admission floor of the plaintext-bearing levels (documents and
#: document-carrying results): every sensitive field's class must be at
#: or above it, so C1 is never cacheable.  Id-only and count results
#: carry no field plaintext and are always admissible.
PLAINTEXT_FLOOR = 2


@dataclass(frozen=True)
class CacheConfig:
    """The gateway read cache's on-switch: a result cache and a
    document cache with negative entries, both scoped by the requesting
    principal and both *correctness-transparent* — an entry is served
    only while its coherence token still matches (see
    :mod:`repro.cache.tier`).
    """
