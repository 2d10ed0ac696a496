"""Integrity & freshness subsystem: Merkle-authenticated untrusted zone.

The seed threat model (honest-but-curious, snapshot adversary) trusts
the cloud to return what was written.  This package closes that gap for
an *actively malicious* host:

* :mod:`repro.integrity.merkle` — incremental Merkle trees with
  placement-stable additive digests over the document store and each
  tactic's secure-index namespace;
* :mod:`repro.integrity.tracker` — the cloud-side trackers maintaining
  those trees from store mutation observers, plus the
  ``integrity/<app>`` report/proof RPC service;
* :mod:`repro.integrity.watermark` — the gateway-held freshness ledger
  that makes a replayed old-but-valid snapshot *stale*, not merely
  unverifiable;
* :mod:`repro.integrity.verify` — the verifying transport implementing
  proof-on-fetch and the audit pass;
* :mod:`repro.integrity.config` — ``PipelineConfig.integrity``, the
  subsystem's on-switch.

Defaults off: without an :class:`IntegrityConfig` the gateway stack,
stores and wire traffic are byte-identical to the seed.
"""

from repro.integrity.config import IntegrityConfig
from repro.integrity.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    digest_root,
    leaf_hash,
    leaf_key,
    merge_digests,
    verify_inclusion,
)
from repro.integrity.tracker import (
    IntegrityService,
    IntegrityTracker,
    digest_of_namespace_dump,
    tree_for_key,
)
from repro.integrity.verify import (
    VerifyingTransport,
    begin_op_scope,
    op_verification,
)
from repro.integrity.watermark import FreshnessLedger, LedgerEntry

__all__ = [
    "EMPTY_ROOT",
    "FreshnessLedger",
    "IntegrityConfig",
    "IntegrityService",
    "IntegrityTracker",
    "LedgerEntry",
    "MerkleTree",
    "VerifyingTransport",
    "begin_op_scope",
    "digest_of_namespace_dump",
    "digest_root",
    "leaf_hash",
    "leaf_key",
    "merge_digests",
    "op_verification",
    "tree_for_key",
    "verify_inclusion",
]
