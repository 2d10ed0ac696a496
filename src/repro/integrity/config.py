"""Integrity subsystem configuration (``PipelineConfig.integrity``)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntegrityConfig:
    """How the gateway verifies untrusted-zone state: its presence is
    the switch, it has no fields.

    Verification is proof-on-fetch: every document read is rewritten to
    its proven variant and the inclusion proof is checked against the
    freshness ledger before the result reaches the executor.  Typed
    :class:`repro.errors.IntegrityError` /
    :class:`repro.errors.StaleStateError` on mismatch.  The audit sweep
    (``DataBlinder.integrity_audit``), which recomputes state roots on
    the cloud and compares them against the ledger, runs on demand
    beside it.

    Verification activates once a registered schema carries a sensitive
    field; every mutation that passes the gateway advances the HSM write
    counter, so the next verified read re-syncs shard watermarks first.
    """
