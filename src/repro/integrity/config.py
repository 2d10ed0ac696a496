"""Integrity subsystem configuration (``PipelineConfig.integrity``)."""

from __future__ import annotations

from dataclasses import dataclass

#: Verification modes.
MODE_FETCH = "fetch"
MODE_AUDIT = "audit"

_MODES = (MODE_FETCH, MODE_AUDIT)


@dataclass(frozen=True)
class IntegrityConfig:
    """How (and for whom) the gateway verifies untrusted-zone state.

    ``mode`` selects the verification style:

    * ``"fetch"`` — proof-on-fetch: every document read is rewritten to
      its proven variant and the inclusion proof is checked against the
      freshness ledger before the result reaches the executor.  Typed
      :class:`repro.errors.IntegrityError` /
      :class:`repro.errors.StaleStateError` on mismatch.
    * ``"audit"`` — audit-pass: reads are untouched (zero hot-path
      cost); a background/periodic sweep recomputes state roots on the
      cloud and compares them against the ledger.

    Verification activates once a registered schema carries a sensitive
    field; every mutation that passes the gateway advances the HSM write
    counter, so the next verified read re-syncs shard watermarks first.

    ``history`` bounds the retired-root memory per (shard, tree) used
    to distinguish rollback from tampering.
    """

    mode: str = MODE_FETCH
    history: int = 64

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"integrity mode must be one of {_MODES}, got {self.mode!r}"
            )
