"""Simulated hardware security module (HSM).

The paper's *Keys* interface lets the middleware "integrate with
on-premise key management systems (e.g., HSM)".  This module simulates
one: master keys live inside the module, are addressable only by handle,
and never leave it in plaintext.  Data keys are generated inside and
exported only *wrapped* (AES-GCM under the master key), matching how a
real PKCS#11 device is driven.  It also holds monotonic counters — the
trusted state a rollback of the untrusted zone cannot reach.
"""

from __future__ import annotations

import threading

from repro.crypto import oprf
from repro.crypto.primitives.random import RandomSource, default_random
from repro.crypto.symmetric import Aead
from repro.errors import IntegrityError, KeyManagementError


class SimulatedHsm:
    """An in-process HSM with handle-addressed, non-exportable masters."""

    def __init__(self, rng: RandomSource | None = None):
        self._rng = rng or default_random()
        self._masters: dict[str, bytes] = {}
        self._oprf_keys: dict[str, tuple[oprf.OprfGroup, int]] = {}
        self._counters: dict[str, int] = {}
        self._lock = threading.RLock()

    def create_master_key(self, label: str) -> str:
        """Generate a master key inside the module; returns its handle."""
        with self._lock:
            if label in self._masters:
                raise KeyManagementError(f"master key {label!r} exists")
            self._masters[label] = self._rng.token_bytes(32)
            return label

    def has_master_key(self, label: str) -> bool:
        with self._lock:
            return label in self._masters

    def destroy_master_key(self, label: str) -> None:
        with self._lock:
            if self._masters.pop(label, None) is None:
                raise KeyManagementError(f"no master key {label!r}")

    def _envelope(self, label: str) -> Aead:
        with self._lock:
            master = self._masters.get(label)
        if master is None:
            raise KeyManagementError(f"no master key {label!r}")
        return Aead(master[:16], rng=self._rng)

    def generate_wrapped_key(self, label: str, length: int = 32,
                             context: bytes = b"") -> tuple[bytes, bytes]:
        """Generate a data key inside the HSM.

        Returns ``(plaintext_key, wrapped_key)`` — the plaintext copy is
        handed to the caller for immediate use; only the wrapped copy may
        be persisted.
        """
        if length < 16:
            raise KeyManagementError("data keys must be at least 16 bytes")
        key = self._rng.token_bytes(length)
        return key, self.wrap(label, key, context)

    def derive_data_key(self, label: str, context: bytes,
                        length: int = 32) -> bytes:
        """Deterministically derive a data key from a module-held master.

        Unlike :meth:`generate_wrapped_key`, the same ``(label,
        context)`` always yields the same key — the pattern a restarted
        gateway uses to re-obtain its application root without any
        persisted key material outside the HSM.
        """
        from repro.crypto.primitives.hmac_prf import hkdf

        with self._lock:
            master = self._masters.get(label)
        if master is None:
            raise KeyManagementError(f"no master key {label!r}")
        return hkdf(master, b"hsm-derive/" + context, length)

    def wrap(self, label: str, key: bytes, context: bytes = b"") -> bytes:
        return self._envelope(label).encrypt(key, aad=context)

    def unwrap(self, label: str, wrapped: bytes,
               context: bytes = b"") -> bytes:
        try:
            return self._envelope(label).decrypt(wrapped, aad=context)
        except IntegrityError as exc:
            raise KeyManagementError(
                "unwrap failed: wrong master key or tampered blob"
            ) from exc

    # -- monotonic counters -------------------------------------------------

    def advance(self, label: str) -> int:
        """Bump the module-held counter ``label``; returns the new value.

        Counters only ever grow, and every holder of the module sees the
        same value — so gateways sharing an HSM can tell whether any of
        them wrote since they last looked, without asking the cloud.
        """
        with self._lock:
            value = self._counters.get(label, 0) + 1
            self._counters[label] = value
            return value

    def read(self, label: str) -> int:
        """The current value of counter ``label`` (0 before any advance)."""
        with self._lock:
            return self._counters.get(label, 0)

    # -- OPRF keys (blind-index support) -----------------------------------

    def create_oprf_key(self, label: str,
                        group_bits: int = 256) -> oprf.OprfGroup:
        """Generate an OPRF key inside the module; only the group's
        public parameters leave.  Idempotent per label."""
        with self._lock:
            existing = self._oprf_keys.get(label)
            if existing is not None:
                return existing[0]
            group = oprf.generate_group(group_bits,
                                        self._rng.randbelow)
            key = oprf.generate_key(group, self._rng)
            self._oprf_keys[label] = (group, key)
            return group

    def oprf_evaluate(self, label: str, blinded: int) -> int:
        """Evaluate the module-held key on a blinded element.

        The element is blinded, so the HSM learns nothing about the
        input; the caller learns nothing about the key.
        """
        with self._lock:
            entry = self._oprf_keys.get(label)
        if entry is None:
            raise KeyManagementError(f"no OPRF key {label!r}")
        group, key = entry
        return oprf.evaluate_blinded(group, key, blinded)

    def oprf_evaluate_many(self, label: str,
                           blinded: list[int]) -> list[int]:
        """Evaluate a whole batch of blinded elements in one HSM call.

        One lock acquisition and one command round trip for the batch —
        against a real PKCS#11 device this is the difference between N
        serialized command latencies and one — with the same obliviousness
        guarantee per element as :meth:`oprf_evaluate`.
        """
        with self._lock:
            entry = self._oprf_keys.get(label)
        if entry is None:
            raise KeyManagementError(f"no OPRF key {label!r}")
        group, key = entry
        return [
            oprf.evaluate_blinded(group, key, element)
            for element in blinded
        ]
