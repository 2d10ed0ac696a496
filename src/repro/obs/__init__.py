"""Telemetry spine: count at the source (:mod:`~repro.obs.wire`, the
registry's families), collect on read (:mod:`~repro.obs.collect`).
Imports nothing from the rest of ``repro``."""

from repro.obs.registry import Family, Registry, flatten
from repro.obs.wire import WireCell, WireMeter, merged

__all__ = ["Family", "Registry", "WireCell", "WireMeter", "flatten",
           "merged"]
