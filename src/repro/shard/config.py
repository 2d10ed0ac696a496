"""Sharding configuration.

Kept dependency-free (dataclasses only) so
:class:`~repro.net.batch.PipelineConfig` can reference it without an
import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded untrusted zone.

    The all-defaults config with a 1-node ring behaves exactly like the
    unsharded deployment (the equivalence tests enforce it).
    """

    #: Copies of every routed write (1 = no replication).  A write
    #: returns once every reachable replica has answered and succeeds
    #: if the best-placed delivery did (replica failures are swallowed
    #: and counted); reads fail over to replicas when the owner's
    #: circuit is open.
    replication: int = 1
    #: Scatter broadcasts and write fan-outs run on a thread pool when
    #: True; False keeps every fan-out sequential (the comparison
    #: baseline and the deterministic-ordering debug mode).
    parallel_fanout: bool = True
