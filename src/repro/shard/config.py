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

    #: Virtual nodes per physical node on the hash ring.
    vnodes: int = 64
    #: Seed of the ring's hash function; part of the shared ring spec.
    seed: int = 0
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
    #: Concurrent scatter legs **per node**: the router's leg pool holds
    #: ``fanout_workers x len(nodes)`` threads (spawned on demand,
    #: resized when membership changes), so the gateway's admission
    #: bound — not this pool — limits how many operations scatter at once.
    fanout_workers: int = 8
