"""Sharded untrusted zone: hash-ring routing, scatter/gather, resharding.

The paper's deployment view (Fig. 3) draws the untrusted zone as several
cloud providers; this package partitions the encrypted document store and
every secure index across N :class:`~repro.cloud.server.CloudZone` nodes
behind the standard :class:`~repro.net.transport.Transport` interface, so
the gateway (and every tactic protocol) stays oblivious to the topology.
A node is any transport — a :class:`~repro.net.tcp.TcpTransport` to
another provider included — so several providers are several nodes, each
holding the documents *and* the index entries of its key range.

* :mod:`repro.shard.ring` — consistent hash ring with virtual nodes.
* :mod:`repro.shard.router` — :class:`ShardedTransport`: key-routes
  single-key operations, scatters index queries, merges per tactic.
* :mod:`repro.shard.rebalance` — :class:`Resharder`: online node
  join/leave streaming documents and secure-index entries in chunks
  behind a forwarding table.
"""

from repro.shard.config import ShardConfig
from repro.shard.rebalance import MigrationReport, Resharder
from repro.shard.ring import HashRing
from repro.shard.router import ShardedTransport

__all__ = [
    "HashRing",
    "MigrationReport",
    "Resharder",
    "ShardConfig",
    "ShardedTransport",
]
