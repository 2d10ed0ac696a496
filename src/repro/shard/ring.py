"""Consistent hash ring with virtual nodes.

Every physical node contributes ``vnodes`` points on a 64-bit ring; a
shard key is owned by the first node point clockwise of the key's own
point.  Adding a node therefore moves only the keys falling between its
new points and their predecessors (~1/N of the keyspace), which is what
makes online resharding incremental.

The hash is keyed blake2b with a deterministic seed (the router uses
the defaults, 64 virtual nodes and seed 0), so two parties holding the
same ``(nodes, vnodes, seed)`` spec — e.g. the gateway-side router and
a cloud-side tactic evaluating ``shard_export`` ownership — compute
identical placements.
"""

from __future__ import annotations

import bisect
from hashlib import blake2b
from typing import Any, Iterable


def _salt(seed: int) -> bytes:
    # blake2b salts are at most 16 bytes; pad deterministic seed bytes.
    return seed.to_bytes(8, "big").rjust(16, b"\x00")


class HashRing:
    """Maps shard keys (str | bytes) to node names."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64,
                 seed: int = 0):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.seed = seed
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------------

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.vnodes):
            point = self._point(f"{node}#{replica}".encode())
            bisect.insort(self._points, (point, node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(p, n) for p, n in self._points if n != node]

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    # -- lookup --------------------------------------------------------------

    def _point(self, data: bytes) -> int:
        digest = blake2b(data, digest_size=8, salt=_salt(self.seed))
        return int.from_bytes(digest.digest(), "big")

    def owner(self, key: str | bytes) -> str:
        """The node owning ``key``."""
        return self.owners(key, 1)[0]

    def owners(self, key: str | bytes, count: int) -> list[str]:
        """The first ``count`` *distinct* nodes clockwise of ``key``.

        Used for replication: owners[0] is the primary, the rest are
        replicas.  ``count`` is clamped to the ring size.
        """
        if not self._points:
            raise ValueError("hash ring has no nodes")
        if isinstance(key, str):
            key = key.encode()
        start = bisect.bisect_right(self._points, (self._point(key),
                                                   "\x7f" * 8))
        found: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) >= min(count, len(self._nodes)):
                    break
        return found

    # -- serialisable spec ---------------------------------------------------

    def spec(self, self_node: str | None = None) -> dict[str, Any]:
        """A wire-shippable description of this ring.

        ``self_node`` marks which member the receiving side *is* — a
        cloud tactic evaluating export ownership needs to know its own
        name within the ring.
        """
        spec: dict[str, Any] = {
            "nodes": self.nodes(),
            "vnodes": self.vnodes,
            "seed": self.seed,
        }
        if self_node is not None:
            spec["self"] = self_node
        return spec

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "HashRing":
        return cls(spec["nodes"], vnodes=spec["vnodes"], seed=spec["seed"])


def spec_ring(spec: dict[str, Any]) -> tuple[HashRing, str | None]:
    """Rebuild ``(ring, origin_node)`` from a wire spec."""
    return HashRing.from_spec(spec), spec.get("self")
