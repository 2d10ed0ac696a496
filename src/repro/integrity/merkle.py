"""Incremental Merkle trees with placement-stable additive digests.

The untrusted zone maintains one tree per authenticated state domain:
the encrypted document store and each provisioned tactic's secure-index
namespace.  Two digests are kept per tree:

* the **Merkle root** — a history-independent bucketed hash tree (see
  :class:`MerkleTree`) that costs O(log n) hashes per mutated leaf and
  supports per-leaf inclusion proofs checked by the gateway on fetch.
  Root *values* are a property of this tree shape: nothing persists or
  pins them, so they differ from those of earlier versions of this
  module (which hashed the leaves in sorted-key order);
* the **additive set digest** — the sum of all leaf hashes interpreted
  as 256-bit integers, modulo ``2**256`` (the AdHash / MSet-Add-Hash
  construction).  Addition is commutative, so the digest of a cluster
  is the sum of its shards' digests *regardless of placement*: moving a
  leaf from shard A to shard B subtracts the term on one side and adds
  it on the other, leaving the cluster digest invariant.  That is what
  makes roots stable across resharding (the ``shard_export`` migration
  from PR 4 relocates entries without rewriting them).

Leaf and node hashes are domain-separated and every variable-length
part is 4-byte length-prefixed — the same canonical-encoding discipline
as :func:`repro.analysis.snapshot.zone_fingerprint` — so no two
distinct (key, value) pairs can collide structurally.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort

#: Modulus of the additive set digest (hash outputs are 256 bits).
DIGEST_MOD = 1 << 256

#: Root reported for a tree with no leaves.
EMPTY_ROOT = hashlib.sha256(b"datablinder/empty-tree").hexdigest()


def _encode(tag: bytes, *parts: bytes) -> bytes:
    chunks = [tag]
    for part in parts:
        chunks.append(len(part).to_bytes(4, "big"))
        chunks.append(part)
    return b"".join(chunks)


def leaf_key(tag: bytes, *parts: bytes) -> bytes:
    """Canonical leaf key for a store entry.

    ``tag`` names the structure kind (``b"s"`` string, ``b"m"`` map
    entry, ``b"e"`` set member, ``b"c"`` counter, ``b"d"`` document);
    the length-prefixed encoding keeps composite names unambiguous
    (``("a\\x00b", "c")`` never collides with ``("a", "b\\x00c")``).
    """
    return _encode(tag, *parts)


def leaf_hash(key: bytes, value: bytes) -> bytes:
    """Domain-separated hash of one (key, value) leaf."""
    return hashlib.sha256(_encode(b"L", key, value)).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"N" + left + right).digest()


def merge_digests(digests) -> int:
    """Sum additive digests (per-shard -> cluster), mod ``2**256``."""
    total = 0
    for digest in digests:
        total = (total + int(digest)) % DIGEST_MOD
    return total


def digest_root(digest: int) -> str:
    """Hex commitment to an additive digest (the *cluster root*)."""
    payload = b"A" + (int(digest) % DIGEST_MOD).to_bytes(32, "big")
    return hashlib.sha256(payload).hexdigest()


def _depth_for(count: int) -> int:
    """Top-tree depth for ``count`` leaves: 8-16 leaves per bucket on
    average, changing only when ``count`` crosses a power of two."""
    return max(0, count.bit_length() - 4)


def _join(left: bytes | None, right: bytes | None) -> bytes | None:
    """Parent of two top-tree children; an empty side promotes the other."""
    if left is None or right is None:
        return left if right is None else right
    return _node_hash(left, right)


def _fold(level: list[bytes], index: int = 0,
          path: list[tuple[str, str]] | None = None) -> bytes | None:
    """Hash a bucket's sorted leaves down to one node (odd node promoted
    unchanged), appending the proof steps of position ``index`` to
    ``path`` when one is given.  ``None`` for an empty bucket."""
    while len(level) > 1:
        if path is not None:
            sibling = index ^ 1
            if sibling < len(level):
                path.append(("L" if sibling < index else "R",
                             level[sibling].hex()))
            index >>= 1
        nxt = [_node_hash(level[i], level[i + 1])
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0] if level else None


class MerkleTree:
    """A mutable leaf set with an additive digest and a Merkle root whose
    upkeep is O(log n) per mutated leaf.

    **Shape.**  With ``n`` leaves the tree has ``2**d`` buckets,
    ``d = max(0, n.bit_length() - 4)``.  A leaf lives in the bucket named
    by the top ``d`` bits of its :func:`leaf_hash`; a bucket keeps its
    leaf hashes sorted and folds them pairwise (odd node promoted); the
    bucket nodes sit under a complete binary tree of depth ``d`` in which
    an empty side promotes the other.  Every part is a function of the
    leaf *set* alone, so the root is history-independent: any order of
    mutations, a rebuild from raw store state, a WAL replay or a shard
    migration that ends at the same leaves ends at the same root.

    **Cost.**  ``update``/``remove`` adjust the digest and edit one
    sorted bucket (two when an update changes the value); ``root()``
    re-hashes only the buckets touched since the last call and their
    paths to the top; ``proof()`` folds one bucket and reads cached
    siblings above it — ``ceil(log2 n) + 2`` steps at most while no
    bucket holds over four times its expected share, which SHA-256
    placement makes a < 1e-9 event per bucket.  ``d`` changes only when
    ``n`` crosses a power of two; the next ``root()``/``proof()`` then
    re-buckets the leaf hashes and recomputes every node once (as does
    the first one after a bulk load or a ``clear``).
    """

    def __init__(self) -> None:
        self._leaves: dict[bytes, bytes] = {}
        self._acc = 0
        # Bucket lists and the heap-ordered top tree (node 1 is the root,
        # bucket i is node 2**d + i); None until first needed and again
        # whenever the leaf count leaves the depth they were built for.
        self._buckets: list[list[bytes]] | None = None
        self._nodes: list[bytes | None] = []
        self._dirty: set[int] = set()

    def __len__(self) -> int:
        return len(self._leaves)

    # -- mutation -----------------------------------------------------------

    def update(self, key: bytes, value: bytes) -> None:
        new = leaf_hash(key, value)
        old = self._leaves.get(key)
        if old != new:
            self._leaves[key] = new
            self._moved(old, new)

    def remove(self, key: bytes) -> bool:
        old = self._leaves.pop(key, None)
        if old is None:
            return False
        self._moved(old, None)
        return True

    def clear(self) -> None:
        self._leaves.clear()
        self._acc = 0
        self._buckets = None

    def _moved(self, gone: bytes | None, came: bytes | None) -> None:
        """Account for one leaf hash leaving and/or one arriving."""
        buckets = self._buckets
        if buckets is not None and (
            len(buckets) != 1 << _depth_for(len(self._leaves))
        ):
            buckets = self._buckets = None
        if gone is not None:
            self._acc = (self._acc - int.from_bytes(gone, "big")) % DIGEST_MOD
            if buckets is not None:
                slot = self._slot(gone)
                del buckets[slot][bisect_left(buckets[slot], gone)]
                self._dirty.add(slot)
        if came is not None:
            self._acc = (self._acc + int.from_bytes(came, "big")) % DIGEST_MOD
            if buckets is not None:
                slot = self._slot(came)
                insort(buckets[slot], came)
                self._dirty.add(slot)

    def _slot(self, leaf: bytes) -> int:
        """Bucket of a leaf hash: its top ``d`` bits."""
        return int.from_bytes(leaf[:8], "big") * len(self._buckets) >> 64

    # -- digests ------------------------------------------------------------

    def digest(self) -> int:
        """The additive (placement-stable) digest of the leaf set."""
        return self._acc

    def root(self) -> str:
        """Merkle root of the leaf set (hex)."""
        if not self._leaves:
            return EMPTY_ROOT
        self._sync()
        return self._nodes[1].hex()

    def _sync(self) -> None:
        """Bring the cached nodes up to date with the leaf set."""
        if self._buckets is None:
            width = 1 << _depth_for(len(self._leaves))
            leaves = sorted(self._leaves.values())
            # Sorted, so bucket i is the run from the first hash whose
            # top bits reach i to the first that reaches i + 1.
            cuts = [bisect_left(leaves, (slot * (1 << 64) // width)
                                .to_bytes(8, "big"))
                    for slot in range(width)] + [len(leaves)]
            self._buckets = [leaves[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
            self._nodes = [None] * (2 * width)
            self._dirty = set(range(width))
        width, nodes = len(self._buckets), self._nodes
        stale = {width + slot for slot in self._dirty}
        self._dirty.clear()
        for node in stale:
            nodes[node] = _fold(self._buckets[node - width])
        while stale := {node >> 1 for node in stale} - {0}:
            for node in stale:
                nodes[node] = _join(nodes[2 * node], nodes[2 * node + 1])

    # -- proofs -------------------------------------------------------------

    def proof(self, key: bytes) -> list[tuple[str, str]] | None:
        """Inclusion proof for ``key``: ``(side, sibling_hex)`` steps from
        leaf to root, ``side`` being ``"L"``/``"R"`` for a sibling on that
        side (a promoted node contributes no step).  ``None`` when the
        key is not a leaf.
        """
        leaf = self._leaves.get(key)
        if leaf is None:
            return None
        self._sync()
        slot = self._slot(leaf)
        bucket = self._buckets[slot]
        path: list[tuple[str, str]] = []
        _fold(bucket, bisect_left(bucket, leaf), path)
        node = len(self._buckets) + slot
        while node > 1:
            sibling = self._nodes[node ^ 1]
            if sibling is not None:
                path.append(("L" if node & 1 else "R", sibling.hex()))
            node >>= 1
        return path


def verify_inclusion(root_hex: str, key: bytes, value: bytes,
                     proof) -> bool:
    """Check that (key, value) is a leaf of the tree with root
    ``root_hex`` using an inclusion proof from :meth:`MerkleTree.proof`.

    Accepts the proof as tuples or lists (a proof that crossed the wire
    arrives as lists).
    """
    if proof is None:
        return False
    node = leaf_hash(key, value)
    try:
        for step in proof:
            side, sibling_hex = step[0], step[1]
            if side == "-":
                continue
            sibling = bytes.fromhex(sibling_hex)
            if side == "L":
                node = _node_hash(sibling, node)
            elif side == "R":
                node = _node_hash(node, sibling)
            else:
                return False
    except (TypeError, ValueError, IndexError):
        return False
    return node.hex() == root_hex
