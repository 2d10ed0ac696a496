"""Merkle tree unit tests: roots, proofs, additive digests."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.integrity.merkle import (
    DIGEST_MOD,
    EMPTY_ROOT,
    MerkleTree,
    digest_root,
    leaf_key,
    merge_digests,
    verify_inclusion,
)


def filled(n: int) -> MerkleTree:
    tree = MerkleTree()
    for i in range(n):
        tree.update(leaf_key(b"d", f"doc{i}".encode()), f"body{i}".encode())
    return tree


class TestEmptyTree:
    def test_canonical_empty_state(self):
        tree = MerkleTree()
        assert len(tree) == 0
        assert tree.root() == EMPTY_ROOT
        assert tree.digest() == 0

    def test_proof_for_absent_key_is_none(self):
        assert MerkleTree().proof(b"missing") is None

    def test_remove_absent_key_is_noop(self):
        tree = MerkleTree()
        assert tree.remove(b"missing") is False
        assert tree.digest() == 0


class TestMutation:
    def test_update_then_remove_restores_state(self):
        tree = filled(5)
        root, digest = tree.root(), tree.digest()
        key = leaf_key(b"d", b"extra")
        tree.update(key, b"payload")
        assert tree.root() != root
        assert tree.digest() != digest
        assert tree.remove(key) is True
        assert tree.root() == root
        assert tree.digest() == digest

    def test_update_in_place_replaces_leaf_term(self):
        tree = filled(3)
        key = leaf_key(b"d", b"doc0")
        tree.update(key, b"new body")
        # The old term was subtracted: removing the leaf again leaves
        # exactly the two untouched leaves' digest.
        tree.remove(key)
        rest = MerkleTree()
        rest.update(leaf_key(b"d", b"doc1"), b"body1")
        rest.update(leaf_key(b"d", b"doc2"), b"body2")
        assert tree.digest() == rest.digest()
        assert tree.root() == rest.root()

    def test_clear(self):
        tree = filled(4)
        tree.clear()
        assert len(tree) == 0
        assert tree.root() == EMPTY_ROOT
        assert tree.digest() == 0

    def test_root_independent_of_insertion_order(self):
        forward = filled(6)
        backward = MerkleTree()
        for i in reversed(range(6)):
            backward.update(leaf_key(b"d", f"doc{i}".encode()),
                            f"body{i}".encode())
        assert forward.root() == backward.root()
        assert forward.digest() == backward.digest()


class TestProofs:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_leaf_proves_at_every_size(self, n):
        """Covers the odd-node promote rule at sizes 3, 5, 7, 9."""
        tree = filled(n)
        root = tree.root()
        for i in range(n):
            key = leaf_key(b"d", f"doc{i}".encode())
            proof = tree.proof(key)
            assert proof is not None
            assert verify_inclusion(root, key, f"body{i}".encode(), proof)

    def test_wrong_value_fails(self):
        tree = filled(4)
        key = leaf_key(b"d", b"doc1")
        proof = tree.proof(key)
        assert not verify_inclusion(tree.root(), key, b"forged", proof)

    def test_wrong_root_fails(self):
        tree = filled(4)
        key = leaf_key(b"d", b"doc1")
        proof = tree.proof(key)
        other = filled(5).root()
        assert not verify_inclusion(other, key, b"body1", proof)

    def test_malformed_proofs_fail_closed(self):
        tree = filled(4)
        key = leaf_key(b"d", b"doc2")
        root = tree.root()
        assert not verify_inclusion(root, key, b"body2", None)
        assert not verify_inclusion(root, key, b"body2",
                                    [("L", "not-hex")])
        assert not verify_inclusion(root, key, b"body2", [("X", "ab" * 32)])
        assert not verify_inclusion(root, key, b"body2", [("L",)])
        assert not verify_inclusion(root, key, b"body2", [42])

    def test_proof_survives_json_round_trip(self):
        """The wire codec hands decoded proofs back as lists of lists."""
        tree = filled(5)
        key = leaf_key(b"d", b"doc3")
        proof = json.loads(json.dumps(tree.proof(key)))
        assert isinstance(proof[0], list)
        assert verify_inclusion(tree.root(), key, b"body3", proof)


class TestAdditiveDigest:
    def test_cluster_digest_is_placement_invariant(self):
        """Splitting the leaves across shards keeps the merged digest."""
        whole = filled(8)
        shard_a, shard_b = MerkleTree(), MerkleTree()
        for i in range(8):
            shard = shard_a if i % 3 == 0 else shard_b
            shard.update(leaf_key(b"d", f"doc{i}".encode()),
                         f"body{i}".encode())
        assert merge_digests(
            [shard_a.digest(), shard_b.digest()]
        ) == whole.digest()

    def test_merge_reduces_mod_2_256(self):
        assert merge_digests([DIGEST_MOD - 1, 1]) == 0
        assert merge_digests([]) == 0

    def test_digest_root_commits_to_the_digest(self):
        a, b = filled(3), filled(4)
        assert digest_root(a.digest()) != digest_root(b.digest())
        assert digest_root(a.digest()) == digest_root(filled(3).digest())


class TestLeafKeys:
    def test_length_prefix_prevents_structural_collisions(self):
        assert leaf_key(b"m", b"a\x00b", b"c") != leaf_key(b"m", b"a",
                                                           b"b\x00c")
        assert leaf_key(b"s", b"x") != leaf_key(b"d", b"x")


# -- history independence and incremental upkeep --------------------------------

#: Leaf counts on both sides of every depth change a small tree meets
#: (d = max(0, n.bit_length() - 4): 15|16, 31|32, 1023|1024) plus the
#: degenerate sizes.
BOUNDARY_SIZES = [0, 1, 2, 8, 9, 15, 16, 17, 31, 32, 33, 1023, 1024, 1025]


def item(i: int, version: int = 0) -> tuple[bytes, bytes]:
    return leaf_key(b"d", f"doc{i}".encode()), f"body{i}.{version}".encode()


def fresh(items, seed: int = 0) -> MerkleTree:
    """A new tree fed ``items`` in a seeded random order, hashed once."""
    ordered = sorted(items)
    random.Random(seed).shuffle(ordered)
    tree = MerkleTree()
    for key, value in ordered:
        tree.update(key, value)
    return tree


def proof_bound(n: int) -> int:
    return (n - 1).bit_length() + 2  # ceil(log2 n) + 2


def assert_equals_fresh(tree: MerkleTree, model: dict[bytes, bytes]):
    reference = fresh(model.items(), seed=len(model))
    assert len(tree) == len(model)
    assert tree.digest() == reference.digest()
    assert tree.root() == reference.root()


def assert_all_prove(tree: MerkleTree, model: dict[bytes, bytes]):
    root = tree.root()
    for key, value in model.items():
        proof = tree.proof(key)
        assert proof is not None
        assert len(proof) <= proof_bound(len(model))
        assert verify_inclusion(root, key, value, proof)
        assert not verify_inclusion(root, key, value + b"!", proof)


class TestBucketBoundaries:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_grown_leaf_by_leaf_equals_fresh_build(self, n):
        """Reading the root between single-leaf mutations walks the
        incremental path (and the re-bucket at each power of two); the
        result must be the root of a one-shot build in another order."""
        tree, model = MerkleTree(), {}
        for i in range(n):
            key, value = item(i)
            tree.update(key, value)
            model[key] = value
            if n <= 40 or i >= n - 3:
                tree.root()
        assert_equals_fresh(tree, model)
        assert_all_prove(tree, model)

    @pytest.mark.parametrize("n", [n for n in BOUNDARY_SIZES if n])
    def test_changed_and_removed_leaves_stop_proving(self, n):
        model = dict(item(i) for i in range(n))
        tree = fresh(model.items())
        key, old_value = item(n // 2)
        old_root, old_proof = tree.root(), tree.proof(key)

        tree.update(key, b"rewritten")
        model[key] = b"rewritten"
        assert tree.root() != old_root
        assert not verify_inclusion(tree.root(), key, old_value, old_proof)
        assert not verify_inclusion(tree.root(), key, old_value,
                                    tree.proof(key))
        assert_equals_fresh(tree, model)
        assert_all_prove(tree, model)

        assert tree.remove(key)
        del model[key]
        assert tree.proof(key) is None
        assert not verify_inclusion(tree.root(), key, b"rewritten",
                                    old_proof)
        assert_equals_fresh(tree, model)
        assert_all_prove(tree, model)

    @pytest.mark.parametrize("high,low", [(17, 15), (33, 30), (1025, 1022)])
    def test_shrinking_back_across_a_boundary(self, high, low):
        model = dict(item(i) for i in range(high))
        tree = fresh(model.items())
        tree.root()
        for i in range(high - 1, low - 1, -1):
            key, _ = item(i)
            assert tree.remove(key)
            del model[key]
            assert_equals_fresh(tree, model)
        assert_all_prove(tree, model)
        # ... and growing again lands on the first root.
        for i in range(low, high):
            key, value = item(i)
            tree.update(key, value)
            model[key] = value
            tree.root()
        assert_equals_fresh(tree, model)

    def test_mutations_between_reads_touch_many_buckets(self):
        model = dict(item(i) for i in range(300))
        tree = fresh(model.items())
        tree.root()
        for i in range(0, 300, 7):
            key, value = item(i, version=1)
            tree.update(key, value)
            model[key] = value
        for i in range(3, 300, 11):
            key, _ = item(i)
            tree.remove(key)
            model.pop(key, None)
        assert_equals_fresh(tree, model)
        assert_all_prove(tree, model)

    def test_rewriting_the_same_value_changes_nothing(self):
        tree = filled(20)
        root, digest = tree.root(), tree.digest()
        tree.update(leaf_key(b"d", b"doc3"), b"body3")
        assert (tree.root(), tree.digest()) == (root, digest)


class MerkleMachine(RuleBasedStateMachine):
    """Any interleaving of update / remove / clear / root / proof ends
    at the state of a fresh tree over the surviving leaves.

    Keys come from a 72-element universe so runs cross the 15|16, 31|32
    and 63|64 depth changes in both directions.
    """

    indices = st.integers(min_value=0, max_value=71)

    def __init__(self):
        super().__init__()
        self.tree = MerkleTree()
        self.model: dict[bytes, bytes] = {}
        self.dead: dict[bytes, tuple[bytes, list]] = {}

    def _forget(self, key: bytes) -> None:
        """Remember a live leaf's last proof before it changes."""
        if key in self.model:
            self.dead[key] = (self.model[key], self.tree.proof(key))

    @rule(i=indices, version=st.integers(0, 3))
    def update(self, i, version):
        key, value = item(i, version)
        if self.model.get(key) != value:
            self._forget(key)
        self.tree.update(key, value)
        self.model[key] = value

    @rule(first=indices, count=st.integers(1, 40))
    def load_run(self, first, count):
        """A burst with no read in between (bulk load / migration)."""
        for i in range(first, min(first + count, 72)):
            key, value = item(i, 0)
            self.dead.pop(key, None)
            self.tree.update(key, value)
            self.model[key] = value

    @rule(i=indices)
    def remove(self, i):
        key, _ = item(i)
        self._forget(key)
        assert self.tree.remove(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(first=indices, count=st.integers(1, 40))
    def drop_run(self, first, count):
        for i in range(first, min(first + count, 72)):
            key, _ = item(i)
            self.dead.pop(key, None)
            self.tree.remove(key)
            self.model.pop(key, None)

    @precondition(lambda self: self.model)
    @rule()
    def clear(self):
        self.tree.clear()
        self.model.clear()
        self.dead.clear()

    @invariant()
    def matches_a_fresh_tree(self):
        assert_equals_fresh(self.tree, self.model)

    @invariant()
    def live_leaves_prove_dead_ones_do_not(self):
        assert_all_prove(self.tree, self.model)
        root = self.tree.root()
        for key, (value, proof) in self.dead.items():
            if self.model.get(key) != value:
                assert not verify_inclusion(root, key, value, proof)
                assert not verify_inclusion(root, key, value,
                                            self.tree.proof(key))


TestMerkleMachine = MerkleMachine.TestCase
TestMerkleMachine.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None,
)
