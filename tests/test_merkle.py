"""Merkle tree unit, enumeration, and property tests."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegsim.errors import EmptyTree, IndexOutOfRange
from pegsim.merkle import (
    MerkleProof,
    leaf_hash,
    merkle_prove,
    merkle_root,
    merkle_verify,
    node_hash,
)


def h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class TestRootDefinition:
    def test_single_leaf(self):
        assert merkle_root([b"a"]) == h(b"\x00" + b"a")

    def test_two_leaves(self):
        expected = h(b"\x01" + h(b"\x00a") + h(b"\x00b"))
        assert merkle_root([b"a", b"b"]) == expected

    def test_three_leaves_odd_promotion(self):
        # Hand-built: level0 = [A, B, C]; level1 = [H(01||A||B), C promoted];
        # root = H(01 || H(01||A||B) || C).
        a, b, c = h(b"\x00a"), h(b"\x00b"), h(b"\x00c")
        by_hand = h(b"\x01" + h(b"\x01" + a + b) + c)
        assert merkle_root([b"a", b"b", b"c"]) == by_hand
        # equivalently: root([a,b,c]) == H(01 || root([a,b]) || leaf_hash(c))
        assert merkle_root([b"a", b"b", b"c"]) == node_hash(merkle_root([b"a", b"b"]), leaf_hash(b"c"))

    def test_empty_rejected(self):
        with pytest.raises(EmptyTree):
            merkle_root([])
        with pytest.raises(EmptyTree):
            merkle_prove([], 0)

    def test_deterministic(self):
        leaves = [bytes([i]) * 3 for i in range(7)]
        assert merkle_root(leaves) == merkle_root(list(leaves))


class TestProve:
    def test_single_leaf_empty_siblings(self):
        proof = merkle_prove([b"a"], 0)
        assert proof.siblings == ()
        assert merkle_verify(merkle_root([b"a"]), b"a", proof)

    def test_two_leaf_sibling(self):
        proof = merkle_prove([b"a", b"b"], 1)
        assert proof.siblings == (h(b"\x00a"),)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            merkle_prove([b"a", b"b"], 2)
        with pytest.raises(IndexOutOfRange):
            merkle_prove([b"a"], -1)

    def test_exhaustive_roundtrip_to_8(self):
        # Enumeration oracle: every list size up to 8, every index verifies.
        for n in range(1, 9):
            leaves = [b"leaf-%d" % i for i in range(n)]
            root = merkle_root(leaves)
            for i in range(n):
                proof = merkle_prove(leaves, i)
                assert merkle_verify(root, leaves[i], proof), (n, i)

    def test_wrong_index_never_verifies_4_leaves(self):
        leaves = [b"w", b"x", b"y", b"z"]
        root = merkle_root(leaves)
        for i in range(4):
            proof = merkle_prove(leaves, i)
            for j in range(4):
                if j != i:
                    assert not merkle_verify(root, leaves[j], proof), (i, j)


class TestVerifyRejections:
    def test_bad_counts_and_indices(self):
        leaves = [b"a", b"b", b"c"]
        root = merkle_root(leaves)
        good = merkle_prove(leaves, 1)
        assert not merkle_verify(root, b"b", MerkleProof(1, good.siblings, 0))
        assert not merkle_verify(root, b"b", MerkleProof(5, good.siblings, 3))
        assert not merkle_verify(root, b"b", MerkleProof(1, good.siblings[:-1], 3))
        assert not merkle_verify(root, b"b", MerkleProof(1, good.siblings + (b"\x00" * 32,), 3))
        assert not merkle_verify(root, b"b", MerkleProof(1, (b"short",), 3))

    def test_domain_separation(self):
        # A leaf whose bytes equal an internal-node preimage must not verify
        # as that internal node: the 0x00/0x01 prefixes keep the domains apart.
        leaves = [b"a", b"b", b"c", b"d"]
        root = merkle_root(leaves)
        left = node_hash(leaf_hash(b"a"), leaf_hash(b"b"))
        right = node_hash(leaf_hash(b"c"), leaf_hash(b"d"))
        assert root == node_hash(left, right)
        # forged "leaf" carrying the right subtree's children, one-level proof
        forged_leaf = b"\x01" + leaf_hash(b"c") + leaf_hash(b"d")
        forged = MerkleProof(leaf_index=1, siblings=(left,), leaf_count=2)
        assert not merkle_verify(root, forged_leaf, forged)


class TestBinding:
    def test_mutation_binding_bulk(self):
        # >= 10^4 random single-bit mutations across random 8-leaf trees: none verify.
        rng = random.Random(0xC0FFEE)
        successes = 0
        trials = 0
        for t in range(250):
            leaves = [rng.randbytes(rng.randint(1, 24)) for _ in range(8)]
            root = merkle_root(leaves)
            idx = rng.randrange(8)
            proof = merkle_prove(leaves, idx)
            for _ in range(42):
                mutated = bytearray(leaves[idx])
                bit = rng.randrange(len(mutated) * 8)
                mutated[bit // 8] ^= 1 << (bit % 8)
                trials += 1
                if merkle_verify(root, bytes(mutated), proof):
                    successes += 1
        assert trials >= 10_000
        assert successes == 0

    def test_proof_sibling_mutation(self):
        rng = random.Random(7)
        for _ in range(200):
            leaves = [rng.randbytes(8) for _ in range(rng.randint(2, 16))]
            root = merkle_root(leaves)
            idx = rng.randrange(len(leaves))
            proof = merkle_prove(leaves, idx)
            sibs = list(proof.siblings)
            k = rng.randrange(len(sibs))
            flipped = bytearray(sibs[k])
            flipped[rng.randrange(32)] ^= 0x40
            sibs[k] = bytes(flipped)
            assert not merkle_verify(root, leaves[idx], MerkleProof(idx, tuple(sibs), len(leaves)))


@settings(max_examples=200, deadline=None)
@given(
    leaves=st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=64),
    data=st.data(),
)
def test_roundtrip_property(leaves, data):
    root = merkle_root(leaves)
    i = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    proof = merkle_prove(leaves, i)
    assert len(proof.siblings) <= max(1, (len(leaves) - 1).bit_length())
    assert merkle_verify(root, leaves[i], proof)
