"""Merkle tree commitments and inclusion proofs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import IncrementalMerkleTree, MerkleProof, MerkleTree


class TestBasics:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert MerkleTree.verify(tree.root, b"only", tree.prove(0))

    def test_all_leaves_verify(self):
        leaves = [bytes([i]) * 4 for i in range(13)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert MerkleTree.verify(tree.root, leaf, tree.prove(i))

    def test_wrong_leaf_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert not MerkleTree.verify(tree.root, b"x", tree.prove(1))

    def test_wrong_root_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        other = MerkleTree([b"a", b"b", b"d"])
        assert not MerkleTree.verify(other.root, b"b", tree.prove(1))

    def test_proof_for_wrong_index_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        assert not MerkleTree.verify(tree.root, b"a", tree.prove(1))

    def test_tampered_sibling_rejected(self):
        tree = MerkleTree([bytes([i]) for i in range(9)])
        proof = tree.prove(5)
        for step in range(len(proof.path)):
            path = list(proof.path)
            sibling, is_left = path[step]
            path[step] = (bytes([sibling[0] ^ 1]) + sibling[1:], is_left)
            forged = MerkleProof(index=proof.index, path=tuple(path))
            assert not MerkleTree.verify(tree.root, bytes([5]), forged)

    def test_flipped_side_rejected(self):
        """A sibling hashed on the wrong side folds to another root."""
        tree = MerkleTree([bytes([i]) for i in range(9)])
        proof = tree.prove(5)
        for step in range(len(proof.path)):
            path = list(proof.path)
            sibling, is_left = path[step]
            path[step] = (sibling, not is_left)
            forged = MerkleProof(index=proof.index, path=tuple(path))
            assert not MerkleTree.verify(tree.root, bytes([5]), forged)

    def test_out_of_range_raises(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.prove(1)

    def test_empty_tree_root_is_stable(self):
        assert MerkleTree([]).root == MerkleTree.empty_root()

    def test_leaf_order_matters(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_leaf_node_domain_separation(self):
        # A leaf equal to an interior node's encoding must not verify as the
        # parent: tag separation makes the trees differ.
        t1 = MerkleTree([b"a", b"b"])
        t2 = MerkleTree([t1.root])
        assert t1.root != t2.root


@given(leaves=st.lists(st.binary(max_size=40), min_size=1, max_size=40), data=st.data())
@settings(max_examples=40)
def test_inclusion_property(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(0, len(leaves) - 1))
    assert MerkleTree.verify(tree.root, leaves[index], tree.prove(index))


@given(leaves=st.lists(st.binary(min_size=1, max_size=20), min_size=2, max_size=20, unique=True))
@settings(max_examples=30)
def test_noninclusion_property(leaves):
    tree = MerkleTree(leaves)
    proof = tree.prove(0)
    assert not MerkleTree.verify(tree.root, leaves[1], proof)


class TestIncremental:
    """IncrementalMerkleTree must stay byte-identical to a rebuild."""

    def test_update_matches_rebuild(self):
        leaves = [bytes([i]) * 3 for i in range(11)]
        tree = IncrementalMerkleTree(leaves)
        for index, new in ((4, b"x"), (0, b"y"), (10, b"z"), (4, b"w")):
            leaves[index] = new
            tree.update(index, new)
            rebuilt = MerkleTree(leaves)
            assert tree.root == rebuilt.root
            for i in range(len(leaves)):
                assert tree.prove(i) == rebuilt.prove(i)

    def test_single_leaf_update(self):
        tree = IncrementalMerkleTree([b"a"])
        tree.update(0, b"b")
        assert tree.root == MerkleTree([b"b"]).root
        assert MerkleTree.verify(tree.root, b"b", tree.prove(0))

    def test_out_of_range_raises(self):
        tree = IncrementalMerkleTree([b"a", b"b"])
        with pytest.raises(IndexError):
            tree.update(2, b"c")
        with pytest.raises(IndexError):
            tree.update(-1, b"c")

    @given(
        leaves=st.lists(st.binary(max_size=24), min_size=1, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_any_update_sequence_matches_rebuild(self, leaves, data):
        """After *any* sequence of updates — including odd leaf counts,
        where the tree duplicates the last node up each level — root and
        every proof path equal a from-scratch build."""
        tree = IncrementalMerkleTree(leaves)
        updates = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(leaves) - 1), st.binary(max_size=24)
                ),
                max_size=8,
            )
        )
        for index, new in updates:
            leaves[index] = new
            tree.update(index, new)
        rebuilt = MerkleTree(leaves)
        assert tree.root == rebuilt.root
        index = data.draw(st.integers(0, len(leaves) - 1))
        assert tree.prove(index) == rebuilt.prove(index)
        assert MerkleTree.verify(tree.root, leaves[index], tree.prove(index))
