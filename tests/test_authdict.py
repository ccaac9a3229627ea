"""Authenticated dictionary: the five routines of §6.1 and their soundness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.log.authdict import (
    AuthenticatedDictionary,
    InsertionProof,
    _EMPTY,
    _fold_path,
    _id_hash,
    _node_hash,
    empty_digest,
    verify_extension,
    verify_includes,
)
from repro.metering import metered


def filled(n=20):
    d = AuthenticatedDictionary()
    for i in range(n):
        d.insert(f"id{i}".encode(), f"val{i}".encode())
    return d


class TestBasicOperations:
    def test_empty_digest_stable(self):
        assert AuthenticatedDictionary().digest == empty_digest()

    def test_insert_and_get(self):
        d = AuthenticatedDictionary()
        d.insert(b"k", b"v")
        assert d.get(b"k") == b"v"
        assert b"k" in d
        assert len(d) == 1

    def test_duplicate_rejected(self):
        d = AuthenticatedDictionary()
        d.insert(b"k", b"v")
        with pytest.raises(KeyError):
            d.insert(b"k", b"v2")

    def test_digest_changes_per_insert(self):
        d = AuthenticatedDictionary()
        digests = {d.digest}
        for i in range(10):
            d.insert(bytes([i]), b"v")
            assert d.digest not in digests
            digests.add(d.digest)

    def test_replay_reproduces_digest(self):
        d = filled(15)
        replayed = AuthenticatedDictionary.from_entries(d.items())
        # items() order == insertion order for python dicts
        assert replayed.digest == d.digest


class TestInclusionProofs:
    def test_all_entries_provable(self):
        d = filled(15)
        for i in range(15):
            identifier, value = f"id{i}".encode(), f"val{i}".encode()
            proof = d.prove_includes(identifier, value)
            assert proof is not None
            assert verify_includes(d.digest, identifier, value, proof)

    def test_absent_identifier_unprovable(self):
        d = filled(5)
        assert d.prove_includes(b"ghost", b"v") is None

    def test_wrong_value_unprovable(self):
        d = filled(5)
        assert d.prove_includes(b"id1", b"wrong") is None

    def test_proof_does_not_transfer_to_other_value(self):
        d = filled(5)
        proof = d.prove_includes(b"id1", b"val1")
        assert not verify_includes(d.digest, b"id1", b"valX", proof)

    def test_proof_does_not_transfer_to_other_digest(self):
        d1, d2 = filled(5), filled(6)
        proof = d1.prove_includes(b"id1", b"val1")
        assert not verify_includes(d2.digest, b"id1", b"val1", proof)


class TestInsertionProofs:
    def test_valid_insertion_verifies(self):
        d = filled(8)
        old = d.digest
        proof = d.insert_with_proof(b"new-id", b"new-val")
        assert verify_extension(old, d.digest, [proof])

    def test_first_insertion_into_empty(self):
        d = AuthenticatedDictionary()
        old = d.digest
        proof = d.insert_with_proof(b"k", b"v")
        assert verify_extension(old, d.digest, [proof])

    def test_wrong_new_digest_rejected(self):
        d = filled(8)
        old = d.digest
        proof = d.insert_with_proof(b"new-id", b"new-val")
        assert not verify_extension(old, old, [proof])

    def test_wrong_old_digest_rejected(self):
        d = filled(8)
        other = filled(9).digest
        proof = d.insert_with_proof(b"new-id", b"new-val")
        assert not verify_extension(other, d.digest, [proof])

    def test_value_swap_rejected(self):
        """The append-only core: a proof for (id, v) cannot certify (id, v')."""
        d = filled(8)
        old = d.digest
        proof = d.insert_with_proof(b"new-id", b"real-value")
        forged = InsertionProof(b"new-id", b"forged-value", proof.steps)
        assert not verify_extension(old, d.digest, [forged])

    def test_cannot_prove_reinsertion_of_existing_id(self):
        """Soundness of absence: no valid insertion proof exists for an
        identifier already in the tree (its search path hits the node)."""
        d = filled(8)
        old = d.digest
        # Craft a proof reusing id5's search path; the verifier must notice
        # the target appears on its own path.
        real = d.prove_includes(b"id5", b"val5")
        forged = InsertionProof(b"id5", b"other", real.steps)
        assert not verify_extension(old, d.digest, [forged])


class TestBatchExtension:
    def test_chained_batch_verifies(self):
        d = filled(5)
        old = d.digest
        proofs = [
            d.insert_with_proof(f"batch{i}".encode(), b"v") for i in range(7)
        ]
        assert verify_extension(old, d.digest, proofs)

    def test_reordered_batch_rejected(self):
        d = filled(5)
        old = d.digest
        proofs = [
            d.insert_with_proof(f"batch{i}".encode(), b"v") for i in range(4)
        ]
        assert not verify_extension(old, d.digest, list(reversed(proofs)))

    def test_dropped_insertion_rejected(self):
        d = filled(5)
        old = d.digest
        proofs = [
            d.insert_with_proof(f"batch{i}".encode(), b"v") for i in range(4)
        ]
        assert not verify_extension(old, d.digest, proofs[:-1])

    def test_empty_batch_is_identity(self):
        d = filled(5)
        assert verify_extension(d.digest, d.digest, [])
        assert not verify_extension(d.digest, empty_digest(), [])

    def test_one_proof_costs_what_verify_insertion_costs(self):
        """A batch of one bills one single-insertion check: one identifier
        hash, one leaf hash and two folds of the path, not two id hashes."""
        d = filled(5)
        old = d.digest
        proof = d.insert_with_proof(b"single", b"v")
        with metered() as single:
            idh = _id_hash(proof.identifier)
            assert _fold_path(idh, _EMPTY, proof.steps) == old
            leaf = _node_hash(idh, proof.value, _EMPTY, _EMPTY)
            assert _fold_path(idh, leaf, proof.steps) == d.digest
        with metered() as batch:
            assert verify_extension(old, d.digest, [proof])
        assert batch.counts["sha256_block"] == single.counts["sha256_block"] > 0


@given(
    entries=st.lists(
        st.tuples(st.binary(min_size=1, max_size=12), st.binary(max_size=12)),
        min_size=1,
        max_size=30,
        unique_by=lambda kv: kv[0],
    )
)
@settings(max_examples=30, deadline=None)
def test_insert_prove_verify_property(entries):
    d = AuthenticatedDictionary()
    digests = [d.digest]
    proofs = []
    for identifier, value in entries:
        proofs.append(d.insert_with_proof(identifier, value))
        digests.append(d.digest)
    # every step verifies, and the chain verifies end to end
    for i, proof in enumerate(proofs):
        assert verify_extension(digests[i], digests[i + 1], [proof])
    assert verify_extension(digests[0], digests[-1], proofs)
    # every entry has a working inclusion proof
    for identifier, value in entries:
        proof = d.prove_includes(identifier, value)
        assert verify_includes(d.digest, identifier, value, proof)
