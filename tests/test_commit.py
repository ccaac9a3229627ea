"""Recovery commitments: binding, hiding shape, serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import WireFormatError
from repro.crypto.commit import OPENING, CommitmentOpening, commit_recovery, verify_opening


class TestCommitment:
    def test_opens(self):
        h, opening = commit_recovery("alice", (1, 5, 9), b"\xaa" * 32)
        assert verify_opening(h, opening)

    def test_binding_username(self):
        h, opening = commit_recovery("alice", (1, 5, 9), b"\xaa" * 32)
        forged = CommitmentOpening("bob", opening.cluster, opening.ciphertext_hash, opening.randomness)
        assert not verify_opening(h, forged)

    def test_binding_cluster(self):
        h, opening = commit_recovery("alice", (1, 5, 9), b"\xaa" * 32)
        forged = CommitmentOpening(opening.username, (1, 5, 10), opening.ciphertext_hash, opening.randomness)
        assert not verify_opening(h, forged)

    def test_binding_ciphertext(self):
        h, opening = commit_recovery("alice", (1, 5, 9), b"\xaa" * 32)
        forged = CommitmentOpening(opening.username, opening.cluster, b"\xbb" * 32, opening.randomness)
        assert not verify_opening(h, forged)

    def test_hiding_randomization(self):
        h1, _ = commit_recovery("alice", (1, 2), b"\x00" * 32)
        h2, _ = commit_recovery("alice", (1, 2), b"\x00" * 32)
        assert h1 != h2  # fresh randomness each time

    def test_deterministic_with_rng(self):
        import random

        h1, o1 = commit_recovery("alice", (1, 2), b"\x00" * 32, rng=random.Random(3))
        h2, o2 = commit_recovery("alice", (1, 2), b"\x00" * 32, rng=random.Random(3))
        assert h1 == h2 and o1 == o2


class TestSerialization:
    def test_roundtrip(self):
        _, opening = commit_recovery("alice", (3, 1, 4, 1, 5), b"\xcc" * 32)
        restored = OPENING.decode(OPENING.encode(opening))
        assert restored == opening

    def test_truncated_rejected(self):
        _, opening = commit_recovery("alice", (3,), b"\xcc" * 32)
        with pytest.raises(WireFormatError):
            OPENING.decode(OPENING.encode(opening)[:-4])

    @given(
        username=st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=30),
        cluster=st.lists(st.integers(0, 2**32 - 1), max_size=20),
        ct_hash=st.binary(min_size=32, max_size=32),
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, username, cluster, ct_hash):
        h, opening = commit_recovery(username, cluster, ct_hash)
        restored = OPENING.decode(OPENING.encode(opening))
        assert verify_opening(h, restored)
