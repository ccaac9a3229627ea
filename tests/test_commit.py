"""Recovery commitments: binding, hiding shape, serialization."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.entropy import DeterministicEntropy
from repro.core.codec import WireFormatError
from repro.crypto.commit import OPENING, commit_recovery
from repro.crypto.ec import P256

KEY = P256.generator * 3


class TestCommitment:
    def test_opens(self):
        h, opening = commit_recovery("alice", (1, 5, 9), b"\xaa" * 32, KEY)
        assert opening.commitment() == h

    @pytest.mark.parametrize(
        "changes",
        [
            {"username": "bob"},
            {"cluster": (1, 5, 10)},
            {"ciphertext_hash": b"\xbb" * 32},
            {"response_key": P256.generator * 4},
        ],
        ids=["username", "cluster", "ciphertext", "response_key"],
    )
    def test_binding(self, changes):
        h, opening = commit_recovery("alice", (1, 5, 9), b"\xaa" * 32, KEY)
        assert dataclasses.replace(opening, **changes).commitment() != h

    def test_hiding_randomization(self):
        h1, _ = commit_recovery("alice", (1, 2), b"\x00" * 32, KEY)
        h2, _ = commit_recovery("alice", (1, 2), b"\x00" * 32, KEY)
        assert h1 != h2  # fresh randomness each time

    def test_deterministic_under_seeded_entropy(self):
        runs = []
        for _ in range(2):
            with DeterministicEntropy(3):
                runs.append(commit_recovery("alice", (1, 2), b"\x00" * 32, KEY))
        assert runs[0] == runs[1]


class TestSerialization:
    def test_roundtrip(self):
        _, opening = commit_recovery("alice", (3, 1, 4, 1, 5), b"\xcc" * 32, KEY)
        restored = OPENING.decode(OPENING.encode(opening))
        assert restored == opening

    def test_truncated_rejected(self):
        _, opening = commit_recovery("alice", (3,), b"\xcc" * 32, KEY)
        with pytest.raises(WireFormatError):
            OPENING.decode(OPENING.encode(opening)[:-4])

    @given(
        username=st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=30),
        cluster=st.lists(st.integers(0, 2**32 - 1), max_size=20),
        ct_hash=st.binary(min_size=32, max_size=32),
        key_scalar=st.integers(1, 2**64),
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, username, cluster, ct_hash, key_scalar):
        h, opening = commit_recovery(username, cluster, ct_hash, P256.generator * key_scalar)
        restored = OPENING.decode(OPENING.encode(opening))
        assert restored.commitment() == h
