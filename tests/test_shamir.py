"""Shamir secret sharing: reconstruction identities and failure modes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import WireFormatError
from repro.crypto.shamir import SHARE, Share, ShamirSharer


class TestSharing:
    def test_roundtrip_all_shares(self):
        sharer = ShamirSharer(3, 5)
        secret = b"sixteen-byte-key"
        assert sharer.reconstruct(sharer.share(secret)) == secret

    def test_roundtrip_exactly_threshold(self):
        sharer = ShamirSharer(3, 5)
        secret = b"sixteen-byte-key"
        shares = sharer.share(secret)
        assert sharer.reconstruct(shares[:3]) == secret
        assert sharer.reconstruct(shares[2:]) == secret

    def test_missing_shares_as_none(self):
        sharer = ShamirSharer(2, 4)
        secret = b"0123456789abcdef"
        shares = sharer.share(secret)
        assert sharer.reconstruct([None, shares[1], None, shares[3]]) == secret

    def test_below_threshold_raises(self):
        sharer = ShamirSharer(3, 5)
        shares = sharer.share(b"0123456789abcdef")
        with pytest.raises(ValueError):
            sharer.reconstruct(shares[:2])

    def test_below_threshold_reveals_nothing_statistically(self):
        # With t-1 shares every candidate secret is equally consistent:
        # reconstructing from 2-of-3 shares plus a *wrong* third gives a
        # different (valid-looking) secret, not an error.
        sharer = ShamirSharer(3, 3)
        secret = b"0123456789abcdef"
        shares = sharer.share(secret)
        forged = Share(x=shares[2].x, y=(shares[2].y + 1) % sharer.modulus)
        wrong = sharer.reconstruct([shares[0], shares[1], forged])
        assert wrong != secret

    def test_one_of_one(self):
        sharer = ShamirSharer(1, 1)
        assert sharer.reconstruct(sharer.share(b"k" * 16)) == b"k" * 16

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ShamirSharer(0, 5)
        with pytest.raises(ValueError):
            ShamirSharer(6, 5)

    def test_secret_too_large(self):
        sharer = ShamirSharer(2, 3)
        with pytest.raises(ValueError):
            sharer.share(b"\xff" * 33)

    def test_deterministic_with_rng(self):
        import random

        sharer = ShamirSharer(2, 3)
        s1 = sharer.share(b"k" * 16, rng=random.Random(5))
        s2 = sharer.share(b"k" * 16, rng=random.Random(5))
        assert s1 == s2


class TestShareSerialization:
    def test_roundtrip(self):
        share = Share(x=7, y=123456789)
        assert SHARE.decode(SHARE.encode(share)) == share

    def test_malformed_rejected(self):
        with pytest.raises(WireFormatError):
            SHARE.decode(b"short")


class TestRobustReconstruction:
    def test_recovers_despite_corrupt_share(self):
        sharer = ShamirSharer(2, 5)
        secret = b"0123456789abcdef"
        shares = list(sharer.share(secret))
        shares[0] = Share(x=shares[0].x, y=(shares[0].y ^ 1))

        def verifier(candidate):
            return candidate == secret

        assert sharer.reconstruct_robust(shares, verifier) == secret

    def test_all_corrupt_fails(self):
        sharer = ShamirSharer(2, 3)
        shares = sharer.share(b"0123456789abcdef")
        bad = [Share(x=s.x, y=s.y ^ 1) for s in shares]
        with pytest.raises(ValueError):
            sharer.reconstruct_robust(bad, lambda c: False, max_attempts=8)


@given(
    secret=st.binary(min_size=16, max_size=16),
    threshold=st.integers(1, 6),
    extra=st.integers(0, 4),
)
@settings(max_examples=40)
def test_share_reconstruct_property(secret, threshold, extra):
    sharer = ShamirSharer(threshold, threshold + extra)
    shares = sharer.share(secret)
    assert sharer.reconstruct(shares[:threshold]) == secret


@given(data=st.data(), secret=st.binary(min_size=16, max_size=16))
@settings(max_examples=25)
def test_any_threshold_subset_works(data, secret):
    sharer = ShamirSharer(3, 6)
    shares = sharer.share(secret)
    subset = data.draw(st.permutations(shares)) [:3]
    assert sharer.reconstruct(subset) == secret
