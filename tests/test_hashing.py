"""KDF, hash-to-indices, and commitment hashing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import (
    constant_time_equal,
    hash_to_indices,
    hmac_sha256,
    kdf,
    sha256,
)


class TestSha256Wrapper:
    def test_length_prefix_disambiguates(self):
        # ("ab", "c") and ("a", "bc") must hash differently.
        assert sha256(b"ab", b"c") != sha256(b"a", b"bc")

    def test_deterministic(self):
        assert sha256(b"x") == sha256(b"x")


class TestKdf:
    def test_label_separation(self):
        assert kdf("label-a", b"ikm") != kdf("label-b", b"ikm")

    def test_length_control(self):
        assert len(kdf("l", b"x", length=16)) == 16
        assert len(kdf("l", b"x", length=100)) == 100

    def test_prefix_consistency(self):
        assert kdf("l", b"x", length=64)[:32] == kdf("l", b"x", length=32)


class TestHashToIndices:
    def test_deterministic(self):
        assert hash_to_indices(b"s", "1234", 100, 40) == hash_to_indices(b"s", "1234", 100, 40)

    def test_pin_sensitivity(self):
        assert hash_to_indices(b"s", "1234", 100, 40) != hash_to_indices(b"s", "1235", 100, 40)

    def test_salt_sensitivity(self):
        assert hash_to_indices(b"s1", "1234", 100, 40) != hash_to_indices(b"s2", "1234", 100, 40)

    def test_range(self):
        for index in hash_to_indices(b"s", "0000", 7, 100):
            assert 0 <= index < 7

    def test_count(self):
        assert len(hash_to_indices(b"s", "1", 1000, 0)) == 0
        assert len(hash_to_indices(b"s", "1", 1000, 55)) == 55

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            hash_to_indices(b"s", "1", 0, 5)
        with pytest.raises(ValueError):
            hash_to_indices(b"s", "1", 5, -1)

    def test_roughly_uniform(self):
        # Chi-square-ish sanity: over many draws each bucket gets its share.
        total, buckets = 10, 5000
        counts = [0] * total
        for index in hash_to_indices(b"seed", "pin", total, buckets):
            counts[index] += 1
        expected = buckets / total
        for count in counts:
            assert abs(count - expected) < 6 * math.sqrt(expected)

    @given(total=st.integers(1, 10_000), count=st.integers(0, 60))
    @settings(max_examples=30)
    def test_range_property(self, total, count):
        indices = hash_to_indices(b"s", "99", total, count)
        assert len(indices) == count
        assert all(0 <= i < total for i in indices)


class TestHelpers:
    def test_hmac_known_relationship(self):
        assert hmac_sha256(b"k", b"m") == hmac_sha256(b"k", b"m")
        assert hmac_sha256(b"k", b"m") != hmac_sha256(b"k2", b"m")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"ab")
