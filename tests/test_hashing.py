"""KDF, hash-to-indices, and commitment hashing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import metering
from repro.crypto.bloom import BloomParams
from repro.crypto.hashing import (
    constant_time_equal,
    hash_to_indices,
    hmac_sha256,
    kdf,
    sha256,
)
from repro.log.distributed import audit_chunk_indices


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


def _billed(fn, *args):
    """``fn(*args)`` and the number of SHA-256 blocks it hashed."""
    with metering.metered() as meter:
        out = fn(*args)
    return out, meter.counts.get("sha256_block", 0)


_ROOT = bytes(range(32))
_HUGE = (1 << 63) + 1  # rejects almost half of all 8-byte draws
_PAPER = BloomParams.paper_deployment()


class TestSamplerKnownAnswers:
    """Outputs and SHA-256 bills of the three index samplers (Select's
    ``Hash``, a tag's Bloom slots, an HSM's audit set), pinned so the
    wire-visible indices and the cost model's hash count never move."""

    @pytest.mark.parametrize(
        "args, expected, blocks",
        [
            ((b"salt", "1234", 16, 4), [10, 13, 12, 12], 2),
            ((b"s", "0000", 1, 5), [0, 0, 0, 0, 0], 3),
            ((b"s", "1", 1000, 0), [], 1),
            ((b"", "", 7, 9), [4, 1, 2, 2, 0, 5, 2, 4, 3], 4),
            (
                (b"s", "pin", _HUGE, 6),
                [
                    1589538597715891750, 3407192896280463264,
                    2167622016781436435, 7885835075148824850,
                    2070641750229627345, 5465165357328596497,
                ],
                3,
            ),
        ],
    )
    def test_hash_to_indices(self, args, expected, blocks):
        assert _billed(hash_to_indices, *args) == (expected, blocks)

    @pytest.mark.parametrize(
        "params, tag, expected, blocks",
        [
            (_PAPER, b"tag-0", [1464980, 574969, 123049, 177868], 1),
            (_PAPER, b"", [1858292, 638309, 649968, 1992693], 1),
            (
                BloomParams.for_punctures(64),
                b"tag-1",
                [498, 871, 486, 1053, 820, 949, 244, 1342,
                 705, 164, 225, 736, 229, 981, 266, 630],
                4,
            ),
            (BloomParams(5, 5, 1, 1), b"tag-2", [4, 3, 2, 1, 0], 6),
            (BloomParams(1, 1, 1, 1), b"tag-3", [0], 1),
            (BloomParams(10, 0, 1, 1), b"tag-4", [], 0),
            (
                BloomParams(_HUGE, 4, 1, 1),
                b"tag-5",
                [
                    3278703616164624705, 1508418857692586947,
                    4006702660150757858, 4575385018771313233,
                ],
                3,
            ),
        ],
    )
    def test_slots_for_tag(self, params, tag, expected, blocks):
        assert _billed(params.slots_for_tag, tag) == (expected, blocks)

    @pytest.mark.parametrize(
        "args, expected, blocks",
        [
            ((_ROOT, 0, 100, 4), [33, 63, 79, 46], 3),
            ((_ROOT, 3, 3, 10), [0, 2, 1], 3),
            ((_ROOT, 5, 1, 1), [0], 3),
            ((_ROOT, 1, 10, 0), [], 2),
            ((_ROOT, 2, 0, 4), [], 0),
            (
                (_ROOT, 7, _HUGE, 5),
                [
                    4406955081181176509, 6990101553056761525,
                    4911884071567244563, 3115000314547399788,
                    3922360095785778340,
                ],
                5,
            ),
            (
                (_ROOT, 9, 40, 16),
                [12, 22, 6, 3, 21, 13, 11, 27, 35, 26, 28, 37, 7, 4, 10, 38],
                8,
            ),
        ],
    )
    def test_audit_chunk_indices(self, args, expected, blocks):
        assert _billed(audit_chunk_indices, *args) == (expected, blocks)


class TestHelpers:
    def test_hmac_known_relationship(self):
        assert hmac_sha256(b"k", b"m") == hmac_sha256(b"k", b"m")
        assert hmac_sha256(b"k", b"m") != hmac_sha256(b"k2", b"m")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"ab")
