"""GF(p) on plain ints: batch inversion, Horner evaluation and the Lagrange
weights at zero — and the bytes Shamir and LHE make with them, pinned to
what the operator-overloaded field made."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.entropy import DeterministicEntropy
from repro.core.lhe import LocationHidingEncryption
from repro.crypto import field as field_module
from repro.crypto.bfe import BloomFilterEncryption
from repro.crypto.bloom import BloomParams
from repro.crypto.field import batch_inverse_mod, eval_poly, lagrange_at_zero
from repro.crypto.shamir import ShamirSharer
from repro.storage.blockstore import InMemoryBlockStore

SMALL_PRIME = 101
P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def interpolate_at_zero(points, modulus):
    """Σ yᵢ·λᵢ: the value at zero of the polynomial through ``points``."""
    weights = lagrange_at_zero([x for x, _ in points], modulus)
    return sum(y * weight for (_, y), weight in zip(points, weights)) % modulus


class TestBasicArithmetic:
    def test_addition_wraps(self):
        assert eval_poly([100, 1], 5, SMALL_PRIME) == 4  # 100 + 5

    def test_subtraction_wraps(self):
        # λ = (2/(2-1), 1/(1-2)) = (2, -1)
        assert lagrange_at_zero([1, 2], SMALL_PRIME) == [2, SMALL_PRIME - 1]

    def test_negation(self):
        # Two points mirrored about zero weigh half each: λ = (-3/-6, 3/6).
        assert lagrange_at_zero([3, -3], SMALL_PRIME) == [51, 51]  # 2 * 51 = 1 mod 101

    def test_multiplication(self):
        assert eval_poly([0, 20], 6, SMALL_PRIME) == 19  # 120 mod 101

    def test_division_is_multiplication_by_inverse(self):
        a, b = 17, 23
        (b_inv,) = batch_inverse_mod([b], SMALL_PRIME)
        assert a * b_inv * b % SMALL_PRIME == a

    def test_power(self):
        assert eval_poly([0] * 10 + [1], 2, SMALL_PRIME) == 1024 % SMALL_PRIME

    def test_fermat_little_theorem(self):
        assert batch_inverse_mod([7], SMALL_PRIME) == [pow(7, SMALL_PRIME - 2, SMALL_PRIME)]

    def test_int_coercion_both_sides(self):
        """Unreduced and negative ints go in; reduced ints come out."""
        assert eval_poly([3 + SMALL_PRIME, 2 - SMALL_PRIME], 5 + SMALL_PRIME, SMALL_PRIME) == 13
        assert lagrange_at_zero([1 + SMALL_PRIME, -SMALL_PRIME + 2], SMALL_PRIME) == [2, 100]

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse_mod([3, 0], SMALL_PRIME)
        with pytest.raises(ZeroDivisionError):
            batch_inverse_mod([SMALL_PRIME], SMALL_PRIME)


class TestPolynomials:
    def test_eval_poly_horner(self):
        # p(x) = 3 + 2x + x^2 at x = 5 -> 38
        assert eval_poly([3, 2, 1], 5, SMALL_PRIME) == 38

    def test_eval_constant(self):
        assert eval_poly([9], 50, SMALL_PRIME) == 9

    def test_interpolation_recovers_constant_term(self):
        coeffs = [42, 7, 13]
        points = [(x, eval_poly(coeffs, x, SMALL_PRIME)) for x in (1, 2, 3)]
        assert interpolate_at_zero(points, SMALL_PRIME) == 42

    def test_interpolation_duplicate_x_raises(self):
        with pytest.raises(ValueError):
            lagrange_at_zero([1, 1], SMALL_PRIME)
        with pytest.raises(ValueError):
            lagrange_at_zero([1, 1 + SMALL_PRIME], SMALL_PRIME)


@given(a=st.integers(1, P256_ORDER - 1))
@settings(max_examples=50)
def test_inverse_property(a):
    assert a * batch_inverse_mod([a], P256_ORDER)[0] % P256_ORDER == 1


@given(
    secret=st.integers(0, P256_ORDER - 1),
    c1=st.integers(0, P256_ORDER - 1),
    c2=st.integers(0, P256_ORDER - 1),
)
@settings(max_examples=25)
def test_interpolation_inverts_evaluation(secret, c1, c2):
    coeffs = [secret, c1, c2]
    points = [(x, eval_poly(coeffs, x, P256_ORDER)) for x in (5, 9, 11)]
    assert interpolate_at_zero(points, P256_ORDER) == secret


def _point_sets(modulus, seed):
    """Seeded point sets of 1 to 5 points, each size once without and once
    with an ``x = 0`` share."""
    rng = random.Random(seed)
    for t in range(1, 6):
        for with_zero in (False, True):
            xs = rng.sample(range(1, min(modulus, 10**6)), t)
            if with_zero:
                xs[rng.randrange(t)] = 0
            yield xs, [rng.randrange(modulus) for _ in xs]


class TestByteIdentity:
    """Values and digests produced by ``PrimeField`` / ``FieldElement``
    (``lagrange_interpolate_at_zero``, ``eval_poly``, ``random``) before the
    field became plain ints; the int helpers must reproduce them."""

    SMALL_VALUES = [95, 28, 4, 18, 93, 53, 38, 1, 52, 54]
    P256_DIGEST = "4f93a1accd34ad7056aa1d06b808b24a6c5d53333ffa93ca0905906006eb4d34"
    SHAMIR_DIGEST = "f48dc214d17313e013d4af65d6b6088c87aa00113db6e380e85341828a84b784"
    # Re-captured (was e48d3103…) when ``ciphertext_hash`` became SHA-256
    # over the recovery ciphertext's encoding, whose one-time AE messages
    # carry no nonce.  Checked against the parent: the salt, the tags and
    # the three shares the devices decrypt are the parent's (the transport
    # key and its shares are drawn before any nonce), and so is the
    # payload they open; the 2nd and 3rd ephemerals moved, being drawn
    # after the dropped nonces of the share ciphertexts before them.
    # Re-captured again (was 4f24dcaa…) when the shares stopped carrying
    # their series tag, kind byte and point length: the salt, the tags, the
    # ephemerals and the payload are the parent's, and only the encoding
    # the hash covers is shorter.
    # Re-captured again (was ea62cd7a…) when a share's wraps became 16-byte
    # KEM masks: the salt, the tags, the ephemerals, the LHE payload and
    # the share plaintexts the devices decrypt are the parent's; the wraps
    # and share payloads are new bytes, and the encoding is shorter.
    # Re-captured again (was 9563a3ad…) when the shares came to share one
    # ephemeral and bind their position: the salt, the tag, the first
    # ephemeral (now every share's), the LHE payload and the share
    # plaintexts the devices decrypt are the parent's; the 2nd and 3rd
    # shares' keys are drawn where the parent drew their scalars, so their
    # wraps and payloads are new bytes, and the encoding is 66 bytes
    # shorter (501 → 435).  A copy that draws and discards the parent's
    # 2nd and 3rd scalars keeps every key the parent drew and hashes to
    # 63563c8c…, the same layout.
    # Re-captured again (was b25b4f8a…) when Shamir moved to GF(2^128 + 51)
    # and a share's plaintext became the 19-byte share, its owner bound as
    # associated data: the encoding is 60 bytes shorter (435 → 375, 3 ×
    # (2 + 1 + 36 − 19) for the username "v").  The one coefficient draw
    # reads 17 bytes (and rejects about half) where the parent read 32, so
    # the ephemeral, the slot keys and the wraps are drawn from other bytes
    # of the stream; the salt, the tag and the LHE payload are the
    # parent's.  A copy that draws the parent's 32 bytes for the
    # coefficient keeps the parent's ephemeral and wraps too and hashes to
    # 7219bf00…, the same layout.
    # Re-captured again (was 12fa33ae…) when lengths, counts and the three
    # header integers became one-byte varints: the encoding is 36 bytes
    # shorter (375 → 339: the username's length, threshold / N / epoch,
    # the share count, 3 shares' wrap counts and payload lengths, the
    # payload's length, 3 bytes each).  Every drawn byte is the parent's;
    # the share owner's context length is a varint too, so each share
    # payload's 16-byte GCM tag is new and its 19 ciphertext bytes are the
    # parent's.  A copy that keeps the parent's spelling for the owner and
    # for the hash decodes to the parent's ciphertext and hashes to
    # 12fa33ae…, the same values.
    LHE_DIGEST = "423bfaffefee0df0581a10290b383180c993f8e8e0c213d4f8e67b02b6b99ae3"

    def test_lagrange_matches_the_field_class(self):
        def values(modulus):
            return [interpolate_at_zero(list(zip(xs, ys)), modulus) for xs, ys in _point_sets(modulus, 28)]

        assert values(SMALL_PRIME) == self.SMALL_VALUES
        large = values(P256_ORDER)
        digest = hashlib.sha256(b"".join(v.to_bytes(32, "big") for v in large)).hexdigest()
        assert digest == self.P256_DIGEST

    def test_shamir_shares(self):
        """Over the P-256 order (the default field when the digest was
        taken), each share hashed as that field's layout wrote it: a
        ``u32`` x and a 32-byte y."""
        digest = hashlib.sha256()
        with DeterministicEntropy(28):
            for t, n in ((1, 1), (1, 3), (2, 3), (3, 5), (5, 8)):
                for rng in (None, random.Random(t * 100 + n)):
                    sharer = ShamirSharer(t, n, modulus=P256_ORDER)
                    for share in sharer.share(bytes(range(t, t + 16)), rng=rng):
                        digest.update(share.x.to_bytes(4, "big") + share.y.to_bytes(32, "big"))
        assert digest.hexdigest() == self.SHAMIR_DIGEST

    def test_lhe_ciphertexts(self):
        digest = hashlib.sha256()
        with DeterministicEntropy(28):
            params = BloomParams(num_slots=32, num_hashes=3, max_punctures=4, failure_exponent=4)
            bfe_keys = [
                BloomFilterEncryption.keygen(params, InMemoryBlockStore(), random.Random(50 + i))[0]
                for i in range(4)
            ]
            lhe = LocationHidingEncryption(4, 3, 2)
            ct = lhe.encrypt(bfe_keys, "4711", b"bfe payload", username="v")
            digest.update(ct.ciphertext_hash())
        assert digest.hexdigest() == self.LHE_DIGEST

    def test_duplicate_x_raises_in_reconstruct_and_is_skipped_when_robust(self):
        sharer = ShamirSharer(2, 4)
        shares = sharer.share(b"0123456789abcdef")
        with pytest.raises(ValueError):
            sharer.reconstruct([shares[1], shares[1]])
        # Half the draws pair a share with its own copy; each of those must
        # be skipped, not raise, until a pair of distinct x's comes up.
        duplicated = [shares[0], shares[0], shares[0], shares[2]]
        secret = sharer.reconstruct_robust(duplicated, lambda c: c == b"0123456789abcdef")
        assert secret == b"0123456789abcdef"
        with pytest.raises(ValueError):
            sharer.reconstruct_robust([shares[3]] * 4, lambda c: True)

    def test_the_field_classes_are_gone(self):
        assert not hasattr(field_module, "FieldElement")
        assert not hasattr(field_module, "PrimeField")
