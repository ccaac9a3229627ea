"""Shamir secret sharing: reconstruction identities and failure modes."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import WireFormatError
from repro.crypto.ec import N, P256, multi_mult, naive_mult
from repro.crypto.field import lagrange_at_zero
from repro.crypto.shamir import DEFAULT_MODULUS, SHARE, Share, ShamirSharer
from repro.metering import metered

G = P256.generator
P = DEFAULT_MODULUS

#: Fixed Miller–Rabin bases, the first twelve primes (a proof of
#: primality only below 3.3·10^24; above it, a strong probable prime).
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n: int) -> bool:
    """``n`` passes the strong-probable-prime test to every base in
    :data:`BASES`."""
    if n < 2:
        return False
    if any(n % base == 0 for base in BASES):
        return n in BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestTheField:
    """Shares live in GF(2^128 + 51): the smallest prime above 2^128, so
    every 16-byte transport key is a field element and a ``y`` is 17
    bytes."""

    def test_the_modulus_is_the_smallest_prime_above_2_128(self):
        assert P == (1 << 128) + 51
        assert strong_probable_prime(P)
        assert not any(strong_probable_prime(n) for n in range((1 << 128) + 1, P))
        assert strong_probable_prime(N)  # the test accepts a known prime

    def test_the_largest_key_shares_and_reconstructs(self):
        sharer = ShamirSharer(3, 5)
        top = b"\xff" * 16
        shares = sharer.share(top)
        assert sharer.reconstruct(shares[2:]) == top
        assert sharer.reconstruct(shares[:3]) == top

    def test_a_corrupt_set_interpolating_past_2_128_is_refused(self):
        """At ``x`` = 1, 2 the weights are 2 and −1, so moving the second
        ``y`` to ``2·y_1 − (p − 1)`` interpolates to ``p − 1``: no 16-byte
        key, a ``ValueError`` (an invalid candidate), not a crash."""
        sharer = ShamirSharer(2, 3)
        first, second, _ = sharer.share(b"k" * 16)
        corrupt = Share(x=second.x, y=(2 * first.y - (P - 1)) % P)
        with pytest.raises(ValueError, match="does not fit"):
            sharer.reconstruct([first, corrupt])
        assert sharer.reconstruct([first, corrupt], secret_length=17) == (P - 1).to_bytes(17, "big")


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

    def test_a_y_above_2_128_takes_17_bytes(self):
        for y in ((1 << 128), (1 << 128) + 7, P - 1):
            encoded = SHARE.encode(Share(x=3, y=y))
            assert len(encoded) == 2 + 17
            assert encoded[2:] == y.to_bytes(17, "big")
            assert SHARE.decode(encoded) == Share(x=3, y=y)

    def test_x_and_y_beyond_the_layout_are_unencodable(self):
        assert len(SHARE.encode(Share(x=(1 << 16) - 1, y=(1 << 136) - 1))) == 19
        with pytest.raises(WireFormatError, match="out of range"):
            SHARE.encode(Share(x=1 << 16, y=1))
        with pytest.raises(WireFormatError, match="out of range"):
            SHARE.encode(Share(x=1, y=1 << 136))

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


class TestOverTheCurveOrder:
    """Over the P-256 group order (``modulus=N``), a share set of a secret
    *scalar* ``x`` also recombines in the exponent: the Lagrange weights
    of any ``t`` shares take the points ``B·x_i`` to ``B·x`` in one Straus
    sum.  That is the algebra of the fleet-wide threshold design
    ``bench_fig11_cluster_size.py`` prices (one ``B·x_i`` per participating
    HSM per recovery); these tests pin it on the code that stays."""

    T, SHARES = 3, 5

    @pytest.fixture(scope="class")
    def dealt(self):
        rng = random.Random(37)
        secret = rng.randrange(1, N)
        shares = ShamirSharer(self.T, self.SHARES, modulus=N).share(
            secret.to_bytes(32, "big"), rng=rng
        )
        return secret, shares

    @staticmethod
    def recombine(shares, base):
        weights = lagrange_at_zero([s.x for s in shares], N)
        return multi_mult([(w, base * s.y) for w, s in zip(weights, shares)])

    def test_the_curve_order_is_asked_for_not_the_default(self):
        assert DEFAULT_MODULUS == (1 << 128) + 51 != N
        assert ShamirSharer(2, 3).modulus == DEFAULT_MODULUS
        assert ShamirSharer(2, 3, modulus=N).modulus == N

    def test_a_full_width_scalar_embeds_and_reconstructs(self):
        sharer = ShamirSharer(2, 3, modulus=N)
        top = (N - 1).to_bytes(32, "big")
        assert sharer.reconstruct(sharer.share(top)[1:], secret_length=32) == top
        with pytest.raises(ValueError):
            sharer.share(N.to_bytes(32, "big"))

    def test_every_threshold_subset_recombines_the_public_key(self, dealt):
        secret, shares = dealt
        public = G * secret
        for subset in itertools.combinations(shares, self.T):
            assert self.recombine(subset, G) == public

    def test_more_than_threshold_shares_recombine_to_the_same_point(self, dealt):
        secret, shares = dealt
        assert self.recombine(shares, G) == G * secret
        assert self.recombine(shares[1:], G) == G * secret

    def test_partials_of_a_one_off_point_recombine(self, dealt):
        secret, shares = dealt
        ephemeral = G * random.Random(41).randrange(1, N)
        expected = naive_mult(ephemeral, secret)
        assert self.recombine(shares[2:], ephemeral) == expected
        assert self.recombine(shares[::2], ephemeral) == expected

    def test_below_threshold_recombination_misses(self, dealt):
        secret, shares = dealt
        for subset in itertools.combinations(shares, self.T - 1):
            assert self.recombine(subset, G) != G * secret

    def test_a_corrupt_partial_moves_the_recombined_point(self, dealt):
        secret, shares = dealt
        subset = shares[: self.T]
        weights = lagrange_at_zero([s.x for s in subset], N)
        partials = [G * s.y for s in subset]
        partials[0] = partials[0] + partials[0]
        assert multi_mult(list(zip(weights, partials))) != G * secret

    def test_recombination_meters_one_ec_mult_per_share(self):
        """The rejected design's cost shape: the work of one recovery grows
        with the number of shares that take part."""
        rng = random.Random(43)

        def mults_for(t):
            shares = ShamirSharer(t, t, modulus=N).share(
                rng.randrange(1, N).to_bytes(32, "big"), rng=rng
            )
            partials = [(w, G * s.y) for w, s in zip(lagrange_at_zero([s.x for s in shares], N), shares)]
            with metered() as meter:
                multi_mult(partials)
            return meter.counts["ec_mult"]

        assert mults_for(2) == 2
        assert mults_for(8) == 8


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
