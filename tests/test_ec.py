"""NIST P-256 curve arithmetic, serialization, Schnorr verification, and the
reference ECDSA (``tests/reference_ecdsa.py``) run on the same curve code."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ec import N, P256, ECPoint
from repro.metering import metered

from reference_ecdsa import ecdsa_sign, ecdsa_verify_all

G = P256.generator


def ecdsa_verify(public, message, signature):
    return ecdsa_verify_all([(public, message, signature)])


def schnorr_sign(secret, challenge, nonce_secret=7):
    """``(R, s)`` with ``s·G = R + c·X`` for ``X = secret·G``."""
    return G * nonce_secret, (nonce_secret + challenge * secret) % N

# Published small multiples of the P-256 base point.
KNOWN_MULTIPLES = {
    2: 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
    3: 0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C,
    4: 0xE2534A3532D08FBBA02DDE659EE62BD0031FE2DB785596EF509302446B030852,
    5: 0x51590B7A515140D2D784C85608668FDFEF8C82FD1F5BE52421554A0DC3D033ED,
    10: 0xCEF66D6B2A3A993E591214D1EA223FB545CA6C471C48306E4C36069404C5723F,
    112233445566778899: 0x339150844EC15234807FE862A86BE77977DBFB3AE3D96F4C22795513AEAAB82F,
}


class TestKnownVectors:
    @pytest.mark.parametrize("k,x", sorted(KNOWN_MULTIPLES.items()))
    def test_scalar_multiples(self, k, x):
        assert (G * k).x == x

    def test_generator_on_curve(self):
        ECPoint(G.x, G.y)  # constructor validates curve membership

    def test_order_annihilates(self):
        assert (G * N).is_infinity


class TestGroupLaws:
    def test_identity(self):
        infinity = ECPoint(None, None)
        assert G + infinity == G
        assert infinity + G == G

    def test_inverse(self):
        assert (G + (-G)).is_infinity

    def test_commutativity(self):
        assert G * 3 + G * 5 == G * 5 + G * 3

    def test_distributivity(self):
        assert G * 7 + G * 9 == G * 16

    def test_doubling_matches_addition(self):
        assert G + G == G * 2

    def test_subtraction(self):
        assert G * 5 - G * 3 == G * 2

    @given(a=st.integers(1, N - 1), b=st.integers(1, N - 1))
    @settings(max_examples=10, deadline=None)
    def test_homomorphism_property(self, a, b):
        assert (G * a) + (G * b) == G * ((a + b) % N)


class TestValidationAndSerialization:
    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            ECPoint(1, 1)

    def test_compressed_roundtrip_even_and_odd(self):
        for k in (2, 3, 5, 7):
            point = G * k
            assert ECPoint.from_bytes(point.to_bytes()) == point

    def test_infinity_roundtrip(self):
        infinity = ECPoint(None, None)
        assert ECPoint.from_bytes(infinity.to_bytes()).is_infinity

    def test_malformed_encodings_rejected(self):
        with pytest.raises(ValueError):
            ECPoint.from_bytes(b"\x05" + bytes(32))
        with pytest.raises(ValueError):
            ECPoint.from_bytes(b"\x02" + bytes(10))

    def test_invalid_x_rejected(self):
        # x = p - 1 has no square-root rhs for P-256
        bad = b"\x02" + (P256.p - 1).to_bytes(32, "big")
        with pytest.raises(ValueError):
            ECPoint.from_bytes(bad)


class TestKeygen:
    def test_deterministic_with_rng(self, rng):
        import random

        kp1 = P256.keygen(random.Random(1))
        kp2 = P256.keygen(random.Random(1))
        assert kp1.secret == kp2.secret
        assert kp1.public == kp2.public

    def test_public_matches_secret(self):
        kp = P256.keygen()
        assert kp.public == G * kp.secret


class TestSchnorrVerify:
    """``P256.schnorr_verify(public, challenge, nonce, s)``: one key, a
    signer key on a ladder (it carries no comb)."""

    def test_sign_verify(self):
        kp = P256.keygen()
        nonce, s = schnorr_sign(kp.secret, 5)
        assert P256.schnorr_verify(kp.public, 5, nonce, s)
        assert kp.public._comb is None  # a check builds no comb

    def test_wrong_challenge_rejected(self):
        kp = P256.keygen()
        nonce, s = schnorr_sign(kp.secret, 5)
        assert not P256.schnorr_verify(kp.public, 6, nonce, s)
        assert not P256.schnorr_verify(kp.public, 5, -nonce, s)

    def test_wrong_key_rejected(self):
        kp1, kp2 = P256.keygen(), P256.keygen()
        nonce, s = schnorr_sign(kp1.secret, 5)
        assert not P256.schnorr_verify(kp2.public, 5, nonce, s)

    def test_garbage_s_rejected(self):
        kp = P256.keygen()
        nonce, s = schnorr_sign(kp.secret, 5)
        for garbage in (0, N, N + s, -s, str(s), float(s), None):
            assert not P256.schnorr_verify(kp.public, 5, nonce, garbage)

    def test_identity_key_rejected(self):
        nonce, s = schnorr_sign(0, 5)  # s·G = R: the identity key's "signature"
        assert not P256.schnorr_verify(ECPoint(None, None), 5, nonce, s)


class TestEcdsa:
    def test_sign_verify(self):
        kp = P256.keygen()
        sig = ecdsa_sign(kp.secret, b"message")
        assert ecdsa_verify(kp.public, b"message", sig)

    def test_wrong_message_rejected(self):
        kp = P256.keygen()
        sig = ecdsa_sign(kp.secret, b"message")
        assert not ecdsa_verify(kp.public, b"other", sig)

    def test_wrong_key_rejected(self):
        kp1, kp2 = P256.keygen(), P256.keygen()
        sig = ecdsa_sign(kp1.secret, b"message")
        assert not ecdsa_verify(kp2.public, b"message", sig)

    def test_garbage_signature_rejected(self):
        kp = P256.keygen()
        assert not ecdsa_verify(kp.public, b"message", (0, 0))
        assert not ecdsa_verify(kp.public, b"message", (N, 1))

    def test_signing_is_deterministic(self):
        assert ecdsa_sign(123, b"m") == ecdsa_sign(123, b"m")


class TestMetering:
    def test_scalar_mult_reports(self):
        with metered() as meter:
            _ = G * 12345
        assert meter.counts["ec_mult"] == 1

    def test_ecdsa_verify_reports(self):
        """The reference ECDSA meters one ``ecdsa_verify`` a triple, the unit
        a Schnorr check is billed in (``test_schnorr_verify_reports``)."""
        kp = P256.keygen()
        sig = ecdsa_sign(kp.secret, b"m")
        with metered() as meter:
            ecdsa_verify(kp.public, b"m", sig)
        assert meter.counts["ecdsa_verify"] == 1

    def test_schnorr_verify_reports(self):
        """The cost model's ``ecdsa_verify`` is one verification: one
        Schnorr check, accepted or not."""
        kp = P256.keygen()
        nonce, s = schnorr_sign(kp.secret, 5)
        for challenge in (5, 6):
            with metered() as meter:
                assert P256.schnorr_verify(kp.public, challenge, nonce, s) == (challenge == 5)
            assert meter.counts["ecdsa_verify"] == 1 and "ec_mult" not in meter.counts
