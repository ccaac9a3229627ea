"""Hashed ElGamal: roundtrips, context binding, key privacy shape."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ec import ECPoint
from repro.crypto.elgamal import ElGamalCiphertext, HashedElGamal
from repro.crypto.gcm import AuthenticationError, seal_one_time
from repro.crypto.hashing import kdf
from repro.metering import metered


class TestRoundtrip:
    def test_basic(self):
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, b"plaintext")
        assert HashedElGamal.decrypt(kp.secret, ct) == b"plaintext"

    def test_empty_message(self):
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, b"")
        assert HashedElGamal.decrypt(kp.secret, ct) == b""

    @given(message=st.binary(max_size=300))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, message):
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, message, context=b"ctx")
        assert HashedElGamal.decrypt(kp.secret, ct, context=b"ctx") == message


class TestBinding:
    def test_wrong_key_fails(self):
        kp1, kp2 = HashedElGamal.keygen(), HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp1.public, b"secret")
        with pytest.raises(AuthenticationError):
            HashedElGamal.decrypt(kp2.secret, ct)

    def test_wrong_context_fails(self):
        # Appendix A.4's domain separation: decryption under a different
        # (username, salt, cluster) context must fail, not return plaintext.
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, b"secret", context=b"user-a")
        with pytest.raises(AuthenticationError):
            HashedElGamal.decrypt(kp.secret, ct, context=b"user-b")

    def test_tampered_body_fails(self):
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, b"secret")
        tampered = ElGamalCiphertext(ct.ephemeral, bytes([ct.body[0] ^ 1]) + ct.body[1:])
        with pytest.raises(AuthenticationError):
            HashedElGamal.decrypt(kp.secret, tampered)

    def test_swapped_ephemeral_fails(self):
        kp = HashedElGamal.keygen()
        ct1 = HashedElGamal.encrypt(kp.public, b"one")
        ct2 = HashedElGamal.encrypt(kp.public, b"two")
        frankenstein = ElGamalCiphertext(ct1.ephemeral, ct2.body)
        with pytest.raises(AuthenticationError):
            HashedElGamal.decrypt(kp.secret, frankenstein)

    def test_identity_ephemeral_refused_before_the_multiply(self):
        """``∞·x`` is ``∞`` under every key, so a body sealed under the KDF
        of the identity would open for anyone: refused, as the client's
        reply opener maps to a ⊥ share, with no decryption metered."""
        identity = ECPoint(None, None)
        key = kdf("hashed-elgamal", identity.to_bytes(), b"ctx", length=16)
        (body,) = seal_one_time([(key, b"chosen share", b"ctx")])
        forged = ElGamalCiphertext(identity, body)
        secret = HashedElGamal.keygen().secret
        with metered() as meter:
            with pytest.raises(AuthenticationError, match="identity"):
                HashedElGamal.decrypt(secret, forged, context=b"ctx")
        assert not meter.counts

    def test_too_short_body(self):
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, b"x")
        with pytest.raises(AuthenticationError):
            HashedElGamal.decrypt(kp.secret, ElGamalCiphertext(ct.ephemeral, b"ab"))


class TestSerialization:
    def test_roundtrip(self):
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, b"data")
        restored = ElGamalCiphertext.from_bytes(ct.to_bytes())
        assert restored == ct
        assert HashedElGamal.decrypt(kp.secret, restored) == b"data"

    def test_length(self):
        kp = HashedElGamal.keygen()
        ct = HashedElGamal.encrypt(kp.public, b"12345")
        # 33 (point) + 5 (body) + 16 (tag): the key seals this one message,
        # so the body carries no nonce.
        assert len(ct) == 33 + 5 + 16

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            ElGamalCiphertext.from_bytes(b"short")


class TestKeyPrivacyShape:
    def test_ciphertexts_carry_no_key_reference(self):
        """Key privacy (Bellare et al.): the ciphertext is a random group
        element plus AE bytes; nothing in it equals or encodes the recipient
        key.  (The full indistinguishability argument is Appendix A; here we
        check the structural property the argument relies on.)"""
        kp1, kp2 = HashedElGamal.keygen(), HashedElGamal.keygen()
        ct1 = HashedElGamal.encrypt(kp1.public, b"m")
        ct2 = HashedElGamal.encrypt(kp2.public, b"m")
        for ct, kp in ((ct1, kp1), (ct2, kp2)):
            assert ct.ephemeral != kp.public
            assert kp.public.to_bytes() not in ct.to_bytes()
        # Same-key ciphertexts are also unlinkable at the structural level.
        ct1b = HashedElGamal.encrypt(kp1.public, b"m")
        assert ct1.ephemeral != ct1b.ephemeral
