"""AES-128 against FIPS-197 vectors; GCM against NIST SP 800-38D vectors.

``src/`` holds only the forward cipher (GCM never decrypts a block), so the
inverse used by the round-trip tests is the byte-wise reference's.
"""

import pytest
from hypothesis import given, settings, strategies as st

from reference_symmetric import ReferenceAes128
from repro.crypto import gcm
from repro.crypto.aes import Aes128
from repro.crypto.gcm import (
    NONCE_LEN,
    ONE_TIME_NONCE,
    TAG_LEN,
    AuthenticationError,
    ae_decrypt,
    ae_encrypt,
    open_each,
    seal_each,
)
from repro.metering import metered


def seal(key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """``ciphertext ‖ tag`` of one message under a one-time key."""
    (body,) = seal_each([(key, plaintext, aad)])
    return body


def unseal(key: bytes, body: bytes, aad: bytes = b"") -> bytes:
    """The plaintext of ``body``; raises on any tampering."""
    (plaintext,) = open_each([(key, body, aad)])
    return plaintext


class TestAesBlockVectors:
    def test_fips197_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_fips197_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_decrypt_inverts_encrypt(self):
        key = bytes(range(16))
        block = b"sixteen byte blk"
        assert ReferenceAes128(key).decrypt_block(Aes128(key).encrypt_block(block)) == block

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            Aes128(b"short")

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            Aes128(bytes(16)).encrypt_block(b"short")
        with pytest.raises(ValueError):
            ReferenceAes128(bytes(16)).decrypt_block(b"short")

    @given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=30)
    def test_roundtrip_property(self, key, block):
        assert ReferenceAes128(key).decrypt_block(Aes128(key).encrypt_block(block)) == block


class TestGcmVectors:
    """Cases 1–2 have a zero IV, ``ONE_TIME_NONCE``: they go through
    :func:`seal_each` / :func:`open_each`.  Case 4's IV is carried, as
    :func:`ae_encrypt` carries its nonce."""

    def test_nist_case_1_empty(self):
        tag = bytes.fromhex("58e2fccefa7e3061367f1d57a4e7455a")
        assert seal(bytes(16), b"") == tag
        assert unseal(bytes(16), tag) == b""

    def test_nist_case_2_zero_block(self):
        ct = bytes.fromhex("0388dace60b6a392f328c2b971b2fe78")
        tag = bytes.fromhex("ab6e47d42cec13bdf53a67b21257bddf")
        assert seal(bytes(16), bytes(16)) == ct + tag
        assert unseal(bytes(16), ct + tag) == bytes(16)

    def test_nist_case_4_with_aad(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        plaintext = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
        )
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        ct = bytes.fromhex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        )
        tag = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")
        assert gcm._seal([(key, plaintext, aad)], iv) == [ct + tag]
        assert ae_decrypt(key, iv + ct + tag, aad) == plaintext


class TestGcmBehaviour:
    def test_tamper_ciphertext_detected(self):
        out = bytearray(seal(bytes(16), b"hello world"))
        out[0] ^= 1
        with pytest.raises(AuthenticationError):
            unseal(bytes(16), bytes(out))

    def test_tamper_tag_detected(self):
        out = bytearray(seal(bytes(16), b"hello world"))
        out[-1] ^= 1
        with pytest.raises(AuthenticationError):
            unseal(bytes(16), bytes(out))

    def test_wrong_aad_detected(self):
        out = seal(bytes(16), b"data", aad=b"right")
        with pytest.raises(AuthenticationError):
            unseal(bytes(16), out, aad=b"wrong")

    def test_truncated_raises(self):
        with pytest.raises(AuthenticationError):
            unseal(bytes(16), b"short")

    def test_bad_nonce_length(self):
        """No caller hands in a nonce: :func:`ae_encrypt` puts its own 12
        bytes in front, and :func:`ae_decrypt` refuses a blob too short to
        carry a nonce and a tag."""
        key = bytes(16)
        blob = ae_encrypt(key, b"data")
        assert len(blob) == NONCE_LEN + len(b"data") + TAG_LEN
        assert gcm._seal([(key, b"data", b"")], blob[:NONCE_LEN]) == [blob[NONCE_LEN:]]
        assert ae_decrypt(key, blob) == b"data"
        for length in (0, 5, NONCE_LEN, NONCE_LEN + TAG_LEN - 1):
            with pytest.raises(AuthenticationError):
                ae_decrypt(key, blob[:length])

    @given(
        key=st.binary(min_size=16, max_size=16),
        plaintext=st.binary(max_size=200),
        aad=st.binary(max_size=50),
    )
    @settings(max_examples=25)
    def test_roundtrip_property(self, key, plaintext, aad):
        assert unseal(key, seal(key, plaintext, aad), aad) == plaintext


class TestOneTimeAe:
    """A key that seals one message seals under ``ONE_TIME_NONCE`` and is
    held without it; what is metered is :func:`ae_encrypt`'s."""

    def test_is_seal_each_under_the_constant_without_it(self):
        key = bytes(range(16))
        body = seal(key, b"one message", b"aad")
        assert ONE_TIME_NONCE == bytes(12)
        assert body == gcm._seal([(key, b"one message", b"aad")], ONE_TIME_NONCE)[0]
        assert ae_decrypt(key, ONE_TIME_NONCE + body, b"aad") == b"one message"
        assert unseal(key, body, b"aad") == b"one message"
        with pytest.raises(AuthenticationError):
            unseal(key, body, b"other aad")

    def test_billed_as_the_random_nonce_calls(self):
        key, message = bytes(16), b"m" * 40
        with metered() as one_time:
            unseal(key, seal(key, message))
        with metered() as random_nonce:
            ae_decrypt(key, ae_encrypt(key, message))
        assert one_time.counts == random_nonce.counts


class TestOneShotAe:
    def test_roundtrip(self):
        key = bytes(range(16))
        assert ae_decrypt(key, ae_encrypt(key, b"msg", b"aad"), b"aad") == b"msg"

    def test_nonce_randomized(self):
        key = bytes(range(16))
        assert ae_encrypt(key, b"msg") != ae_encrypt(key, b"msg")

    def test_wrong_key_fails(self):
        blob = ae_encrypt(bytes(16), b"msg")
        with pytest.raises(AuthenticationError):
            ae_decrypt(bytes([1] * 16), blob)

    def test_too_short_fails(self):
        with pytest.raises(AuthenticationError):
            ae_decrypt(bytes(16), b"tiny")
