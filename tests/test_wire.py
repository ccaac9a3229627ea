"""Wire formats: roundtrips and strict rejection of malformed input."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.lhe import LocationHidingEncryption
from repro.crypto.bfe import BloomFilterEncryption
from repro.crypto.bloom import BloomParams
from repro.crypto.hashing import sha256
from repro.crypto.shamir import SHARE, Share
from repro.log.authdict import AuthenticatedDictionary
from repro.storage.blockstore import InMemoryBlockStore

from relayed import device_request


@pytest.fixture(scope="module")
def bfe_setup():
    params = BloomParams.for_punctures(4, failure_exponent=4)
    pairs = [BloomFilterEncryption.keygen(params, InMemoryBlockStore()) for _ in range(6)]
    lhe = LocationHidingEncryption(6, 3, 2)
    return pairs, lhe


class TestBfeCiphertext:
    def test_roundtrip(self, bfe_setup):
        pairs, _ = bfe_setup
        (ct,) = BloomFilterEncryption.encrypt([pairs[0][0]], [b"payload"], context=b"c")
        decoded = wire.decode_bfe_ciphertext(wire.encode_bfe_ciphertext(ct))
        assert decoded == ct
        assert BloomFilterEncryption.decrypt(pairs[0][1], decoded, context=b"c") == b"payload"

    def test_truncation_rejected(self, bfe_setup):
        pairs, _ = bfe_setup
        (ct,) = BloomFilterEncryption.encrypt([pairs[0][0]], [b"payload"], context=b"c")
        blob = wire.encode_bfe_ciphertext(ct)
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(wire.WireFormatError):
                wire.decode_bfe_ciphertext(blob[:cut])

    def test_trailing_bytes_rejected(self, bfe_setup):
        pairs, _ = bfe_setup
        (ct,) = BloomFilterEncryption.encrypt([pairs[0][0]], [b"p"], context=b"c")
        with pytest.raises(wire.WireFormatError):
            wire.decode_bfe_ciphertext(wire.encode_bfe_ciphertext(ct) + b"x")


class TestOneTimeNonces:
    """A BFE ciphertext's one AE message, its payload, is under a key that
    seals only it, so it travels as ``ciphertext ‖ tag`` (the opener
    prepends ``gcm.ONE_TIME_NONCE``); its wraps are bare 16-byte masks, and
    its fixed-length fields carry no length."""

    def test_share_ciphertext_at_k4_is_168_bytes(self):
        params = BloomParams.for_punctures(16, failure_exponent=4)
        public, secret = BloomFilterEncryption.keygen(params, InMemoryBlockStore())
        plaintext = SHARE.encode(Share(1, 5))
        assert params.num_hashes == 4 and len(plaintext) == 19
        (ct,) = BloomFilterEncryption.encrypt([public], [plaintext], context=b"c", tag=bytes(32))
        # tag 32, ephemeral 33 (its prefix gives its length), the u16
        # position, 4 wraps of 16 behind a one-byte varint count, payload
        # blob 1 + 19 + 16: the share alone, its owner being associated
        # data.  The count and the payload length were u32s (174 bytes).
        encoded = wire.encode_bfe_ciphertext(ct)
        assert len(encoded) == 32 + 33 + 2 + 1 + 4 * 16 + 1 + 19 + 16 == 168
        assert [len(wrap) for wrap in ct.wrapped_keys] == [16] * 4
        decoded = wire.decode_bfe_ciphertext(encoded)
        assert decoded == ct
        assert BloomFilterEncryption.decrypt_and_puncture(secret, decoded, context=b"c") == plaintext


class TestRecoveryCiphertext:
    def test_roundtrip(self, bfe_setup):
        pairs, lhe = bfe_setup
        publics = [pub for pub, _ in pairs]
        ct = lhe.encrypt(publics, "1234", b"disk image", username="alice")
        blob = wire.encode_recovery_ciphertext(ct)
        decoded = wire.decode_recovery_ciphertext(blob)
        assert decoded == ct
        assert decoded.ciphertext_hash() == ct.ciphertext_hash()
        # One spelling: the size is the encoding's, the hash is over it.
        assert ct.size_bytes() == len(blob)
        assert ct.ciphertext_hash() == sha256(b"lhe-ciphertext", blob)

    def test_decoded_ciphertext_still_decrypts(self, bfe_setup):
        pairs, lhe = bfe_setup
        publics = [pub for pub, _ in pairs]
        ct = wire.decode_recovery_ciphertext(
            wire.encode_recovery_ciphertext(
                lhe.encrypt(publics, "1234", b"msg", username="alice")
            )
        )
        cluster = lhe.select(ct.salt, "1234")
        context = lhe.context_for(ct.username, ct.salt, publics, "1234")
        shares = [
            lhe.decrypt_share(pairs[idx][1], pos, ct, context)
            for pos, idx in enumerate(cluster)
        ]
        assert lhe.reconstruct(ct, shares, context) == b"msg"

    def test_at_n3_k4_is_417_bytes(self):
        """The ledger's shape: a 10-character username, a 32-byte payload.
        The ciphertext carries its shares' one ephemeral once, and each
        share is its wraps and payload alone (101 bytes: no tag, point or
        position), its payload the 19-byte share with no username.  Every
        length, count and header integer is a one-byte varint: 36 bytes
        fewer than the 453 of ``u32`` ones (the username's length, the
        three header integers, the share count, each share's wrap count
        and payload length, and the payload's length, 3 bytes each)."""
        params = BloomParams.for_punctures(16, failure_exponent=4)
        publics = [BloomFilterEncryption.keygen(params, InMemoryBlockStore())[0] for _ in range(3)]
        ct = LocationHidingEncryption(3, 3, 2).encrypt(
            publics, "1234", bytes(32), username="size-probe"
        )
        encoded = wire.encode_recovery_ciphertext(ct)
        share = 1 + 4 * 16 + 1 + 19 + 16
        # version, salt, username, threshold / N / epoch, ephemeral, share
        # count, payload blob
        assert len(encoded) == 1 + 16 + 1 + 10 + 3 * 1 + 33 + 1 + 3 * share + 1 + 32 + 16 == 417
        # A stand-alone share adds its tag, the ephemeral and its position.
        assert share == len(wire.encode_bfe_ciphertext(ct.share_ciphertexts[0])) - 32 - 33 - 2 == 101
        assert wire.decode_recovery_ciphertext(encoded) == ct

    def test_bad_version_rejected(self, bfe_setup):
        pairs, lhe = bfe_setup
        publics = [pub for pub, _ in pairs]
        blob = wire.encode_recovery_ciphertext(
            lhe.encrypt(publics, "1234", b"msg", username="alice")
        )
        with pytest.raises(wire.WireFormatError):
            wire.decode_recovery_ciphertext(b"\x77" + blob[1:])

    def test_elgamal_share_kind_is_refused(self, bfe_setup):
        """Only BFE share ciphertexts travel.  A hashed-ElGamal share
        ciphertext is unencodable, and the bytes the retired kind 2 gave it
        are a wire error."""
        import dataclasses

        from repro.core.codec import BLOB, TEXT, U32
        from repro.crypto.elgamal import HashedElGamal

        pairs, lhe = bfe_setup
        ct = lhe.encrypt([pub for pub, _ in pairs], "9999", b"m", username="bob")
        public = HashedElGamal.keygen().public
        elgamal_shares = tuple(HashedElGamal.encrypt(public, b"share") for _ in ct.share_ciphertexts)
        ct = dataclasses.replace(ct, share_ciphertexts=elgamal_shares)
        with pytest.raises(wire.WireFormatError):
            wire.encode_recovery_ciphertext(ct)
        counts = (ct.threshold, ct.num_hsms, ct.config_epoch, len(ct.share_ciphertexts))
        kind_two = (
            bytes([wire.WIRE_VERSION]) + BLOB.encode(ct.salt) + TEXT.encode(ct.username)
            + b"".join(map(U32.encode, counts))
            + b"".join(b"\x02" + BLOB.encode(share.to_bytes()) for share in ct.share_ciphertexts)
            + BLOB.encode(ct.payload)
        )
        with pytest.raises(wire.WireFormatError):
            wire.decode_recovery_ciphertext(kind_two)


class TestInclusionProof:
    def test_roundtrip_and_verify(self):
        from repro.log.authdict import verify_includes

        d = AuthenticatedDictionary()
        for i in range(20):
            d.insert(b"id%d" % i, b"v%d" % i)
        proof = d.prove_includes(b"id7", b"v7")
        decoded = wire.decode_inclusion_proof(wire.encode_inclusion_proof(proof))
        assert decoded == proof
        assert verify_includes(d.digest, b"id7", b"v7", decoded)

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=50)
    def test_junk_never_crashes(self, junk):
        try:
            wire.decode_inclusion_proof(junk)
        except wire.WireFormatError:
            pass  # the only acceptable failure mode


class TestDecryptRequest:
    def test_roundtrip_and_hsm_accepts(self, fresh_deployment, unique_user):
        """A request surviving an encode/decode cycle must still be served."""
        client = fresh_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        session = client.begin_recovery("1234", backup_recovery_key=False)
        request = device_request(fresh_deployment.provider, client, session)
        decoded = wire.decode_decrypt_request(wire.encode_decrypt_request(request))
        assert decoded.attempt == request.attempt
        assert decoded.opening == request.opening
        reply = fresh_deployment.fleet[session.cluster[0]].decrypt_share(decoded)
        assert reply is not None

    @given(junk=st.binary(max_size=80))
    @settings(max_examples=50)
    def test_junk_never_crashes(self, junk):
        try:
            wire.decode_decrypt_request(junk)
        except wire.WireFormatError:
            pass
