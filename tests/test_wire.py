"""Wire formats: roundtrips and strict rejection of malformed input."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.lhe import BfePke, LocationHidingEncryption
from repro.crypto.bfe import BloomFilterEncryption
from repro.crypto.bloom import BloomParams
from repro.log.authdict import AuthenticatedDictionary
from repro.storage.blockstore import InMemoryBlockStore


@pytest.fixture(scope="module")
def bfe_setup():
    params = BloomParams.for_punctures(4, failure_exponent=4)
    pairs = [BloomFilterEncryption.keygen(params, InMemoryBlockStore()) for _ in range(6)]
    lhe = LocationHidingEncryption(6, 3, 2, pke=BfePke())
    return pairs, lhe


class TestBfeCiphertext:
    def test_roundtrip(self, bfe_setup):
        pairs, _ = bfe_setup
        ct = BloomFilterEncryption.encrypt(pairs[0][0], b"payload", context=b"c")
        decoded = wire.decode_bfe_ciphertext(wire.encode_bfe_ciphertext(ct))
        assert decoded == ct
        assert BloomFilterEncryption.decrypt(pairs[0][1], decoded, context=b"c") == b"payload"

    def test_truncation_rejected(self, bfe_setup):
        pairs, _ = bfe_setup
        ct = BloomFilterEncryption.encrypt(pairs[0][0], b"payload", context=b"c")
        blob = wire.encode_bfe_ciphertext(ct)
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(wire.WireFormatError):
                wire.decode_bfe_ciphertext(blob[:cut])

    def test_trailing_bytes_rejected(self, bfe_setup):
        pairs, _ = bfe_setup
        ct = BloomFilterEncryption.encrypt(pairs[0][0], b"p", context=b"c")
        with pytest.raises(wire.WireFormatError):
            wire.decode_bfe_ciphertext(wire.encode_bfe_ciphertext(ct) + b"x")


class TestRecoveryCiphertext:
    def test_roundtrip(self, bfe_setup):
        pairs, lhe = bfe_setup
        publics = [pub for pub, _ in pairs]
        ct = lhe.encrypt(publics, "1234", b"disk image", username="alice")
        blob = wire.encode_recovery_ciphertext(ct)
        decoded = wire.decode_recovery_ciphertext(blob)
        assert decoded == ct
        assert decoded.ciphertext_hash() == ct.ciphertext_hash()

    def test_decoded_ciphertext_still_decrypts(self, bfe_setup):
        pairs, lhe = bfe_setup
        publics = [pub for pub, _ in pairs]
        ct = wire.decode_recovery_ciphertext(
            wire.encode_recovery_ciphertext(
                lhe.encrypt(publics, "1234", b"msg", username="alice")
            )
        )
        cluster = lhe.select(ct.salt, "1234")
        context = lhe.context_for(ct, publics, "1234")
        shares = [
            lhe.decrypt_share(pairs[idx][1], pos, ct, context)
            for pos, idx in enumerate(cluster)
        ]
        assert lhe.reconstruct(ct, shares, context) == b"msg"

    def test_bad_version_rejected(self, bfe_setup):
        pairs, lhe = bfe_setup
        publics = [pub for pub, _ in pairs]
        blob = wire.encode_recovery_ciphertext(
            lhe.encrypt(publics, "1234", b"msg", username="alice")
        )
        with pytest.raises(wire.WireFormatError):
            wire.decode_recovery_ciphertext(b"\x77" + blob[1:])

    def test_elgamal_share_kind_is_refused(self):
        """Only BFE share ciphertexts travel.  An ``ElGamalPke`` ciphertext
        (Appendix A's instantiation for the games) has no wire kind, and
        the bytes the retired kind 2 gave it are a wire error."""
        from repro.core.codec import BLOB, TEXT, U32
        from repro.core.lhe import ElGamalPke
        from repro.crypto.elgamal import HashedElGamal

        keys = [HashedElGamal.keygen() for _ in range(5)]
        lhe = LocationHidingEncryption(5, 2, 1, pke=ElGamalPke())
        ct = lhe.encrypt([k.public for k in keys], "9999", b"m", username="bob")
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
        from repro.hsm.device import DecryptShareRequest

        request = DecryptShareRequest(
            username=session.username,
            log_identifier=session.log_identifier,
            commitment=session.commitment,
            opening=session.opening,
            inclusion_proof=session.inclusion_proof,
            share_ciphertext=session.ciphertext.share_ciphertexts[0],
            context=session.context,
            response_key=session.response_keypair.public,
        )
        decoded = wire.decode_decrypt_request(wire.encode_decrypt_request(request))
        assert decoded.username == request.username
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
