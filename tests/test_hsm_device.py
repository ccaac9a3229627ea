"""HSM firmware behaviour: recovery checks, rotation, failure injection."""

import dataclasses
import random
import typing

import pytest

from repro.core import wire
from repro.core.identifiers import attempt_identifier
from repro.core.lhe import SHARE_PLAINTEXT, LocationHidingEncryption
from repro.crypto.bfe import BfeCiphertext, BloomFilterEncryption, PuncturedKeyError
from repro.crypto.bloom import BloomParams
from repro.crypto.commit import commit_recovery
from repro.crypto.ec import P256, ECPoint
from repro.crypto.elgamal import HashedElGamal
from repro.crypto.gcm import seal_one_time
from repro.crypto.hashing import kdf
from repro.crypto.shamir import SHARE, Share
from repro.hsm.device import (
    DecryptShareRequest,
    HsmDevice,
    HsmRefusedError,
    HsmUnavailableError,
)
from repro.hsm.fleet import HsmFleet
from repro.log.distributed import DistributedLog, LogConfig
from repro.service.channel import direct_channels, wire_channels

CFG = LogConfig(audit_count=2, quorum_fraction=0.6, max_attempts_per_user=3)
N, CLUSTER, T = 6, 3, 2


@pytest.fixture(scope="module")
def env():
    """A small fleet + log + one logged recovery attempt ready to serve."""
    rng = random.Random(2)
    # Generous puncture budget: the module shares one fleet across ~10
    # recovery attempts, each of which punctures.
    params = BloomParams.for_punctures(64, failure_exponent=4)
    fleet = HsmFleet(N, params, log_config=CFG, rng=rng)
    log = DistributedLog(CFG)
    lhe = LocationHidingEncryption(N, CLUSTER, T)
    mpk = fleet.master_public_key()
    return fleet, log, lhe, mpk


def logged_request_for(env, username, pin, message=b"msg", attempt=0, salt=None):
    """Create a backup + logged recovery attempt; return per-HSM requests."""
    fleet, log, lhe, _ = env
    # Re-read the fleet's current keys: rotation tests in this module bump
    # key epochs, and encrypting to stale keys would (correctly) fail.
    mpk = fleet.master_public_key()
    ct = lhe.encrypt(mpk, pin, message, username=username, salt=salt)
    cluster = lhe.select(ct.salt, pin)
    context = lhe.context_for(ct, mpk, pin)
    commitment, opening = commit_recovery(username, cluster, ct.ciphertext_hash())
    identifier = attempt_identifier(username, attempt)
    log.insert(identifier, commitment)
    log.run_update(fleet.hsms)
    proof = log.prove_includes(identifier, commitment)
    response_kp = P256.keygen()
    requests = []
    for position, hsm_index in enumerate(cluster):
        requests.append(
            (
                hsm_index,
                DecryptShareRequest(
                    username=username,
                    log_identifier=identifier,
                    commitment=commitment,
                    opening=opening,
                    inclusion_proof=proof,
                    share_ciphertext=ct.share_ciphertexts[position],
                    context=context,
                    response_key=response_kp.public,
                ),
            )
        )
    return ct, cluster, requests, response_kp


class TestDecryptShare:
    def test_happy_path_returns_share(self, env):
        fleet = env[0]
        _, _, requests, kp = logged_request_for(env, "hsm-t1", "1111")
        hsm_index, request = requests[0]
        reply = fleet[hsm_index].decrypt_share(request)
        share_bytes = HashedElGamal.decrypt(
            kp.secret, reply, context=b"recovery-reply" + b"hsm-t1"
        )
        assert len(share_bytes) == 36  # 4-byte x + 32-byte y

    def test_unlogged_attempt_refused(self, env):
        fleet, log, lhe, mpk = env
        ct, cluster, requests, _ = logged_request_for(env, "hsm-t2", "2222")
        hsm_index, request = requests[0]
        # Forge: point the proof at a different (unlogged) identifier.
        import dataclasses

        forged = dataclasses.replace(
            request, log_identifier=attempt_identifier("hsm-t2", 1)
        )
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(forged)

    def test_bad_opening_refused(self, env):
        import dataclasses

        from repro.crypto.commit import CommitmentOpening

        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t3", "3333")
        hsm_index, request = requests[0]
        bad_opening = CommitmentOpening(
            request.opening.username,
            request.opening.cluster,
            request.opening.ciphertext_hash,
            bytes(32),
        )
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(dataclasses.replace(request, opening=bad_opening))

    def test_non_member_hsm_refuses(self, env):
        fleet = env[0]
        _, cluster, requests, _ = logged_request_for(env, "hsm-t4", "4444")
        outsider = next(i for i in range(N) if i not in cluster)
        _, request = requests[0]
        with pytest.raises(HsmRefusedError):
            fleet[outsider].decrypt_share(request)

    def test_username_mismatch_refused(self, env):
        import dataclasses

        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t5", "5555")
        hsm_index, request = requests[0]
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(dataclasses.replace(request, username="mallory"))

    def test_attempt_limit_enforced(self, env):
        import dataclasses

        fleet = env[0]
        _, _, requests, _ = logged_request_for(
            env, "hsm-t6", "6666", attempt=CFG.max_attempts_per_user
        )
        hsm_index, request = requests[0]
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(request)

    def test_malformed_identifier_refused(self, env):
        import dataclasses

        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t7", "7777")
        hsm_index, request = requests[0]
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(
                dataclasses.replace(request, log_identifier=b"garbage")
            )

    def test_puncture_after_decrypt(self, env):
        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t8", "8888")
        hsm_index, request = requests[0]
        fleet[hsm_index].decrypt_share(request)
        with pytest.raises(PuncturedKeyError):
            fleet[hsm_index].decrypt_share(request)

    def test_failed_hsm_unavailable(self, env):
        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t9", "9999")
        hsm_index, request = requests[0]
        fleet[hsm_index].fail_stop()
        try:
            with pytest.raises(HsmUnavailableError):
                fleet[hsm_index].decrypt_share(request)
        finally:
            fleet[hsm_index].restart()


class TestIdentityResponseKey:
    """``ECPoint.from_bytes(b"\\x00")`` is the identity and decodes as a
    ``response_key``.  A reply "encrypted" to it has a constant AE key, so
    the device must refuse it before the share is punctured."""

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_refused_before_anything_is_punctured(self, env, transport):
        fleet, _, lhe, _ = env
        username, pin = f"hsm-identity-{transport}", "4242"
        # A cluster of three distinct devices, so the two honest requests
        # below cannot collide on one punctured key.
        salt = next(
            salt
            for salt in (bytes([i]) * 16 for i in range(256))
            if len(set(lhe.select(salt, pin))) == CLUSTER
        )
        ct, _, requests, kp = logged_request_for(
            env, username, pin, message=b"still recoverable", salt=salt
        )
        channels = (wire_channels if transport == "wire" else direct_channels)(fleet)
        hsm_index, request = requests[0]
        secret = fleet[hsm_index]._bfe_secret
        before = (secret.tree.root_key, secret.slots_deleted, secret.punctures_done)
        poisoned = dataclasses.replace(request, response_key=ECPoint(None, None))
        with pytest.raises(HsmRefusedError, match="identity"):
            channels(hsm_index).decrypt_share(poisoned)
        assert (secret.tree.root_key, secret.slots_deleted, secret.punctures_done) == before

        # That share is ⊥ for the offending session; the other two reach
        # the threshold and finish the recovery.
        shares = [None]
        for index, honest in requests[1:]:
            reply = channels(index).decrypt_share(honest)
            share_bytes = HashedElGamal.decrypt(
                kp.secret, reply, context=b"recovery-reply" + username.encode()
            )
            shares.append(SHARE.decode(share_bytes))
        context = lhe.context_for(ct, fleet.master_public_key(), pin)
        assert lhe.reconstruct(ct, shares, context) == b"still recoverable"

    def test_elgamal_refuses_the_identity(self):
        with pytest.raises(ValueError, match="identity"):
            HashedElGamal.encrypt(ECPoint(None, None), b"share", context=b"c")


class TestIdentityEphemeral:
    """A share ciphertext whose ephemeral is the identity decodes off the
    wire, and ``∞·sk`` is ``∞`` for every slot key: its wraps open under
    keys anyone can derive, so anyone could make the device "decrypt" a
    share of their choosing and puncture the tag's slots for it."""

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_refused_before_anything_is_punctured(self, env, transport):
        fleet = env[0]
        username = f"hsm-identity-ephemeral-{transport}"
        _, _, requests, _ = logged_request_for(env, username, "5150")
        hsm_index, request = requests[0]
        honest = request.share_ciphertext
        identity = ECPoint(None, None)
        payload_key = bytes(16)
        slots = fleet[hsm_index].bloom_params.slots_for_tag(honest.tag)
        wrap_keys = [
            kdf("bfe-slot-wrap", identity.to_bytes(), honest.tag, slot.to_bytes(4, "big"))[:16]
            for slot in slots
        ]
        *wraps, payload = seal_one_time(
            [(key, payload_key, honest.tag) for key in wrap_keys]
            + [(payload_key, SHARE_PLAINTEXT.encode((username, Share(0, 0))), request.context)]
        )
        forged = BfeCiphertext(
            tag=honest.tag, ephemeral=identity, wrapped_keys=tuple(wraps), payload=payload
        )
        if transport == "wire":
            # The identity travels as its one-byte encoding, 32 fewer than
            # the honest ephemeral's, and decodes to the identity.
            forged_bytes = wire.encode_bfe_ciphertext(forged)
            assert len(forged_bytes) == len(wire.encode_bfe_ciphertext(honest)) - 32
            assert wire.decode_bfe_ciphertext(forged_bytes).ephemeral.is_infinity
        channels = (wire_channels if transport == "wire" else direct_channels)(fleet)
        secret = fleet[hsm_index]._bfe_secret
        before = (secret.tree.root_key, secret.slots_deleted, secret.punctures_done)
        with pytest.raises(HsmRefusedError, match="does not decrypt"):
            channels(hsm_index).decrypt_share(dataclasses.replace(request, share_ciphertext=forged))
        assert (secret.tree.root_key, secret.slots_deleted, secret.punctures_done) == before
        channels(hsm_index).decrypt_share(request)  # the honest share is still there


class TestMalformedSharePlaintext:
    """An authentic share ciphertext for the right user whose plaintext is
    not ``(username, share)`` — here, one byte past the share — is refused
    by the ``accept`` check, before anything is punctured or replied: the
    key tree and the store are untouched, and the device bills exactly what
    a refusal for another user's share of the same length bills."""

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_refused_before_anything_is_punctured(self, env, transport):
        fleet = env[0]
        username = f"hsm-malformed-share-{transport}"
        _, _, requests, _ = logged_request_for(env, username, "6060")
        hsm_index, request = requests[0]
        device = fleet[hsm_index]
        public = device.public_info().bfe_public
        channel = (wire_channels if transport == "wire" else direct_channels)(fleet)(hsm_index)
        secret = device._bfe_secret

        def state():
            return (
                secret.tree.root_key, secret.slots_deleted, secret.punctures_done,
                dict(device._store._blocks),
            )

        def refused(plaintext: bytes, reason: str):
            """The meter delta of a refused request carrying ``plaintext``
            under the honest request's tag (so the same key-tree walk)."""
            forged = BloomFilterEncryption.encrypt(
                public, plaintext, context=request.context, tag=request.share_ciphertext.tag
            )
            before, counts = state(), dict(device.meter.counts)
            with pytest.raises(HsmRefusedError, match=reason):
                channel.decrypt_share(dataclasses.replace(request, share_ciphertext=forged))
            assert state() == before
            return {op: n - counts.get(op, 0) for op, n in device.meter.counts.items()}

        share = Share(x=1, y=2)
        malformed = refused(SHARE_PLAINTEXT.encode((username, share)) + b"\x00", "malformed")
        other_user = refused(SHARE_PLAINTEXT.encode((username + "x", share)), "another user")
        assert malformed == other_user
        assert malformed["aes_block"] > 0 and not malformed.get("elgamal_enc")
        channel.decrypt_share(request)  # the honest share is still there


class TestRotation:
    def test_rotation_changes_public_key_and_epoch(self, env):
        fleet = env[0]
        hsm = fleet[0]
        before = hsm.public_info()
        after = hsm.rotate_keys()
        assert after.key_epoch == before.key_epoch + 1
        assert after.bfe_public.commitment != before.bfe_public.commitment
        assert hsm.key_epoch == 1

    def test_old_ciphertexts_dead_after_rotation(self, env):
        """Rotation is the coarse form of forward security: everything
        encrypted to the old key becomes undecryptable."""
        fleet, log, lhe, mpk = env
        hsm = fleet[1]
        pub = hsm.public_info().bfe_public
        ct = BloomFilterEncryption.encrypt(pub, b"old secret", context=b"c")
        hsm.rotate_keys()
        with pytest.raises(Exception):
            BloomFilterEncryption.decrypt(hsm._bfe_secret, ct, context=b"c")


class TestMetering:
    def test_device_meter_accumulates(self, env):
        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t10", "1010")
        hsm_index, request = requests[0]
        before = dict(fleet[hsm_index].meter.counts)
        fleet[hsm_index].decrypt_share(request)
        after = fleet[hsm_index].meter.counts
        assert after["elgamal_dec"] > before.get("elgamal_dec", 0)
        assert after["elgamal_enc"] > before.get("elgamal_enc", 0)  # the reply


class TestCommittee:
    def test_unsharded_committee_is_the_directory_and_hints_resolve(self, env):
        assert env[0][0].committee_for(0) == list(range(N))
        # The module once annotated with ``List`` without importing it.
        assert typing.get_type_hints(HsmDevice.committee_for)["return"] == typing.List[int]


class TestCompromise:
    def test_extract_secrets_shape(self, env):
        fleet = env[0]
        stolen = fleet[3].extract_secrets()
        assert stolen.index == 3
        assert stolen.sig_secret > 0
        assert stolen.log_digest == fleet[3].log_digest
