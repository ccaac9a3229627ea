"""HSM firmware behaviour: recovery checks, rotation, failure injection."""

import dataclasses
import random
import typing

import pytest

from repro.core import wire
from repro.core.identifiers import attempt_identifier
from repro.core.lhe import LocationHidingEncryption, share_owner
from repro.crypto.bfe import BfeCiphertext, BloomFilterEncryption, PuncturedKeyError
from repro.crypto.bloom import BloomParams
from repro.crypto.commit import CommitmentOpening, commit_recovery
from repro.crypto.ec import P256, ECPoint
from repro.crypto.elgamal import HashedElGamal
from repro.crypto.gcm import ae_cost, seal_each
from repro.crypto.hashing import hash_to_indices, kdf
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
    context = lhe.context_for(ct.username, ct.salt, mpk, pin)
    response_kp = P256.keygen()
    commitment, opening = commit_recovery(
        username, cluster, ct.ciphertext_hash(), response_kp.public
    )
    identifier = attempt_identifier(username, attempt)
    log.insert(identifier, commitment)
    log.run_update(fleet.hsms)
    proof = log.prove_includes(identifier, commitment)
    requests = []
    for position, hsm_index in enumerate(cluster):
        requests.append(
            (
                hsm_index,
                DecryptShareRequest(
                    attempt=attempt,
                    opening=opening,
                    inclusion_proof=proof,
                    share_ciphertext=ct.share_ciphertexts[position],
                    context=context,
                ),
            )
        )
    return ct, cluster, requests, response_kp


def reproven(log, request):
    """``request`` with a proof of its own log entry against the log's
    current digest (logging anything else moves the digest)."""
    identifier = attempt_identifier(request.opening.username, request.attempt)
    proof = log.prove_includes(identifier, request.opening.commitment())
    return dataclasses.replace(request, inclusion_proof=proof)


def relogged(env, request, attempt, **changes):
    """``request`` with its opening changed as ``changes`` say, logged as
    attempt ``attempt`` of the opening's user and proven."""
    fleet, log, _, _ = env
    opening = dataclasses.replace(request.opening, **changes)
    log.insert(attempt_identifier(opening.username, attempt), opening.commitment())
    log.run_update(fleet.hsms)
    return reproven(log, dataclasses.replace(request, attempt=attempt, opening=opening))


def _with_opening(request, **changes):
    return dataclasses.replace(request, opening=dataclasses.replace(request.opening, **changes))


def distinct_cluster_salt(lhe, pin):
    """A salt whose cluster under ``pin`` names ``CLUSTER`` distinct devices."""
    return next(
        salt
        for salt in (bytes([i]) * 16 for i in range(256))
        if len(set(lhe.select(salt, pin))) == CLUSTER
    )


class TestDecryptShare:
    def test_happy_path_returns_share(self, env):
        fleet = env[0]
        _, _, requests, kp = logged_request_for(env, "hsm-t1", "1111")
        hsm_index, request = requests[0]
        reply = fleet[hsm_index].decrypt_share(request)
        share_bytes = HashedElGamal.decrypt(
            kp.secret, reply, context=b"recovery-reply" + b"hsm-t1"
        )
        assert len(share_bytes) == 19  # 2-byte x + 17-byte y

    def test_unlogged_attempt_refused(self, env):
        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t2", "2222")
        hsm_index, request = requests[0]
        # Forge: name a different (unlogged) attempt of the same user.
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(dataclasses.replace(request, attempt=1))

    def test_bad_opening_refused(self, env):
        fleet = env[0]
        _, _, requests, _ = logged_request_for(env, "hsm-t3", "3333")
        hsm_index, request = requests[0]
        bad_opening = dataclasses.replace(request.opening, randomness=bytes(32))
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(dataclasses.replace(request, opening=bad_opening))

    def test_non_member_hsm_refuses(self, env):
        fleet = env[0]
        _, cluster, requests, _ = logged_request_for(env, "hsm-t4", "4444")
        outsider = next(i for i in range(N) if i not in cluster)
        _, request = requests[0]
        with pytest.raises(HsmRefusedError):
            fleet[outsider].decrypt_share(request)

    def test_attempt_limit_enforced(self, env):
        fleet = env[0]
        _, _, requests, _ = logged_request_for(
            env, "hsm-t6", "6666", attempt=CFG.max_attempts_per_user
        )
        hsm_index, request = requests[0]
        with pytest.raises(HsmRefusedError):
            fleet[hsm_index].decrypt_share(request)

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


class TestEveryRequestFieldIsChecked:
    """A decrypt request carries its attempt number, the opening (user,
    cluster, ciphertext hash, reply key, randomness), the inclusion proof,
    the share and the context.  Changing any one of them is refused with
    the device's store byte-identical and nothing punctured or replied:
    the attempt and the opening name the log entry and its value, so a
    change there is not in the device's log; the share and the context
    are the payload's key and associated data, so a change there does not
    decrypt."""

    PIN = "1357"

    #: mutation -> (the field it changes, the request it makes from the
    #: honest request, the next position's request and another entry's proof)
    MUTATIONS = {
        "attempt + 1": ("attempt", lambda r, n, p: dataclasses.replace(r, attempt=r.attempt + 1)),
        "attempt at the limit": (
            "attempt", lambda r, n, p: dataclasses.replace(r, attempt=CFG.max_attempts_per_user)
        ),
        "another user": ("username", lambda r, n, p: _with_opening(r, username="mallory")),
        "a username containing |": (
            "username", lambda r, n, p: _with_opening(r, username="hsm|every-field")
        ),
        "another cluster": (
            "cluster", lambda r, n, p: _with_opening(r, cluster=r.opening.cluster[::-1])
        ),
        "another ciphertext hash": (
            "ciphertext_hash", lambda r, n, p: _with_opening(r, ciphertext_hash=bytes(32))
        ),
        "other randomness": ("randomness", lambda r, n, p: _with_opening(r, randomness=bytes(32))),
        "a swapped key": (
            "response_key", lambda r, n, p: _with_opening(r, response_key=P256.generator * 7)
        ),
        "another entry's proof": (
            "inclusion_proof", lambda r, n, p: dataclasses.replace(r, inclusion_proof=p)
        ),
        "another position's share": (
            "share_ciphertext",
            lambda r, n, p: dataclasses.replace(r, share_ciphertext=n.share_ciphertext),
        ),
        "a shifted context": (
            "context", lambda r, n, p: dataclasses.replace(r, context=r.context + b"x")
        ),
    }

    @pytest.fixture(scope="class")
    def logged(self, env):
        """An honest request to a cluster of distinct devices, the next
        position's request, and another logged entry's proof."""
        _, log, lhe, _ = env
        salt = distinct_cluster_salt(lhe, self.PIN)
        _, _, requests, _ = logged_request_for(env, "hsm-every-field", self.PIN, salt=salt)
        _, _, ((_, other), *_), _ = logged_request_for(env, "hsm-every-field-2", self.PIN, salt=salt)
        (hsm_index, request), (_, neighbour), _ = requests
        return hsm_index, reproven(log, request), neighbour, other.inclusion_proof

    def test_every_field_has_a_mutation(self):
        fields = {f.name for f in dataclasses.fields(DecryptShareRequest)} - {"opening"}
        fields |= {f.name for f in dataclasses.fields(CommitmentOpening)}
        assert {field for field, _ in self.MUTATIONS.values()} == fields

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_refused_with_the_store_untouched(self, env, logged, mutation, transport):
        fleet = env[0]
        hsm_index, request, neighbour, other_proof = logged
        _, mutate = self.MUTATIONS[mutation]
        forged = mutate(request, neighbour, other_proof)
        assert forged != request
        device = fleet[hsm_index]
        channel = (wire_channels if transport == "wire" else direct_channels)(fleet)(hsm_index)
        before, counts = _device_state(device), dict(device.meter.counts)
        with pytest.raises(HsmRefusedError):
            channel.decrypt_share(forged)
        assert _device_state(device) == before
        spent = {op: n - counts.get(op, 0) for op, n in device.meter.counts.items()}
        assert spent.get("ec_mult", 0) <= 1 and not spent.get("elgamal_enc")


class TestIdentityResponseKey:
    """``ECPoint.from_bytes(b"\\x00")`` is the identity and decodes as an
    opening's ``response_key``.  A reply "encrypted" to it has a constant
    AE key, so the device must refuse it before the share is punctured —
    also when the log holds the opening that names it."""

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_refused_before_anything_is_punctured(self, env, transport):
        fleet, log, lhe, _ = env
        username, pin = f"hsm-identity-{transport}", "4242"
        # A cluster of three distinct devices, so the two honest requests
        # below cannot collide on one punctured key.
        ct, _, requests, kp = logged_request_for(
            env, username, pin, message=b"still recoverable",
            salt=distinct_cluster_salt(lhe, pin),
        )
        channels = (wire_channels if transport == "wire" else direct_channels)(fleet)
        hsm_index, request = requests[0]
        poisoned = relogged(env, request, 1, response_key=ECPoint(None, None))
        secret = fleet[hsm_index]._bfe_secret
        before = (secret.tree.root_key, secret.slots_deleted, secret.punctures_done)
        with pytest.raises(HsmRefusedError, match="identity"):
            channels(hsm_index).decrypt_share(poisoned)
        assert (secret.tree.root_key, secret.slots_deleted, secret.punctures_done) == before

        # That share is ⊥ for the offending session; the other two reach
        # the threshold and finish the recovery.
        shares = [None]
        for index, honest in requests[1:]:
            reply = channels(index).decrypt_share(reproven(log, honest))
            share_bytes = HashedElGamal.decrypt(
                kp.secret, reply, context=b"recovery-reply" + username.encode()
            )
            shares.append(SHARE.decode(share_bytes))
        context = lhe.context_for(ct.username, ct.salt, fleet.master_public_key(), pin)
        assert lhe.reconstruct(ct, shares, context) == b"still recoverable"

    def test_elgamal_refuses_the_identity(self):
        with pytest.raises(ValueError, match="identity"):
            HashedElGamal.encrypt(ECPoint(None, None), b"share", context=b"c")


class TestIdentityEphemeral:
    """A share ciphertext whose ephemeral is the identity decodes off the
    wire, and ``∞·sk`` is ``∞`` for every slot key: its wraps unmask under
    masks anyone can derive, so anyone could make the device "decrypt" a
    share of their choosing and puncture the tag's slots for it."""

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_refused_before_anything_is_punctured(self, env, transport):
        fleet = env[0]
        username = f"hsm-identity-ephemeral-{transport}"
        _, _, requests, _ = logged_request_for(env, username, "5150")
        hsm_index, request = requests[0]
        honest = request.share_ciphertext
        identity = ECPoint(None, None)
        slots = fleet[hsm_index].bloom_params.slots_for_tag(honest.tag)
        # K = 0, so each wrap is its slot's mask.
        position = honest.position.to_bytes(2, "big")
        wraps = tuple(
            kdf("bfe-slot-wrap", identity.to_bytes(), honest.tag, slot.to_bytes(4, "big"), position)[:16]
            for slot in slots
        )
        payload_key = kdf("bfe-payload", bytes(16), honest.tag, identity.to_bytes(), *wraps)[:16]
        (payload,) = seal_each(
            [(payload_key, SHARE.encode(Share(0, 0)), share_owner(username, request.context))]
        )
        forged = BfeCiphertext(
            tag=honest.tag, ephemeral=identity, position=honest.position, wrapped_keys=wraps,
            payload=payload,
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


def _device_state(device):
    """Everything a decrypt-and-puncture could change on ``device``."""
    secret = device._bfe_secret
    return (
        secret.tree.root_key, secret.slots_deleted, secret.punctures_done,
        dict(device._store._blocks),
    )


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


class TestShareForAnotherDevice:
    """A share encrypted to one cluster device and sent to another: the
    second device's first live slot unmasks a wrong ``K``, the payload
    does not open, and the device refuses after that one multiply with
    nothing punctured.  (A device used to try every slot, then answer
    "punctured" although it had deleted nothing.)"""

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_refused_after_one_multiply(self, env, transport):
        fleet = env[0]
        pin = "8642"
        salt = next(
            candidate for candidate in (i.to_bytes(16, "big") for i in range(64))
            if len(set(hash_to_indices(candidate, pin, N, CLUSTER))) > 1
        )
        _, _, requests, _ = logged_request_for(env, f"hsm-other-device-{transport}", pin, salt=salt)
        owner, owned = requests[0]
        other, other_request = next(pair for pair in requests if pair[0] != owner)
        device = fleet[other]
        channel = (wire_channels if transport == "wire" else direct_channels)(fleet)(other)
        before, counts = _device_state(device), dict(device.meter.counts)
        misdirected = dataclasses.replace(other_request, share_ciphertext=owned.share_ciphertext)
        with pytest.raises(HsmRefusedError, match="does not decrypt"):
            channel.decrypt_share(misdirected)
        spent = {op: device.meter.counts[op] - counts.get(op, 0) for op in ("ec_mult", "elgamal_dec")}
        assert spent == {"ec_mult": 1, "elgamal_dec": 1}
        assert _device_state(device) == before
        channel.decrypt_share(other_request)  # its own share is still there


class TestTamperedShareCiphertext:
    """Every field of a share ciphertext is bound into the payload key: a
    changed ephemeral, tag, position, wrap or payload is refused after one
    multiply, nothing punctured."""

    @pytest.fixture(scope="class")
    def logged(self, env):
        _, _, requests, _ = logged_request_for(env, "hsm-tampered-share", "9753")
        return requests[0]

    @staticmethod
    def _tampered(ciphertext, field):
        if field == "ephemeral":
            return dataclasses.replace(ciphertext, ephemeral=P256.generator * 5)
        if field == "tag":
            return dataclasses.replace(ciphertext, tag=_flip(ciphertext.tag))
        if field == "payload":
            return dataclasses.replace(ciphertext, payload=_flip(ciphertext.payload))
        if field == "position":
            return dataclasses.replace(ciphertext, position=ciphertext.position ^ 1)
        position = int(field[len("wrap "):])
        wraps = list(ciphertext.wrapped_keys)
        wraps[position] = _flip(wraps[position])
        return dataclasses.replace(ciphertext, wrapped_keys=tuple(wraps))

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    @pytest.mark.parametrize(
        "field",
        ["ephemeral", "tag", "position", "wrap 0", "wrap 1", "wrap 2", "wrap 3", "payload"],
    )
    def test_refused_with_the_store_untouched(self, env, logged, field, transport):
        fleet = env[0]
        hsm_index, request = logged
        device = fleet[hsm_index]
        assert len(request.share_ciphertext.wrapped_keys) == 4
        channel = (wire_channels if transport == "wire" else direct_channels)(fleet)(hsm_index)
        before, multiplies = _device_state(device), device.meter.counts["ec_mult"]
        forged = self._tampered(request.share_ciphertext, field)
        with pytest.raises(HsmRefusedError, match="does not decrypt"):
            channel.decrypt_share(dataclasses.replace(request, share_ciphertext=forged))
        assert _device_state(device) == before
        assert device.meter.counts["ec_mult"] == multiplies + 1


class TestMalformedSharePlaintext:
    """An authentic share ciphertext for the right user whose plaintext is
    not a share — here, one byte past it — is refused by the ``accept``
    check, before anything is punctured or replied: the key tree and the
    store are untouched.  It bills its whole payload open (4 blocks for 20
    bytes).  A share sealed for another user bills the same walk and
    multiply but fails its tag after the 2-block start of that open, the
    owner being the payload's associated data."""

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_refused_before_anything_is_punctured(self, env, transport):
        fleet = env[0]
        username = f"hsm-malformed-share-{transport}"
        _, _, requests, _ = logged_request_for(env, username, "6060")
        hsm_index, request = requests[0]
        device = fleet[hsm_index]
        public = device.public_info().bfe_public
        channel = (wire_channels if transport == "wire" else direct_channels)(fleet)(hsm_index)

        def refused(plaintext: bytes, owner: str, reason: str):
            """The meter delta of a refused request carrying ``plaintext``
            under the honest request's tag (so the same key-tree walk)."""
            (forged,) = BloomFilterEncryption.encrypt(
                [public], [plaintext], context=share_owner(owner, request.context),
                tag=request.share_ciphertext.tag,
            )
            before, counts = _device_state(device), dict(device.meter.counts)
            with pytest.raises(HsmRefusedError, match=reason):
                channel.decrypt_share(dataclasses.replace(request, share_ciphertext=forged))
            assert _device_state(device) == before
            return {op: n - counts.get(op, 0) for op, n in device.meter.counts.items()}

        plaintext = SHARE.encode(Share(x=1, y=2))
        malformed = refused(plaintext + b"\x00", username, "malformed")
        other_user = refused(plaintext, username + "x", "does not decrypt")
        assert malformed.pop("aes_block") - other_user.pop("aes_block") == ae_cost(20)[0] - 2 == 2
        assert malformed == other_user
        assert malformed["ec_mult"] == 1 and not malformed.get("elgamal_enc")
        channel.decrypt_share(request)  # the honest share is still there


class TestShareOwnerBinding:
    """A share's owner is its payload's associated data, the codec value
    ``(username, context)`` the device builds from the username of the
    request's opening.  The context is a blob the client picks, so a bare
    ``context ‖ username`` would let a request logged for ``alice`` with
    context ``c ‖ b"x"`` open ``xalice``'s share sealed under ``c``.  Both
    that forgery and a share presented for another user are refused after
    one multiply, with nothing punctured."""

    PIN = "2468"

    @pytest.fixture(scope="class", params=["direct", "wire"])
    def owners(self, request, env):
        """Requests logged for ``alice`` and ``bob`` under one salt and PIN
        (so one cluster), and ``xalice``'s backup under them, not logged."""
        fleet, log, lhe, _ = env
        transport = request.param
        alice, bob = f"alice-{transport}", f"bob-{transport}"
        salt = f"owners-{transport}".encode().ljust(16, b".")
        logged = [
            logged_request_for(env, username, self.PIN, salt=salt)[2][0] for username in (alice, bob)
        ]
        # Logging bob's attempt moved the digest alice's proof was made for.
        alice_request, bob_request = [(index, reproven(log, req)) for index, req in logged]
        mpk = fleet.master_public_key()
        xalice_ct = lhe.encrypt(mpk, self.PIN, b"msg", username="x" + alice, salt=salt)
        channels = (wire_channels if transport == "wire" else direct_channels)(fleet)
        return (alice, alice_request, bob_request, xalice_ct,
                lhe.context_for(xalice_ct.username, xalice_ct.salt, mpk, self.PIN), channels)

    @staticmethod
    def refused_after_one_multiply(fleet, channels, hsm_index, forged):
        device = fleet[hsm_index]
        before, multiplies = _device_state(device), device.meter.counts["ec_mult"]
        with pytest.raises(HsmRefusedError, match="does not decrypt"):
            channels(hsm_index).decrypt_share(forged)
        assert device.meter.counts["ec_mult"] == multiplies + 1
        assert _device_state(device) == before

    def test_a_context_shifted_into_the_username_is_refused(self, env, owners):
        alice, (hsm_index, request), _, xalice_ct, xalice_context, channels = owners
        shifted = xalice_context + b"x"
        assert shifted + alice.encode() == xalice_context + ("x" + alice).encode()
        assert share_owner(alice, shifted) != share_owner("x" + alice, xalice_context)
        forged = dataclasses.replace(
            request, share_ciphertext=xalice_ct.share_ciphertexts[0], context=shifted
        )
        self.refused_after_one_multiply(env[0], channels, hsm_index, forged)

    def test_a_share_presented_for_another_user_is_refused(self, env, owners):
        _, (hsm_index, alice_request), (bob_index, bob_request), _, _, channels = owners
        assert bob_index == hsm_index  # one salt and PIN: one cluster
        forged = dataclasses.replace(
            bob_request, share_ciphertext=alice_request.share_ciphertext,
            context=alice_request.context,
        )
        self.refused_after_one_multiply(env[0], channels, hsm_index, forged)
        channels(hsm_index).decrypt_share(alice_request)  # alice's share is still there


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
        (ct,) = BloomFilterEncryption.encrypt([pub], [b"old secret"], context=b"c")
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
