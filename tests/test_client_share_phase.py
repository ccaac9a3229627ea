"""The client does only share-phase and finish work that can still matter.

``Select`` draws the hidden cluster with replacement and all of a user's
shares carry one puncture tag, so a second request to a device whose key
tree has already answered for the tag is dead on arrival; ``Reconstruct``
needs any t shares, so a reply beyond the t-th is only worth opening when
the first t did not open the backup.  These tests pin both halves — and
what must *not* be skipped: a refusal or an outage is not an answer.
"""

import dataclasses
import random
import secrets
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.entropy import DeterministicEntropy
from repro.core import wire
from repro.core.client import Client, RecoveryError
from repro.core.codec import WireFormatError
from repro.core.identifiers import attempt_identifier
from repro.core.lhe import LheError, recovery_header
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError
from repro.crypto.bfe import PuncturedKeyError
from repro.crypto.ec import ECPoint
from repro.crypto.elgamal import ElGamalCiphertext, HashedElGamal
from repro.crypto.gcm import AuthenticationError
from repro.crypto.hashing import hash_to_indices
from repro.crypto.shamir import SHARE, ShamirSharer, Share
from repro.hsm.device import HsmRefusedError, HsmStaleProofError, HsmUnavailableError
from repro.log.authdict import InclusionProof
from repro.service.channel import (
    Channel,
    DirectProviderChannel,
    direct_channels,
    proving_channels,
    wire_channels,
)

PIN = "2468"


def _narrow_params():
    return SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=32)


@pytest.fixture(scope="module")
def narrow():
    """The ledger's `recover_narrow` shape: N=4, n=3, t=1."""
    return Deployment.create(_narrow_params(), rng=random.Random(31))


@pytest.fixture(scope="module")
def proportioned():
    """The paper's proportions at test scale: t = n/2 (N=8, n=6, t=3)."""
    params = SystemParams.for_testing(
        num_hsms=8, cluster_size=6, threshold=3, max_punctures=16
    )
    return Deployment.create(params, rng=random.Random(37))


class _Recording:
    """A channel factory that logs every request the provider's relay sends
    a device as ``(hsm index, "reply" | exception type name)``.
    ``before(index, nth)`` runs ahead of the ``nth`` request to device
    ``index`` and may raise in the device's stead; ``after(index, nth)``
    runs once it has answered."""

    def __init__(self, inner, before=None, after=None):
        self.inner, self.before, self.after = inner, before, after
        self.log = []

    def asked(self):
        return [index for index, _ in self.log]

    def __call__(self, index):
        return _RecordingChannel(self, index)


class _RecordingChannel(Channel):
    def __init__(self, recording, index):
        self.recording, self.index = recording, index

    def decrypt_share(self, request):
        rec, index = self.recording, self.index
        nth = rec.asked().count(index)
        try:
            if rec.before is not None:
                rec.before(index, nth)
            reply = rec.inner(index).decrypt_share(request)
        except Exception as exc:
            rec.log.append((index, type(exc).__name__))
            raise
        else:
            rec.log.append((index, "reply"))
            return reply
        finally:
            if rec.after is not None:
                rec.after(index, nth)


def _client(
    deployment,
    username,
    before=None,
    after=None,
    provider=None,
    inner=None,
    prove=None,
    escrow=None,
    share=None,
):
    """A client whose devices sit behind a recording under the provider's
    relay (``prove``, ``escrow`` and ``share`` default to the provider's
    own)."""
    recording = _Recording(inner or direct_channels(deployment.fleet), before, after)
    client = Client(
        username=username,
        params=deployment.params,
        provider=provider or DirectProviderChannel(deployment.provider),
        channels=proving_channels(
            recording,
            prove or deployment.provider.prove_inclusion,
            escrow or deployment.provider.store_reply,
            share or deployment.provider.backup_share,
        ),
        mpk=deployment.fleet.master_public_key(),
    )
    return client, recording


def _seed_where(params, shape):
    """The first entropy seed whose backup salt (the first draw of
    ``lhe.encrypt``) selects a cluster satisfying ``shape`` under ``PIN``."""
    for seed in range(1, 500):
        with DeterministicEntropy(seed):
            salt = secrets.token_bytes(16)
        if shape(hash_to_indices(salt, PIN, params.num_hsms, params.cluster_size)):
            return seed
    raise AssertionError("no seeded salt draws the wanted cluster shape")


def _backup(client, message, shape):
    """Back ``message`` up under a seeded salt whose cluster has ``shape``;
    returns that cluster."""
    with DeterministicEntropy(_seed_where(client.params, shape)):
        client.backup(message, PIN)
    ciphertext = client.provider.fetch_backup(client.username, -1)
    return client.lhe.select(ciphertext.salt, PIN)


def _first_repeats(cluster):
    """(v, v, w): the first device is named twice, then a different one."""
    return cluster[0] == cluster[1] != cluster[2]


def _all_distinct(cluster):
    return len(set(cluster)) == len(cluster)


def _store_bytes(deployment):
    return {
        index: dict(store._blocks) for index, store in deployment.provider.hsm_stores.items()
    }


def _share_phase_per_position(client, session):
    """The share phase as it was before PR 19: one request per cluster
    *position*, repeated devices and all."""
    obtained = 0
    for position, hsm_index in enumerate(session.cluster):
        try:
            reply = client._channels(hsm_index).decrypt_share(
                client._share_request(session, position)
            )
        except (HsmUnavailableError, PuncturedKeyError, HsmRefusedError):
            continue
        session.encrypted_replies.append(reply.to_bytes())
        obtained += 1
    client.provider.share_phase_done(session.username, session.attempt)
    return obtained


class TestOneRequestPerDistinctHsm:
    @staticmethod
    def _seeded_run(share_phase):
        """A whole deployment's life under seeded entropy, so two runs
        differ only in the share phase they were given."""
        with DeterministicEntropy(5):
            deployment = Deployment.create(_narrow_params(), rng=random.Random(5))
        with DeterministicEntropy(_seed_where(_narrow_params(), _first_repeats)):
            client, recording = _client(deployment, "repeat-user")
            client.backup(b"asked once", PIN)
            session = client.begin_recovery(PIN)
            obtained = share_phase(client, session)
            plaintext = client.finish_recovery(session)
        return session.cluster, recording, obtained, plaintext, _store_bytes(deployment)

    def test_same_shares_and_same_stores_as_one_request_per_position(self):
        cluster, now, obtained, plaintext, stores = self._seeded_run(
            lambda client, session: client.request_shares(session)
        )
        _, then, then_obtained, then_plaintext, then_stores = self._seeded_run(
            _share_phase_per_position
        )
        assert _first_repeats(cluster)
        # One request per distinct member, in cluster order ...
        assert now.asked() == list(dict.fromkeys(cluster))
        assert [outcome for _, outcome in now.log] == ["reply", "reply"]
        # ... where the per-position loop sent a third, dead one.
        assert then.log == [
            (cluster[0], "reply"), (cluster[0], "PuncturedKeyError"), (cluster[2], "reply"),
        ]
        assert obtained == then_obtained == 2
        assert plaintext == then_plaintext == b"asked once"
        # Every byte at rest on every HSM store is the per-position run's:
        # the dead request deleted nothing and drew no entropy.
        assert stores == then_stores

    def test_cluster_that_names_one_device_three_times(self, narrow):
        client, recording = _client(narrow, "thrice-user")
        _backup(client, b"one holder", lambda cluster: len(set(cluster)) == 1)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 1
        assert recording.log == [(session.cluster[0], "reply")]
        assert client.finish_recovery(session) == b"one holder"

    def test_second_call_on_the_session_asks_nobody_again(self, narrow):
        client, recording = _client(narrow, "twice-called-user")
        _backup(client, b"idempotent", _first_repeats)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 2
        assert client.request_shares(session) == 0
        assert len(recording.log) == 2
        assert client.finish_recovery(session) == b"idempotent"

    @pytest.mark.xfail(
        strict=True,
        raises=RecoveryError,
        reason="one decrypt-and-puncture must answer every cluster position"
        " a device holds: ROADMAP item 13",
    )
    def test_cluster_of_fewer_than_t_distinct_devices(self):
        """At N = 8, n = 4, t = 2, PIN 1234 under this salt names device 2
        four times.  A device answers once per tag, so the honest recovery
        gets one share of the two it needs ("need 2 shares, have 1"); 0.2 %
        of random salts draw such a cluster at this shape."""
        params = SystemParams.for_testing(num_hsms=8, cluster_size=4)
        salt = (79).to_bytes(16, "big")
        assert params.threshold == 2 and hash_to_indices(salt, "1234", 8, 4) == [2, 2, 2, 2]
        deployment = Deployment.create(params, rng=random.Random(13))
        client = deployment.new_client("one-device-user", transport="direct")
        client._last_salt = salt  # the series salt the next backup reuses
        client.backup(b"four positions, one device", "1234", reuse_salt=True)
        assert client.recover("1234") == b"four positions, one device"


class TestRefusalIsNotAnAnswer:
    """A device that refused, or could not be reached, punctured nothing:
    the other ciphertext addressed to it is still asked, and may open."""

    def test_bit_flipped_share_ciphertext(self, narrow):
        """The relay attaches position 0's share with one payload bit
        flipped (a storage fault on the provider's side)."""

        def flipped_first(username, ciphertext_hash, position):
            share = narrow.provider.backup_share(username, ciphertext_hash, position)
            if position:
                return share
            payload = share.payload
            return dataclasses.replace(share, payload=payload[:-1] + bytes([payload[-1] ^ 1]))

        client, recording = _client(narrow, "flipped-share-user", share=flipped_first)
        _backup(client, b"second position opens", _first_repeats)
        session = client.begin_recovery(PIN)
        repeated, other = session.cluster[0], session.cluster[2]

        assert client.request_shares(session) == 2
        assert recording.log == [
            (repeated, "HsmRefusedError"), (repeated, "reply"), (other, "reply"),
        ]
        assert client.finish_recovery(session) == b"second position opens"

    def test_tampered_key_tree_block_that_heals(self, narrow):
        """The provider serves one bad block of the device's outsourced key
        tree for the first request only (a transient storage fault)."""
        fault = {}

        def tamper(index, nth):
            if (index, nth) == fault.get("request"):
                good = fault["blocks"][fault["addr"]]
                fault["good"] = good
                fault["blocks"][fault["addr"]] = good[:20] + bytes([good[20] ^ 1]) + good[21:]

        def heal(index, nth):
            if (index, nth) == fault.get("request"):
                fault["blocks"][fault["addr"]] = fault["good"]

        client, recording = _client(narrow, "healed-block-user", before=tamper, after=heal)
        repeated, _, other = _backup(client, b"walk again", _first_repeats)
        ciphertext = narrow.provider.fetch_backup(client.username, -1)
        tree_secret = narrow.fleet[repeated].extract_secrets().bfe_secret
        slot = tree_secret.params.slots_for_tag(ciphertext.share_ciphertexts[0].tag)[0]
        fault.update(
            request=(repeated, 0),
            blocks=narrow.provider.hsm_stores[repeated]._blocks,
            addr=((1 << tree_secret.tree.height) + slot) // 2,
        )

        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 2
        assert recording.log == [
            (repeated, "HsmRefusedError"), (repeated, "reply"), (other, "reply"),
        ]
        assert client.finish_recovery(session) == b"walk again"

    def test_unavailable_device_is_asked_again(self, narrow):
        outage = set()

        def partitioned_once(index, nth):
            if (index, nth) in outage:
                raise HsmUnavailableError(f"hsm {index} unreachable")

        client, recording = _client(narrow, "outage-user", before=partitioned_once)
        repeated, _, other = _backup(client, b"back in time", _first_repeats)
        outage.add((repeated, 0))
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 2
        assert recording.log == [
            (repeated, "HsmUnavailableError"), (repeated, "reply"), (other, "reply"),
        ]
        assert session.answered_hsms == {repeated, other}
        assert client.finish_recovery(session) == b"back in time"


class TestReplyTheWireCannotCarry:
    def test_counts_as_a_bottom_share(self, narrow):
        """A faulty device decrypts, punctures and replies with an identity
        ephemeral, which the reply's layout cannot carry: its endpoint
        answers REPLY_REFUSED, and the recovery finishes from the others
        instead of raising ``WireFormatError``."""

        class IdentityReply:
            def __init__(self, device):
                self.device = device

            def decrypt_share(self, request):
                body = self.device.decrypt_share(request).body
                return ElGamalCiphertext(ECPoint(None, None), body)

        devices = list(narrow.fleet)
        client, recording = _client(narrow, "uncarried-reply-user", inner=wire_channels(devices))
        cluster = _backup(client, b"two others carry it", _all_distinct)
        devices[cluster[0]] = IdentityReply(devices[cluster[0]])
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 2
        assert recording.log == [
            (cluster[0], "HsmRefusedError"), (cluster[1], "reply"), (cluster[2], "reply"),
        ]
        assert client.finish_recovery(session) == b"two others carry it"


class TestProvingRelay:
    """The client holds no inclusion proof: the provider's relay proves each
    request as it forwards it, and re-proves once a request that an epoch
    made stale on its way to the device."""

    @staticmethod
    def _counted(provider, proofs):
        def prove(identifier, value):
            proofs.append(provider.prove_inclusion(identifier, value))
            return proofs[-1]

        return prove

    def test_a_stale_proof_is_reproven_and_retried_once(self, narrow):
        """Another user's attempt commits an epoch between the relay's
        proof and the device's check: the relay re-proves, and the same
        position is answered on the retry."""
        bystander, _ = _client(narrow, "stale-bystander")
        bystander.backup(b"x", PIN)
        epochs = []

        def epoch_in_between(index, nth):
            if not epochs:
                epochs.append(index)
                bystander.begin_recovery(PIN)

        proofs = []
        client, recording = _client(
            narrow, "stale-relay-user", before=epoch_in_between,
            prove=self._counted(narrow.provider, proofs),
        )
        repeated, _, other = _backup(client, b"reproven", _first_repeats)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 2
        assert recording.log == [
            (repeated, "HsmStaleProofError"), (repeated, "reply"), (other, "reply"),
        ]
        # One proof per request sent, and the re-proof differs.
        assert len(proofs) == 3 and proofs[0] != proofs[1]
        assert session.answered_hsms == {repeated, other}
        assert client.finish_recovery(session) == b"reproven"

    def test_a_reproof_equal_to_the_one_sent_reraises(self, narrow):
        """A device refuses a current proof as stale: the re-proof is the
        proof it refused, so the relay re-raises without asking again, and
        the client counts the position as a ⊥ share."""
        stale_once = set()

        def behind(index, nth):
            if (index, nth) in stale_once:
                raise HsmStaleProofError(f"hsm {index} digest behind")

        proofs = []
        client, recording = _client(
            narrow, "behind-device-user", before=behind,
            prove=self._counted(narrow.provider, proofs),
        )
        cluster = _backup(client, b"two of three", _all_distinct)
        stale_once.add((cluster[0], 0))
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 2
        assert recording.log == [
            (cluster[0], "HsmStaleProofError"), (cluster[1], "reply"), (cluster[2], "reply"),
        ]
        assert len(proofs) == 4 and proofs[0] == proofs[1]
        assert session.answered_hsms == {cluster[1], cluster[2]}
        assert client.finish_recovery(session) == b"two of three"

    def test_an_attempt_the_log_does_not_hold_contacts_no_device(self, narrow):
        """A provider that acks ``log_and_prove`` without logging: the relay
        finds no entry to prove, refuses every request itself, and no
        device is asked (so nothing is punctured)."""

        class UnloggedAttempts(DirectProviderChannel):
            def _invoke(self, op, args):
                if op.method == "log_and_prove":
                    return None
                return super()._invoke(op, args)

        client, recording = _client(
            narrow, "unlogged-user", provider=UnloggedAttempts(narrow.provider)
        )
        _backup(client, b"never asked", _all_distinct)
        stores = _store_bytes(narrow)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 0
        assert recording.log == []
        assert session.answered_hsms == set()
        assert _store_bytes(narrow) == stores
        with pytest.raises(RecoveryError):
            client.finish_recovery(session)

    def test_a_wire_recovery_decodes_no_proof_on_the_client_side(self, narrow, monkeypatch):
        """Over the wire on both legs, no provider reply carries a proof
        (``log_and_prove`` answers an ack) and the client decodes none,
        while every request a device decodes carries one."""
        proofs_decoded, replies, device_requests = [], [], []
        decode_proof = wire.decode_inclusion_proof
        decode_reply = wire.decode_provider_reply
        decode_request = wire.decode_decrypt_request

        def spied_proof(data):
            proofs_decoded.append(data)
            return decode_proof(data)

        def spied_reply(data):
            replies.append(decode_reply(data))
            return replies[-1]

        def spied_request(data):
            device_requests.append(decode_request(data))
            return device_requests[-1]

        monkeypatch.setattr(wire, "decode_inclusion_proof", spied_proof)
        monkeypatch.setattr(wire, "decode_provider_reply", spied_reply)
        monkeypatch.setattr(wire, "decode_decrypt_request", spied_request)
        client = narrow.new_client("wire-relay-user")
        with DeterministicEntropy(_seed_where(client.params, _all_distinct)):
            client.backup(b"proven provider-side", PIN)
        assert client.recover(PIN) == b"proven provider-side"
        assert proofs_decoded == []
        assert (wire.PROV_REPLY_ACK, {}) in replies
        assert not any(
            isinstance(value, InclusionProof) for _, fields in replies for value in fields.values()
        )
        assert len(device_requests) == 3  # one per device of the distinct cluster
        assert all(isinstance(r.inclusion_proof, InclusionProof) for r in device_requests)


class TestRelayEscrow:
    """The provider's relay escrows each reply as it forwards it: the client
    sends no ``store_reply`` frame, and a reply is escrowed even when the
    client never gets to hold it."""

    def test_a_wire_recovery_sends_no_store_reply_frame(self, narrow, monkeypatch):
        ops, device_replies = [], []
        encode_request = wire.encode_provider_request
        encode_reply = wire.encode_decrypt_reply

        def spied_request(op, fields):
            ops.append(op)
            return encode_request(op, fields)

        def spied_reply(reply):
            device_replies.append(reply.to_bytes())
            return encode_reply(reply)

        monkeypatch.setattr(wire, "encode_provider_request", spied_request)
        monkeypatch.setattr(wire, "encode_decrypt_reply", spied_reply)
        client = narrow.new_client("no-escrow-frame-user")
        with DeterministicEntropy(_seed_where(client.params, _all_distinct)):
            client.backup(b"escrowed provider-side", PIN)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 3
        assert client.finish_recovery(session) == b"escrowed provider-side"
        store_reply = next(op.tag for op in wire.PROVIDER_OPS if op.method == "store_reply")
        assert ops and store_reply not in ops
        # Every reply a device sent, byte for byte, in position order.
        assert len(device_replies) == 3
        assert narrow.provider.fetch_replies(session.username, session.attempt) == device_replies
        assert session.encrypted_replies == device_replies

    def test_a_client_that_dies_as_its_first_reply_arrives(self, narrow):
        """The relay has escrowed the reply before the client could hold
        it, so a replacement resumes from the escrow alone."""

        class Died(Exception):
            pass

        client, recording = _client(narrow, "dies-on-arrival-user")
        _backup(client, b"resumed from the relay", lambda cluster: len(set(cluster)) == 1)
        relay = client._channels

        def dying(index):
            def decrypt_share(request):
                relay(index).decrypt_share(request)
                raise Died

            return SimpleNamespace(decrypt_share=decrypt_share)

        client._channels = dying
        session = client.begin_recovery(PIN)
        with pytest.raises(Died):
            client.request_shares(session)
        assert recording.log == [(session.cluster[0], "reply")]
        assert session.encrypted_replies == []
        assert len(narrow.provider.fetch_replies(session.username, session.attempt)) == 1
        replacement, _ = _client(narrow, client.username)
        assert (
            replacement.resume_recovery(PIN, attempt=session.attempt)
            == b"resumed from the relay"
        )


class TestRelayAttachesShares:
    """The client downloads a recovery header and names a position: the
    provider's relay attaches the share ciphertext of the backup the
    opening names, and refuses — before proving, with no device asked and
    nothing punctured — a share it does not hold."""

    def test_a_wire_fetch_reply_holds_no_share_body(self, narrow, monkeypatch):
        replies = []
        decode_reply = wire.decode_provider_reply

        def spied_reply(data):
            replies.append((data, decode_reply(data)))
            return replies[-1][1]

        monkeypatch.setattr(wire, "decode_provider_reply", spied_reply)
        client = narrow.new_client("header-only-user")
        with DeterministicEntropy(_seed_where(client.params, _all_distinct)):
            client.backup(b"shares stay provider-side", PIN)
        assert client.recover(PIN) == b"shares stay provider-side"
        stored = narrow.provider.fetch_backup(client.username)
        fetched = [
            (data, fields["header"]) for data, (kind, fields) in replies
            if kind == wire.PROV_REPLY_BACKUP
        ]
        assert len(fetched) == 1
        data, header = fetched[0]
        assert header == stored.header()
        for share in stored.share_ciphertexts:
            assert share.body()[-1] not in data  # the share's payload
        assert stored.share_ciphertexts[0].ephemeral.to_bytes() not in data
        assert stored.username.encode("utf-8") not in data

    @pytest.mark.parametrize("transport", ["wire", "direct"])
    def test_recovers_over_both_transports(self, narrow, transport):
        client = narrow.new_client(f"attached-{transport}-user", transport=transport)
        with DeterministicEntropy(_seed_where(client.params, _all_distinct)):
            client.backup(b"attached on the way", PIN)
        session = client.begin_recovery(PIN)
        assert session.header.ciphertext_hash == (
            narrow.provider.fetch_backup(client.username).ciphertext_hash()
        )
        assert client.request_shares(session) == 3
        assert client.finish_recovery(session) == b"attached on the way"

    @staticmethod
    def _hash_naming(narrow, name_hash):
        """A provider channel whose ``fetch_backup`` header names
        ``name_hash(header)`` instead of the stored ciphertext's hash: the
        client commits to and logs that hash, so the attempt is proven if
        the relay gets that far."""

        class Renamed(DirectProviderChannel):
            def _invoke(self, op, args):
                result = super()._invoke(op, args)
                if op.method != "fetch_backup":
                    return result
                header = recovery_header(result)
                return dataclasses.replace(header, ciphertext_hash=name_hash(header))

        return Renamed(narrow.provider)

    def _refused_everywhere(self, narrow, username, name_hash):
        proofs = []
        client, recording = _client(
            narrow, username, provider=self._hash_naming(narrow, name_hash),
            prove=TestProvingRelay._counted(narrow.provider, proofs),
        )
        _backup(client, b"never attached", _all_distinct)
        stores = _store_bytes(narrow)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 0
        assert recording.log == [] and proofs == []
        assert _store_bytes(narrow) == stores
        assert narrow.provider.fetch_replies(session.username, session.attempt) == []
        # The attempt itself is logged: only the share lookup refused.
        assert narrow.provider.prove_inclusion(
            attempt_identifier(session.username, session.attempt), session.opening.commitment()
        ) is not None

    def test_a_hash_no_backup_has_is_refused(self, narrow):
        self._refused_everywhere(
            narrow, "unknown-hash-user", lambda header: bytes(32)
        )

    def test_the_hash_of_another_users_backup_is_refused(self, narrow):
        other, _ = _client(narrow, "hash-lender")
        _backup(other, b"lent hash", _all_distinct)
        lent = narrow.provider.fetch_backup("hash-lender").ciphertext_hash()
        self._refused_everywhere(narrow, "hash-borrower", lambda header: lent)

    @pytest.mark.parametrize("position", [3, -1])
    def test_a_position_outside_the_cluster_is_refused(self, narrow, position):
        proofs = []
        client, recording = _client(
            narrow, f"position-{position}-user",
            prove=TestProvingRelay._counted(narrow.provider, proofs),
        )
        cluster = _backup(client, b"positions 0 to 2", _all_distinct)
        session = client.begin_recovery(PIN)
        stores = _store_bytes(narrow)
        request = dataclasses.replace(client._share_request(session, 0), position=position)
        with pytest.raises(HsmRefusedError, match="out of range"):
            client._channels(cluster[0]).decrypt_share(request)
        assert recording.log == [] and proofs == []
        assert _store_bytes(narrow) == stores
        assert narrow.provider.fetch_replies(session.username, session.attempt) == []


class TestResumeOpensTheAttemptsBackup:
    def test_resume_opens_an_older_backup_it_names(self, narrow):
        """The interrupted attempt recovered backup 0 of two: a replacement
        names it as ``recover`` does, and opens that backup's payload (the
        newest one's, under another salt and key, would not open under its
        shares)."""
        client, _ = _client(narrow, "two-versions-user")
        _backup(client, b"version 0", _all_distinct)
        client.backup(b"version 1", PIN)
        session = client.begin_recovery(PIN, backup_index=0)
        assert client.request_shares(session) == 3
        replacement, _ = _client(narrow, client.username)
        assert (
            replacement.resume_recovery(PIN, attempt=session.attempt, backup_index=0)
            == b"version 0"
        )


class TestEscrowFailureKeepsTheShare:
    def test_reply_is_returned_when_its_escrow_fails(self, narrow):
        """The only holder has punctured before the escrow fails: the relay
        returns the reply all the same, and the client counts the share."""

        def lost(username, attempt, reply_bytes):
            raise ProviderError("escrow lost")

        client, recording = _client(narrow, "escrow-loss-user", escrow=lost)
        _backup(client, b"punctured but not lost", lambda cluster: len(set(cluster)) == 1)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 1
        assert recording.log == [(session.cluster[0], "reply")]
        assert len(session.encrypted_replies) == 1
        assert narrow.provider.fetch_replies(session.username, session.attempt) == []
        assert client.finish_recovery(session) == b"punctured but not lost"


def _elgamal_decs(client):
    return client.meter.counts.get("elgamal_dec", 0)


def _open_all_then_reconstruct(client, session, replies):
    """What finish did before PR 19: open *every* reply, then reconstruct."""
    shares = []
    for blob in replies:
        try:
            share_bytes = HashedElGamal.decrypt(
                session.response_keypair.secret,
                ElGamalCiphertext.from_bytes(blob),
                context=b"recovery-reply" + session.username.encode("utf-8"),
            )
            shares.append(SHARE.decode(share_bytes))
        except (AuthenticationError, ValueError, WireFormatError):
            continue
    if len(shares) < client.params.threshold:
        raise RecoveryError("below the threshold")
    try:
        return client.lhe.reconstruct(session.header, shares, session.context)
    except LheError as exc:
        raise RecoveryError(str(exc)) from exc


def _outcome(thunk):
    """The plaintext, or the type of exception raised — under one entropy
    seed, so the robust path's random subsets are the same draw each time."""
    with DeterministicEntropy(99):
        try:
            return thunk()
        except (RecoveryError, ValueError) as exc:
            return type(exc)


def _corrupt(session, blob, how):
    if how == "intact":
        return blob
    if how == "flipped":
        return blob[:-3] + bytes([blob[-3] ^ 0x10]) + blob[-2:]
    if how == "truncated":
        return blob[: len(blob) // 2]
    # "lying": a well-formed reply, authentic under the session's reply key,
    # that carries a share off the polynomial; "garbled": an authentic reply
    # whose plaintext is not a share at all (one byte past its layout).
    context = b"recovery-reply" + session.username.encode("utf-8")
    share_bytes = HashedElGamal.decrypt(
        session.response_keypair.secret, ElGamalCiphertext.from_bytes(blob), context=context
    )
    if how == "garbled":
        plaintext = share_bytes + b"\x00"
    else:
        share = SHARE.decode(share_bytes)
        plaintext = SHARE.encode(Share(x=share.x, y=share.y ^ 1))
    return HashedElGamal.encrypt(
        session.response_keypair.public, plaintext, context=context
    ).to_bytes()


class TestOpenRepliesUntilTheBackupOpens:
    @pytest.fixture(scope="class", params=["narrow", "proportioned"])
    def escrowed(self, request):
        """A finished share phase over a cluster of distinct members:
        (deployment, client, session) with n replies in hand."""
        deployment = request.getfixturevalue(request.param)
        client, _ = _client(deployment, f"lazy-{request.param}-user")
        _backup(client, b"opens at t", _all_distinct)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == deployment.params.cluster_size
        return deployment, client, session

    def test_happy_path_opens_exactly_threshold_replies(self, escrowed):
        deployment, client, session = escrowed
        before = _elgamal_decs(client)
        assert client.finish_recovery(session) == b"opens at t"
        assert _elgamal_decs(client) - before == deployment.params.threshold

    def test_corrupt_first_reply_opens_the_rest(self, escrowed):
        deployment, client, session = escrowed
        replies = list(session.encrypted_replies)
        lying = dataclasses.replace(
            session,
            encrypted_replies=[_corrupt(session, replies[0], "lying")] + replies[1:],
        )
        before = _elgamal_decs(client)
        assert client.finish_recovery(lying) == b"opens at t"
        assert _elgamal_decs(client) - before == deployment.params.cluster_size
        # A reply that does not even authenticate is a ⊥: one more opened.
        flipped = dataclasses.replace(
            session,
            encrypted_replies=[_corrupt(session, replies[0], "flipped")] + replies[1:],
        )
        before = _elgamal_decs(client)
        assert client.finish_recovery(flipped) == b"opens at t"
        assert _elgamal_decs(client) - before == deployment.params.threshold + 1

    def test_authentic_reply_that_is_not_a_share_is_a_bottom(self, escrowed):
        """Its plaintext fails ``SHARE.decode`` with a ``WireFormatError``
        (not a ``ValueError``): still a ⊥ share, and one more reply opens."""
        deployment, client, session = escrowed
        replies = list(session.encrypted_replies)
        garbled = dataclasses.replace(
            session,
            encrypted_replies=[_corrupt(session, replies[0], "garbled")] + replies[1:],
        )
        before = _elgamal_decs(client)
        assert client.finish_recovery(garbled) == b"opens at t"
        assert _elgamal_decs(client) - before == deployment.params.threshold + 1

    def test_replies_that_all_open_another_key_are_a_recovery_error(self, escrowed):
        """Every reply is an authentic encryption, under the session's
        reply key, of a share of another transport key: no t-subset opens
        the payload, and the robust search's failure comes out typed."""
        deployment, client, session = escrowed
        params = deployment.params
        context = b"recovery-reply" + session.username.encode("utf-8")
        other_key = ShamirSharer(params.threshold, params.cluster_size).share(bytes(16))
        replies = [
            HashedElGamal.encrypt(
                session.response_keypair.public, SHARE.encode(share), context=context
            ).to_bytes()
            for share in other_key
        ]
        with pytest.raises(RecoveryError, match="robust reconstruction failed"):
            client.finish_recovery(dataclasses.replace(session, encrypted_replies=replies))

    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_lazy_opening_agrees_with_opening_everything(self, escrowed, data):
        _, client, session = escrowed
        damage = data.draw(
            st.lists(
                st.sampled_from(["intact", "flipped", "truncated", "lying", "garbled"]),
                min_size=len(session.encrypted_replies),
                max_size=len(session.encrypted_replies),
            )
        )
        replies = [
            _corrupt(session, blob, how)
            for blob, how in zip(session.encrypted_replies, damage)
        ]
        damaged = dataclasses.replace(session, encrypted_replies=replies)
        lazy = _outcome(lambda: client.finish_recovery(damaged))
        eager = _outcome(lambda: _open_all_then_reconstruct(client, session, replies))
        assert lazy == eager
        if damage.count("intact") == len(damage):
            assert lazy == b"opens at t"


class TestResumeOpensLazilyToo:
    def test_resume_with_first_escrowed_reply_corrupted(self, narrow):
        client, _ = _client(narrow, "resume-corrupt-user")
        _backup(client, b"resumed", _all_distinct)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session) == 3

        class FirstEscrowedReplyRots(DirectProviderChannel):
            def _invoke(self, op, args):
                result = super()._invoke(op, args)
                if op.method == "fetch_replies":
                    result[0] = _corrupt(session, result[0], "flipped")
                return result

        replacement, _ = _client(
            narrow, client.username, provider=FirstEscrowedReplyRots(narrow.provider)
        )
        assert replacement.resume_recovery(PIN, attempt=session.attempt) == b"resumed"
        # The nested recovery of the reply key opens t = 1 reply; the resumed
        # one opens the rotten reply (a ⊥) and then one good one.
        assert _elgamal_decs(replacement) == 1 + 2
