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

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.entropy import DeterministicEntropy
from repro.core.client import Client, RecoveryError
from repro.core.codec import WireFormatError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError
from repro.crypto.bfe import PuncturedKeyError
from repro.crypto.ec import ECPoint
from repro.crypto.elgamal import ElGamalCiphertext, HashedElGamal
from repro.crypto.gcm import AuthenticationError
from repro.crypto.hashing import hash_to_indices
from repro.crypto.shamir import SHARE, Share
from repro.hsm.device import HsmRefusedError, HsmUnavailableError
from repro.service.channel import (
    Channel,
    DirectProviderChannel,
    direct_channels,
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
    """A channel factory that logs every request the client sends as
    ``(hsm index, "reply" | exception type name)``.  ``before(index, nth)``
    runs ahead of the ``nth`` request to device ``index`` and may raise in
    the device's stead; ``after(index, nth)`` runs once it has answered."""

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


def _client(deployment, username, before=None, after=None, provider=None, inner=None):
    recording = _Recording(inner or direct_channels(deployment.fleet), before, after)
    client = Client(
        username=username,
        params=deployment.params,
        provider=provider or DirectProviderChannel(deployment.provider),
        channels=recording,
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
    *position*, repeated devices and all (no proof refresh: nothing here
    advances the log mid-session)."""
    obtained = 0
    for position, hsm_index in enumerate(session.cluster):
        try:
            reply = client._channels(hsm_index).decrypt_share(
                client._share_request(session, position)
            )
        except (HsmUnavailableError, PuncturedKeyError, HsmRefusedError):
            continue
        reply_bytes = reply.to_bytes()
        client.provider.store_reply(session.username, session.attempt, reply_bytes)
        session.encrypted_replies.append(reply_bytes)
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
            lambda client, session: client.request_shares(session, PIN)
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
        assert client.request_shares(session, PIN) == 1
        assert recording.log == [(session.cluster[0], "reply")]
        assert client.finish_recovery(session) == b"one holder"

    def test_second_call_on_the_session_asks_nobody_again(self, narrow):
        client, recording = _client(narrow, "twice-called-user")
        _backup(client, b"idempotent", _first_repeats)
        session = client.begin_recovery(PIN)
        assert client.request_shares(session, PIN) == 2
        assert client.request_shares(session, PIN) == 0
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
        client, recording = _client(narrow, "flipped-share-user")
        _backup(client, b"second position opens", _first_repeats)
        session = client.begin_recovery(PIN)
        share_cts = list(session.ciphertext.share_ciphertexts)
        payload = share_cts[0].payload
        share_cts[0] = dataclasses.replace(
            share_cts[0], payload=payload[:-1] + bytes([payload[-1] ^ 1])
        )
        session.ciphertext = dataclasses.replace(
            session.ciphertext, share_ciphertexts=tuple(share_cts)
        )
        repeated, other = session.cluster[0], session.cluster[2]

        assert client.request_shares(session, PIN) == 2
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
        assert client.request_shares(session, PIN) == 2
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
        assert client.request_shares(session, PIN) == 2
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
        assert client.request_shares(session, PIN) == 2
        assert recording.log == [
            (cluster[0], "HsmRefusedError"), (cluster[1], "reply"), (cluster[2], "reply"),
        ]
        assert client.finish_recovery(session) == b"two others carry it"


class TestStaleProofRetry:
    def test_retry_that_ends_in_punctured_marks_the_device(self, narrow):
        """A series already recovered: every holder says PuncturedKeyError.
        The first one says it only on the retry with a refreshed proof — and
        is still not asked a third time for the position that repeats it."""
        client, recording = _client(narrow, "stale-series-user")
        _backup(client, b"day 1", _first_repeats)
        client.backup(b"day 2", PIN, reuse_salt=True)
        assert client.recover(PIN) == b"day 2"
        del recording.log[:]

        session = client.begin_recovery(PIN, backup_index=0)
        # Another user's attempt commits an epoch: our proof is now stale.
        bystander, _ = _client(narrow, "stale-bystander")
        bystander.backup(b"x", PIN)
        bystander.begin_recovery(PIN)
        stale_proof = session.inclusion_proof

        repeated, other = session.cluster[0], session.cluster[2]
        assert client.request_shares(session, PIN) == 0
        assert recording.log == [
            (repeated, "HsmStaleProofError"),
            (repeated, "PuncturedKeyError"),
            (other, "PuncturedKeyError"),
        ]
        assert session.inclusion_proof != stale_proof
        assert session.answered_hsms == {repeated, other}
        with pytest.raises(RecoveryError):
            client.finish_recovery(session)


class TestEscrowFailureKeepsTheShare:
    def test_reply_is_held_when_its_store_reply_frame_fails(self, narrow):
        class FirstEscrowFrameLost(DirectProviderChannel):
            lost = 0

            def _invoke(self, op, args):
                if op.method == "store_reply" and not self.lost:
                    self.lost += 1
                    raise ProviderError("escrow frame lost")
                return super()._invoke(op, args)

        client, recording = _client(
            narrow, "escrow-loss-user", provider=FirstEscrowFrameLost(narrow.provider)
        )
        _backup(client, b"punctured but not lost", lambda cluster: len(set(cluster)) == 1)
        session = client.begin_recovery(PIN)
        with pytest.raises(ProviderError):
            client.request_shares(session, PIN)
        # The only holder has punctured; the reply it sent is all there is.
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
    return client.lhe.reconstruct(session.ciphertext, shares, session.context)


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
        assert client.request_shares(session, PIN) == deployment.params.cluster_size
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
        assert client.request_shares(session, PIN) == 3

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
