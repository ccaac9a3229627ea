"""The log certificate: one Schnorr multisignature and the rounds that make
it.

A certificate is the signer ids plus one ``(R, s)`` with ``s·G = R + c·X_S``.
A device signs in three rounds — ``audit_log_update`` (audit, then commit
to a fresh nonce), ``reveal_nonce`` and ``sign_transition`` — and these
tests hold each round to its rule: one answer per nonce, openings that
match, only rounds it audited and signer sets it is in, no nonce past a
crash.  Keys are summed, so the directory admits only keys with a proof of
possession; the rogue-key forgery that check stops is shown here too.  The
lane checks each certificate before it commits the epoch, so a bogus share
costs a retry, not the epoch, and the journal never holds a commit that
memory does not.  A certificate is checked against its signer set's
aggregate key, which each device and each lane sums and combs for itself,
one per lane, rebuilt when the set changes.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.crypto.bloom import BloomParams
from repro.crypto.ec import N, P, P256, ECKeyPair, ECPoint, combed_sum, naive_mult, point_sum
from repro.hsm.device import HsmDevice, HsmUnavailableError
from repro.hsm.fleet import HsmFleet
from repro.log.distributed import (
    AggregateKey,
    DistributedLog,
    LogConfig,
    LogUpdateRejected,
    SchnorrMultiSig,
)
from repro.log.sharded import ShardedLog
from repro.storage.blockstore import InMemoryBlockStore
from repro.storage.journal import K_EPOCH_INTENT, K_EPOCH_ROLLBACK

from multisig_rounds import certificate, per_key_check, run_rounds

CFG = LogConfig(audit_count=2, quorum_fraction=0.75)
G = P256.generator


@pytest.fixture
def fleet():
    params = BloomParams.for_punctures(4, failure_exponent=4)
    return HsmFleet(4, params, log_config=CFG, rng=random.Random(3))


@pytest.fixture
def log():
    return DistributedLog(CFG)


def _round(log, tag=b"u"):
    log.insert(tag, b"h")
    return log.prepare_update(num_chunks=1)


def _accepted(fleet, round_):
    return all(hsm.shard_digest(0) == round_.new_digest for hsm in fleet)


def _key(publics):
    """The aggregate key of ``publics``, as signers 0, 1, …"""
    return SchnorrMultiSig.aggregate_key(range(len(publics)), publics)


class TestRounds:
    def test_three_rounds_make_a_certificate_every_device_accepts(self, fleet, log):
        round_ = _round(log)
        aggregate, signers = run_rounds(fleet.hsms[:3], round_)
        for hsm in fleet:
            hsm.accept_log_digest(round_, aggregate, signers)
        assert _accepted(fleet, round_)

    def test_a_device_never_answers_twice_for_one_nonce(self, fleet, log):
        round_ = _round(log)
        devices = fleet.hsms[:3]
        commitments = {h.index: h.audit_log_update(round_) for h in devices}
        nonces = {h.index: h.reveal_nonce(round_, commitments) for h in devices}
        with pytest.raises(LogUpdateRejected, match="already revealed"):
            devices[0].reveal_nonce(round_, commitments)
        devices[0].sign_transition(round_, nonces)
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            devices[0].sign_transition(round_, nonces)
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            devices[0].reveal_nonce(round_, commitments)

    def test_a_reveal_that_does_not_open_its_commitment_is_refused(self, fleet, log):
        round_ = _round(log)
        devices = fleet.hsms[:3]
        commitments = {h.index: h.audit_log_update(round_) for h in devices}
        nonces = {h.index: h.reveal_nonce(round_, commitments) for h in devices}
        # The provider swaps in a nonce chosen after seeing the others.
        forged = {**nonces, devices[2].index: G * 5 - nonces[devices[1].index]}
        with pytest.raises(LogUpdateRejected, match="does not open"):
            devices[0].sign_transition(round_, forged)
        # The refusal spent the nonce: the honest openings get no answer now.
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            devices[0].sign_transition(round_, nonces)

    def test_nonces_for_another_signer_set_are_refused(self, fleet, log):
        round_ = _round(log)
        devices = fleet.hsms[:3]
        commitments = {h.index: h.audit_log_update(round_) for h in devices}
        nonces = {h.index: h.reveal_nonce(round_, commitments) for h in devices}
        del nonces[devices[2].index]
        with pytest.raises(LogUpdateRejected, match="another signer set"):
            devices[0].sign_transition(round_, nonces)

    def test_no_reveal_or_signature_for_a_round_the_device_did_not_audit(self, fleet, log):
        audited = _round(log, b"a")
        device = fleet[0]
        commitment = device.audit_log_update(audited)
        other = dataclasses.replace(audited, new_digest=b"\x07" * 32)
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            device.reveal_nonce(other, {device.index: commitment})
        nonce = device.reveal_nonce(audited, {device.index: commitment})
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            device.sign_transition(other, {device.index: nonce})
        # A device that never audited has nothing to reveal.
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            fleet[1].reveal_nonce(audited, {fleet[1].index: commitment})

    def test_no_signature_before_the_reveal(self, fleet, log):
        round_ = _round(log)
        device = fleet[0]
        commitment = device.audit_log_update(round_)
        with pytest.raises(LogUpdateRejected, match="not revealed"):
            device.sign_transition(round_, {device.index: G})
        # sign_transition spent the nonce even though it refused.
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            device.reveal_nonce(round_, {device.index: commitment})

    def test_a_signer_set_that_leaves_the_device_out_is_refused(self, fleet, log):
        round_ = _round(log)
        devices = fleet.hsms[:3]
        commitments = {h.index: h.audit_log_update(round_) for h in devices}
        without = {i: c for i, c in commitments.items() if i != devices[0].index}
        with pytest.raises(LogUpdateRejected, match="does not hold my commitment"):
            devices[0].reveal_nonce(round_, without)
        swapped = {**commitments, devices[0].index: commitments[devices[1].index]}
        with pytest.raises(LogUpdateRejected, match="does not hold my commitment"):
            devices[0].reveal_nonce(round_, swapped)
        unknown = {**commitments, 99: b"\x00" * 32}
        with pytest.raises(LogUpdateRejected, match="unknown signers"):
            devices[0].reveal_nonce(round_, unknown)

    def test_a_fresh_audit_draws_a_fresh_nonce(self, fleet, log):
        round_ = _round(log)
        first = fleet[0].audit_log_update(round_)
        assert fleet[0].audit_log_update(round_) != first


class TestCrashes:
    @pytest.mark.parametrize("crash", ["restart", "fail_stop"])
    @pytest.mark.parametrize("after", ["audit", "reveal"])
    def test_no_nonce_survives_a_crash_between_rounds(self, fleet, log, crash, after):
        round_ = _round(log)
        device = fleet[0]
        commitments = {device.index: device.audit_log_update(round_)}
        nonces = None
        if after == "reveal":
            nonces = {device.index: device.reveal_nonce(round_, commitments)}
        device.fail_stop()
        if crash == "restart":
            device.restart()
        else:
            with pytest.raises(HsmUnavailableError):
                device.reveal_nonce(round_, commitments)
            device.restart()
        with pytest.raises(LogUpdateRejected, match="no audited nonce"):
            if nonces is None:
                device.reveal_nonce(round_, commitments)
            else:
                device.sign_transition(round_, nonces)

    def test_a_signer_lost_between_rounds_makes_the_survivors_commit_again(self, log):
        """Four devices at q = 0.75 need three signers.  The first signer
        fail-stops as it reveals: the auditors left commit again with fresh
        nonces, and the three survivors certify the round."""
        params = BloomParams.for_punctures(4, failure_exponent=4)
        fleet = HsmFleet(4, params, log_config=CFG, rng=random.Random(4))
        victim = fleet[0]
        commitments = []
        audit, reveal = type(victim).audit_log_update, type(victim).reveal_nonce

        def recording_audit(self, round_):
            commitment = audit(self, round_)
            commitments.append((self.index, commitment))
            return commitment

        def dying_reveal(self, round_, chosen):
            if self is victim:
                self.fail_stop()
                raise HsmUnavailableError("lost mid-round")
            return reveal(self, round_, chosen)

        log.insert(b"x", b"h")
        patches = pytest.MonkeyPatch()
        patches.setattr(type(victim), "audit_log_update", recording_audit)
        patches.setattr(type(victim), "reveal_nonce", dying_reveal)
        try:
            log.run_update(fleet.hsms)
        finally:
            patches.undo()
        transition = log.certified_transitions[-1]
        assert transition.signer_ids == (1, 2, 3)
        by_device = {}
        for index, commitment in commitments:
            by_device.setdefault(index, []).append(commitment)
        assert len(by_device[0]) == 1  # the victim audited once, then was lost
        for index in (1, 2, 3):  # the survivors committed twice, fresh each time
            assert len(by_device[index]) == 2 and len(set(by_device[index])) == 2
        assert all(fleet[i].shard_digest(0) == log.digest for i in (1, 2, 3))

    def test_the_epoch_fails_only_below_quorum(self, log):
        """Losing two of four signers between the rounds leaves two: below
        the quorum of three, the epoch fails and rolls back."""
        params = BloomParams.for_punctures(4, failure_exponent=4)
        fleet = HsmFleet(4, params, log_config=CFG, rng=random.Random(4))
        before = log.digest
        reveal = type(fleet[0]).reveal_nonce

        def dying_reveal(self, round_, chosen):
            if self.index in (0, 1):
                self.fail_stop()
                raise HsmUnavailableError("lost mid-round")
            return reveal(self, round_, chosen)

        log.insert(b"y", b"h")
        with pytest.MonkeyPatch.context() as patches:
            patches.setattr(type(fleet[0]), "reveal_nonce", dying_reveal)
            with pytest.raises(LogUpdateRejected, match="need 3"):
                log.run_update(fleet.hsms)
        assert log.digest == before and not log.certified_transitions
        assert all(hsm.shard_digest(0) == before for hsm in fleet)


def _durable(seed):
    """A durable N = 4 deployment (q = 0.75: three signers), genesis run."""
    params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=8)
    store = InMemoryBlockStore()
    return params, store, Deployment.create(params, rng=random.Random(seed), store=store)


def _journal_agrees(dep):
    """The journal replays to the chain and entries the lane holds."""
    state = dep.provider.journal.replay_state()
    lane = dep.provider.log.shards[0]
    assert not state.open_intents
    assert state.shard_transitions[0] == lane.certified_transitions
    assert state.shard_entries[0] == lane.ordered_entries


class TestOneCommitPoint:
    """An epoch commits at one point: the commit record, then the chain.
    Before it the lane checks the certificate, and a signer whose share
    fails ``sᵢ·G = Rᵢ + c·Xᵢ`` is dropped like a lost one; past it nothing
    undoes the epoch, and a device that refuses it is left behind."""

    @staticmethod
    def _bogus_signer(patches, victim):
        sign = HsmDevice.sign_transition

        def bogus(self, round_, nonces):
            share = sign(self, round_, nonces)
            return (share + 1) % N if self is victim else share

        patches.setattr(HsmDevice, "sign_transition", bogus)

    def test_a_bogus_share_is_dropped_and_the_honest_quorum_commits(self, monkeypatch):
        params, store, dep = _durable(31)
        log = dep.provider.log
        self._bogus_signer(monkeypatch, dep.fleet[0])
        log.insert(b"rec|bogus-a|0", b"h")
        log.run_update(dep.fleet.hsms)
        assert log.shards[0].certified_transitions[-1].signer_ids == (1, 2, 3)
        assert all(hsm.log_digest == log.digest for hsm in dep.fleet)
        _journal_agrees(dep)
        log.insert(b"rec|bogus-b|0", b"h")
        log.run_update(dep.fleet.hsms)
        _journal_agrees(dep)
        restored = Deployment.restore(params, store, dep.fleet).provider.log
        assert restored.digest == log.digest
        assert restored.shards[0].certified_transitions == log.shards[0].certified_transitions

    def test_a_bogus_signer_goes_last_in_later_quorums(self, monkeypatch):
        """Only the epoch that catches the bad share pays the retry: 7
        audits and 6 signature shares, then 4 and 3 an epoch."""
        params, store, dep = _durable(34)
        log = dep.provider.log
        self._bogus_signer(monkeypatch, dep.fleet[0])
        calls = {"audit_log_update": 0, "sign_transition": 0}
        for name in calls:
            method = getattr(HsmDevice, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(HsmDevice, name, counted)
        costs = []
        for epoch in range(3):
            calls.update(dict.fromkeys(calls, 0))
            log.insert(b"rec|bogus-last|%d" % epoch, b"h")
            log.run_update(dep.fleet.hsms)
            costs.append((calls["audit_log_update"], calls["sign_transition"]))
        assert costs == [(7, 6), (4, 3), (4, 3)]
        assert log.shards[0].bad_signers == {0}
        assert all(t.signer_ids == (1, 2, 3) for t in log.shards[0].certified_transitions[-3:])

    def test_without_the_bogus_signer_below_quorum_the_epoch_rolls_back(self, monkeypatch):
        params, store, dep = _durable(32)
        log = dep.provider.log
        self._bogus_signer(monkeypatch, dep.fleet[0])
        dep.fleet[3].fail_stop()
        before, records = log.digest, len(dep.provider.journal.wal)
        log.insert(b"rec|bogus-c|0", b"h")
        with pytest.raises(LogUpdateRejected, match="need 3"):
            log.run_update(dep.fleet.hsms)
        kinds = [kind for _, kind, _ in dep.provider.journal.wal.replay()]
        assert kinds[records:] == [K_EPOCH_INTENT, K_EPOCH_ROLLBACK]
        assert log.digest == before and log.pending == [(b"rec|bogus-c|0", b"h")]
        assert all(hsm.shard_digest(0) == before for hsm in dep.fleet)
        _journal_agrees(dep)
        dep.fleet[3].restart()
        log.run_update(dep.fleet.hsms)
        restored = Deployment.restore(params, store, dep.fleet).provider.log
        assert restored.digest == log.digest != before

    def test_a_device_that_refuses_acceptance_is_left_behind(self, monkeypatch):
        params, store, dep = _durable(33)
        log = dep.provider.log
        lane = log.shards[0]
        refuser = dep.fleet[2]
        accept = HsmDevice.accept_log_digest

        def refusing(self, round_, aggregate, signer_ids):
            if self is refuser:
                raise LogUpdateRejected("refused")
            return accept(self, round_, aggregate, signer_ids)

        behind = log.digest
        log.insert(b"rec|refused-a|0", b"h")
        with monkeypatch.context() as patches:
            patches.setattr(HsmDevice, "accept_log_digest", refusing)
            log.run_update(dep.fleet.hsms)
        # The epoch stands, in memory and in the journal alike.
        assert lane.epoch == 2 and lane.certified_transitions[-1].old_digest == behind
        assert log.digest != behind and not log.pending
        _journal_agrees(dep)
        assert refuser.offered_frontier(0) == behind
        assert all(hsm.shard_digest(0) == log.digest for hsm in dep.fleet if hsm is not refuser)
        # The next epoch offers it the transition it refused, and it catches up.
        log.insert(b"rec|refused-b|0", b"h")
        log.run_update(dep.fleet.hsms)
        assert all(hsm.log_digest == log.digest for hsm in dep.fleet)
        _journal_agrees(dep)
        restored = Deployment.restore(params, store, dep.fleet).provider.log
        assert restored.digest == log.digest
        assert restored.shards[0].certified_transitions == lane.certified_transitions


def _wide_fleet(seed=5):
    """Twelve devices at q = 0.75: a quorum of nine."""
    params = BloomParams.for_punctures(4, failure_exponent=4)
    return HsmFleet(12, params, log_config=CFG, rng=random.Random(seed))


class TestAggregateKeys:
    """Each device keeps one aggregate key a lane and each lane its own:
    built from the holder's own copy of the keys, replaced when a
    certificate names another signer set, never shared, never past a
    crash."""

    def test_a_new_quorum_replaces_every_devices_key(self, log):
        fleet = _wide_fleet()
        log.insert(b"k0", b"h")
        log.run_update(fleet.hsms)
        first = {hsm.index: hsm._aggregate_keys[0] for hsm in fleet}
        assert all(key.signers == tuple(range(9)) for key in first.values())
        fleet[0].fail_stop()
        log.insert(b"k1", b"h")
        log.run_update(fleet.hsms)
        signers = tuple(range(1, 10))
        assert log.certified_transitions[-1].signer_ids == signers
        expected = point_sum([fleet[i].public_info().sig_public for i in signers])
        for hsm in fleet.hsms[1:]:
            assert hsm.shard_digest(0) == log.digest
            assert list(hsm._aggregate_keys) == [0]
            key = hsm._aggregate_keys[0]
            assert key is not first[hsm.index]
            assert key.signers == signers and key.point == expected
        assert fleet[0]._aggregate_keys == {}

    def test_a_certificate_is_checked_against_the_set_it_names(self, log):
        """Signed by 1…9 but naming 0…8, a certificate is refused by a
        device that holds 0…8's key and by one that holds 1…9's; named
        truly, both accept it."""
        fleet = _wide_fleet()
        log.insert(b"k0", b"h")
        log.run_update(fleet.hsms)
        round_ = _round(log, b"k1")
        aggregate, signers = run_rounds(fleet.hsms[1:10], round_)
        named = tuple(range(9))
        assert signers == tuple(range(1, 10))
        holders = {named: fleet[11], signers: fleet[1]}
        for held, device in holders.items():
            assert device._aggregate_keys[0].signers == held
            with pytest.raises(LogUpdateRejected, match="invalid"):
                device.accept_log_digest(round_, aggregate, named)
            assert device.shard_digest(0) == round_.old_digest
        for device in holders.values():
            device.accept_log_digest(round_, aggregate, signers)
            assert device.shard_digest(0) == round_.new_digest
            assert device._aggregate_keys[0].signers == signers

    def test_no_key_is_shared_and_a_device_holds_one_a_lane(self):
        """At S = 4 every device ends up holding one key for each lane —
        its committee's from the live accept, the others' from adopting
        offers — and no two holders, devices or lanes, share a key, a sum
        or a comb."""
        config = LogConfig(audit_count=2, quorum_fraction=0.75, num_shards=4)
        params = BloomParams.for_punctures(4, failure_exponent=4)
        fleet = HsmFleet(8, params, log_config=config, rng=random.Random(6))
        log = ShardedLog(config)
        for epoch in range(2):
            for i in range(32):
                log.insert(b"rec|key-cache-%d-%d|0" % (epoch, i), b"h")
            assert all(lane.has_pending for lane in log.shards)
            log.run_update(fleet.hsms)
            assert all(hsm.log_digest == log.digest for hsm in fleet)
        for hsm in fleet:
            assert sorted(hsm._aggregate_keys) == list(range(hsm.num_shards))
        keys = [key for hsm in fleet for key in hsm._aggregate_keys.values()]
        keys += [lane._signer_key for lane in log.shards]
        for part in (lambda key: key, lambda key: key.point, lambda key: key.point._comb):
            assert len({id(part(key)) for key in keys}) == len(keys) == 8 * 4 + 4
        for lane in log.shards:
            held = [hsm._aggregate_keys[lane.shard_index] for hsm in fleet]
            assert {key.signers for key in held} == {lane._signer_key.signers}
            assert {key.point for key in held} == {lane._signer_key.point}

    @pytest.mark.parametrize("drop", ["fail_stop", "restart", "install_signer_directory"])
    def test_a_crash_or_a_new_directory_drops_the_keys(self, fleet, log, drop):
        round_ = _round(log)
        aggregate, signers = run_rounds(fleet.hsms[:3], round_)
        for hsm in fleet:
            hsm.accept_log_digest(round_, aggregate, signers)
        device = fleet[3]
        assert device._aggregate_keys[0].signers == signers
        if drop == "install_signer_directory":
            device.install_signer_directory(HsmFleet.signer_directory(h.public_info() for h in fleet))
        else:
            getattr(device, drop)()
        assert device._aggregate_keys == {}
        device.restart()
        after = _round(log, b"v")
        aggregate, signers = run_rounds(fleet.hsms[:3], after)
        device.accept_log_digest(after, aggregate, signers)
        assert device.shard_digest(0) == after.new_digest
        assert list(device._aggregate_keys) == [0]

    def test_the_identity_among_the_keys_is_a_rejection(self, fleet, log):
        """A sum skips an identity key, so the key refuses it: a
        certificate by 0, 1, 2 that also names a signer whose key is the
        identity (installed past the fleet's proof check) is refused."""
        keypairs = [P256.keygen(random.Random(seed)) for seed in range(3)]
        cert = certificate(keypairs, b"transition")
        publics = [kp.public for kp in keypairs]
        infinity = ECPoint(None, None)
        assert SchnorrMultiSig.verify_aggregate(_key(publics), b"transition", cert)
        for keys in (publics + [infinity], [infinity] + publics[1:], [infinity], []):
            key = _key(keys)
            assert key.point.is_infinity and key.point._comb is None
            assert not SchnorrMultiSig.verify_aggregate(key, b"transition", cert)
        round_ = _round(log)
        aggregate, signers = run_rounds(fleet.hsms[:3], round_)
        victim = fleet[3]
        directory = {i: fleet[i].public_info().sig_public for i in signers}
        victim.install_signer_directory({**directory, 3: infinity})
        with pytest.raises(LogUpdateRejected, match="invalid"):
            victim.accept_log_digest(round_, aggregate, signers + (3,))
        victim.accept_log_digest(round_, aggregate, signers)
        assert victim.shard_digest(0) == round_.new_digest


class TestRogueKeys:
    def test_the_fleet_refuses_a_key_without_a_valid_proof(self, fleet):
        infos = [hsm.public_info() for hsm in fleet]
        honest = infos[1:]
        a = 0xBAD
        rogue = G * a - point_sum([info.sig_public for info in honest])
        forged = dataclasses.replace(infos[0], sig_public=rogue)
        with pytest.raises(ValueError, match="proof of possession"):
            HsmFleet.signer_directory([forged] + honest)
        # Nor does a proof lifted from another key or index pass.
        stolen = dataclasses.replace(infos[0], sig_proof=infos[1].sig_proof)
        with pytest.raises(ValueError, match="proof of possession"):
            HsmFleet.signer_directory([stolen] + honest)
        moved = dataclasses.replace(infos[1], index=0)
        with pytest.raises(ValueError, match="proof of possession"):
            HsmFleet.signer_directory([moved])
        assert HsmFleet.signer_directory(infos) == {i.index: i.sig_public for i in infos}

    def test_the_forgery_a_rogue_key_enables(self, fleet, log):
        """Installed directly, past the fleet's check, the rogue key
        ``a·G − Σ X_honest`` makes the whole set's key sum ``a·G``: its
        maker alone signs for every honest device."""
        honest = [hsm.public_info().sig_public for hsm in fleet.hsms[1:]]
        a = 0xBAD
        rogue = G * a - point_sum(honest)
        directory = {0: rogue, **{i + 1: key for i, key in enumerate(honest)}}
        victim = fleet[3]
        victim.install_signer_directory(directory)
        round_ = _round(log)
        signers = tuple(directory)
        forged = certificate([ECKeyPair(a, G * a)], round_.message())
        # The certificate is over X_S = a·G, which is the sum of the set.
        assert point_sum([directory[i] for i in signers]) == G * a
        nonce, s = forged
        challenge = SchnorrMultiSig.challenge(_key([G * a]), nonce, round_.message())
        assert challenge == SchnorrMultiSig.challenge(
            _key([directory[i] for i in signers]), nonce, round_.message()
        )
        victim.accept_log_digest(round_, forged, signers)
        assert victim.shard_digest(0) == round_.new_digest  # forged: no honest device signed


class TestMalformedCertificates:
    @pytest.fixture
    def signed(self):
        keypairs = [P256.keygen(random.Random(seed)) for seed in range(3)]
        message = b"transition"
        publics = [kp.public for kp in keypairs]
        return publics, message, certificate(keypairs, message)

    def _off_curve(self, point):
        bogus = object.__new__(ECPoint)
        bogus.x, bogus.y, bogus._comb = point.x, (point.y + 1) % P, None
        return bogus

    def test_malformed_certificates_are_rejections_not_exceptions(self, signed):
        publics, message, (nonce, s) = signed
        key = _key(publics)
        assert SchnorrMultiSig.verify_aggregate(key, message, (nonce, s))
        malformed = [
            (ECPoint(None, None), s),  # R at infinity
            (self._off_curve(nonce), s),  # R off the curve
            (nonce, 0),
            (nonce, N),
            (nonce, N + s),
            (nonce, -s),
            (nonce, str(s)),
            (nonce, float(s)),
            (nonce.to_bytes(), s),
            (nonce,),
            (nonce, s, s),
            [nonce, s],
            None,
            7,
            b"\x00" * 65,
        ]
        for aggregate in malformed:
            assert not SchnorrMultiSig.verify_aggregate(key, message, aggregate), aggregate
        assert not SchnorrMultiSig.verify_aggregate(_key([]), message, (nonce, s))

    def test_duplicate_or_unknown_signer_ids_are_refused(self, fleet, log):
        round_ = _round(log)
        aggregate, signers = run_rounds(fleet.hsms[:3], round_)
        for bad in (signers[:2] + (signers[0],), signers[:2] + (99,), signers + (signers[0],)):
            with pytest.raises(LogUpdateRejected):
                fleet[3].accept_log_digest(round_, aggregate, bad)
        with pytest.raises(LogUpdateRejected, match="invalid"):
            fleet[3].accept_log_digest(round_, aggregate, signers[:2] + (3,))
        with pytest.raises(LogUpdateRejected):
            fleet[3].accept_log_digest(round_, (aggregate[0], "s"), signers)
        assert fleet[3].shard_digest(0) == round_.old_digest
        fleet[3].accept_log_digest(round_, aggregate, signers)

    def test_the_fleet_refuses_malformed_proofs(self, fleet):
        info = fleet[0].public_info()
        for proof in (None, (info.sig_proof[0],), (ECPoint(None, None), 1), (G, 0)):
            with pytest.raises(ValueError, match="proof of possession"):
                HsmFleet.signer_directory([dataclasses.replace(info, sig_proof=proof)])
        with pytest.raises(ValueError, match="proof of possession"):
            HsmFleet.signer_directory([dataclasses.replace(info, sig_public=ECPoint(None, None))])


def _naive_check(publics, message, aggregate) -> bool:
    """``s·G == R + c·Σ Xᵢ`` by plain ``naive_mult`` and point additions."""
    nonce, s = aggregate
    if not 1 <= s < N:
        return False
    c = SchnorrMultiSig.challenge(AggregateKey((), point_sum(publics)), nonce, message)
    right = nonce
    for public in publics:
        right = right + naive_mult(public, c)
    return naive_mult(G, s) == right


class TestFastCheckMatchesNaive:
    @given(
        seed=st.integers(0, 2**32),
        signers=st.integers(1, 6),
        tamper=st.sampled_from(["none", "s", "nonce", "message", "key", "drop"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_check_agrees_with_naive_mult(self, seed, signers, tamper):
        rng = random.Random(seed)
        keypairs = [P256.keygen(rng) for _ in range(signers)]
        message = rng.randbytes(32)
        nonce, s = certificate(keypairs, message, seed)
        # Combed and laddered keys alike in the per-key oracle's sum.
        publics = [combed_sum([kp.public]) if i % 2 else kp.public for i, kp in enumerate(keypairs)]
        if tamper == "s":
            s = (s + rng.randrange(1, N)) % N or 1
        elif tamper == "nonce":
            nonce = nonce + G
        elif tamper == "message":
            message = message[::-1] + b"!"
        elif tamper == "key":
            publics[rng.randrange(signers)] = P256.keygen(rng).public
        elif tamper == "drop" and signers > 1:
            publics = publics[1:]
        fast = SchnorrMultiSig.verify_aggregate(_key(publics), message, (nonce, s))
        assert fast == _naive_check(publics, message, (nonce, s))
        assert per_key_check(publics, message, (nonce, s)) == fast
        assert fast == (tamper == "none" or (tamper == "drop" and signers == 1))
