"""Security integration tests: the paper's attacks against the real system.

The contrast tests in test_baseline.py show the same attacks *succeeding*
against the status quo.
"""

import math
import random
from types import SimpleNamespace

import pytest

from repro.adversary.attacks import (
    AdaptiveCorruptionAttacker,
    CheatingProvider,
    ReplyKeySwappingRelay,
    decrypt_with_stolen_secrets,
)
from repro.chaos.entropy import DeterministicEntropy
from repro.core import wire
from repro.core.client import Client, RecoveryError
from repro.core.lhe import SALT_LEN, LocationHidingEncryption
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.log.distributed import LogConfig, LogUpdateRejected
from repro.service.channel import provider_channel, proving_channels, wire_channels

from multisig_rounds import run_rounds


class TestAdaptiveCorruption:
    def test_small_corruption_budget_fails_without_pin(self, fresh_deployment, unique_user):
        """Compromise f_secret·N HSMs chosen adaptively after seeing the
        ciphertext: without the right PIN among the guesses, the attacker
        learns nothing."""
        dep = fresh_deployment
        client = dep.new_client(unique_user)
        client.backup(b"top secret", pin="7315")
        ct = dep.provider.fetch_backup(unique_user)
        budget = max(1, dep.params.tolerated_compromises)
        attacker = AdaptiveCorruptionAttacker(dep.fleet, client.lhe, budget)
        wrong_pins = [f"{p:04d}" for p in range(20) if f"{p:04d}" != "7315"]
        assert attacker.run(ct, wrong_pins, client.mpk) is None
        assert len(attacker.corrupted) <= budget

    def test_correct_pin_with_enough_corruption_succeeds(
        self, fresh_deployment, unique_user
    ):
        """Sanity check on the attack harness (and the scheme's tightness):
        with the right PIN and the whole cluster corrupted, the attacker
        wins — the defense is the PIN space times cluster hiding, nothing
        else."""
        dep = fresh_deployment
        client = dep.new_client(unique_user)
        client.backup(b"top secret", pin="7315")
        ct = dep.provider.fetch_backup(unique_user)
        stolen = dep.fleet.compromise(sorted(set(client.lhe.select(ct.salt, "7315"))))
        result = decrypt_with_stolen_secrets(client.lhe, ct, stolen, "7315", client.mpk)
        assert result == b"top secret"

    def test_forward_secrecy_after_recovery(self, fresh_deployment, unique_user):
        """Compromise *every* HSM after the client recovered: the punctured
        keys reveal nothing about the recovered backup (Figure 4's right
        region)."""
        dep = fresh_deployment
        client = dep.new_client(unique_user)
        client.backup(b"already recovered", pin="2468")
        ct = dep.provider.fetch_backup(unique_user)
        assert client.recover(pin="2468") == b"already recovered"
        stolen = dep.fleet.compromise(range(len(dep.fleet)))
        result = decrypt_with_stolen_secrets(client.lhe, ct, stolen, "2468", client.mpk)
        assert result is None

    def test_compromise_before_recovery_with_wrong_cluster(self, fresh_deployment, unique_user):
        """Corrupting HSMs outside the hidden cluster yields nothing even
        with the correct PIN in hand."""
        dep = fresh_deployment
        client = dep.new_client(unique_user)
        client.backup(b"data", pin="1357")
        ct = dep.provider.fetch_backup(unique_user)
        cluster = set(client.lhe.select(ct.salt, "1357"))
        outside = [i for i in range(len(dep.fleet)) if i not in cluster]
        stolen = dep.fleet.compromise(outside)
        assert decrypt_with_stolen_secrets(client.lhe, ct, stolen, "1357", client.mpk) is None


class TestBruteForceThroughProtocol:
    def test_attempt_budget_is_global(self, fresh_deployment, unique_user):
        dep = fresh_deployment
        victim = dep.new_client(unique_user)
        victim.backup(b"data", pin="9731")
        attacker_client = dep.new_client(unique_user)  # attacker knows username
        budget = dep.params.max_attempts_per_user
        refused_early = False
        guesses = 0
        for pin in (f"{p:04d}" for p in range(budget + 5)):
            guesses += 1
            try:
                attacker_client.recover(pin)
            except RecoveryError as exc:
                if "exhausted" in str(exc):
                    refused_early = True
                    break
        assert refused_early
        assert guesses == budget + 1
        # ...and every single guess left a public trace:
        assert len(victim.audit_my_recovery_attempts()) == budget


class TestCheatingProvider:
    def _fleet(self):
        cfg = LogConfig(audit_count=3, quorum_fraction=0.75)
        from repro.crypto.bloom import BloomParams
        from repro.hsm.fleet import HsmFleet

        return HsmFleet(
            8,
            BloomParams.for_punctures(4, failure_exponent=4),
            log_config=cfg,
            rng=random.Random(5),
        ), cfg

    def test_rewrite_is_unverifiable(self):
        """After silently rewriting an entry, the provider can no longer
        produce inclusion proofs the HSM digest accepts — so it cannot serve
        a forged recovery attempt."""
        fleet, cfg = self._fleet()
        log = CheatingProvider(cfg)
        log.insert(b"victim", b"honest-commitment")
        log.run_update(fleet.hsms)
        log.rewrite_entry(b"victim", b"forged-commitment")
        from repro.log.authdict import verify_includes

        proof = log.prove_includes(b"victim", b"forged-commitment")
        assert not verify_includes(fleet[0].log_digest, b"victim", b"forged-commitment", proof)

    def test_rewrite_breaks_future_updates(self):
        """The forked provider state can never be certified again: its next
        round does not build on the digest the HSMs hold."""
        fleet, cfg = self._fleet()
        log = CheatingProvider(cfg)
        log.insert(b"victim", b"honest")
        log.run_update(fleet.hsms)
        log.rewrite_entry(b"victim", b"forged")
        log.insert(b"other", b"x")
        with pytest.raises(LogUpdateRejected):
            log.run_update(fleet.hsms)

    def test_dropped_insertion_caught_by_audit(self):
        fleet, cfg = self._fleet()
        log = CheatingProvider(cfg)
        for i in range(8):
            log.insert(f"u{i}".encode(), b"h")
        round_ = log.forge_round_dropping_entry(hsm_count=4)
        rejected = 0
        for hsm in fleet.online():
            try:
                hsm.audit_log_update(round_)
            except LogUpdateRejected:
                rejected += 1
        assert rejected >= 1

    def test_equivocation_cannot_satisfy_both_quorums(self):
        """Showing different logs to different HSM subsets: neither side can
        reach quorum, so neither digest is ever certified."""
        fleet, cfg = self._fleet()
        log = CheatingProvider(cfg)
        round_a, round_b = log.equivocate([(b"a", b"1")], [(b"b", b"2")])
        half_a = list(fleet.online())[:4]
        half_b = list(fleet.online())[4:]
        certificate_a = run_rounds(half_a, round_a)
        certificate_b = run_rounds(half_b, round_b)
        with pytest.raises(LogUpdateRejected):
            half_a[0].accept_log_digest(round_a, *certificate_a)
        with pytest.raises(LogUpdateRejected):
            half_b[0].accept_log_digest(round_b, *certificate_b)


class TestStatisticalLocationHiding:
    def test_cluster_indistinguishable_without_pin(self):
        """Empirical check of the location-hiding intuition: over many
        (salt, PIN) pairs, every HSM index is selected at close-to-uniform
        frequency, so the ciphertext's salt alone gives the attacker no
        slate of HSMs to steal."""
        from repro.core.lhe import LocationHidingEncryption

        lhe = LocationHidingEncryption(32, 4, 2)
        counts = [0] * 32
        trials = 2000
        rng = random.Random(1)
        for t in range(trials):
            salt = rng.randbytes(8)
            for index in lhe.select(salt, "0000"):
                counts[index] += 1
        expected = trials * 4 / 32
        for count in counts:
            assert abs(count - expected) < 6 * (expected**0.5)


class TestSaltInTheClear:
    """The paper's stated limitation (§6.3, §8), which this repository
    shares: the recovery ciphertext carries its salt in the clear, so the
    provider reads it without a log entry, and once a recovery has asked
    its devices, testing every PIN's cluster against the devices asked
    leaves a handful of candidates with the true PIN among them."""

    PINS = [f"{p:04d}" for p in range(10_000)]
    #: Its cluster under PIN 1234 is [9, 10, 10, 9]: two distinct devices.
    REPEATED_DEVICE_SALT = bytes.fromhex("8d5a62b98f5979958fa3e35002ee1bbf")

    @staticmethod
    def observed_client(dep, username):
        """A client whose HSM leg notes the index of every device asked."""
        asked = set()
        channels = wire_channels(dep.fleet)

        def observed(index):
            def decrypt_share(request):
                asked.add(index)
                return channels(index).decrypt_share(request)
            return SimpleNamespace(decrypt_share=decrypt_share)

        client = Client(
            username, dep.params, provider_channel(dep.provider),
            proving_channels(
                observed,
                dep.provider.prove_inclusion,
                dep.provider.store_reply,
                dep.provider.backup_share,
            ),
            dep.fleet.master_public_key(),
        )
        return client, asked

    @classmethod
    def candidates(cls, lhe, salt, asked):
        """Every PIN whose cluster under ``salt`` asks exactly ``asked``."""
        return [guess for guess in cls.PINS if set(lhe.select(salt, guess)) == asked]

    def observe_recovery(self, dep, username, pin):
        """Seed 1's backup under ``pin`` (a cluster of 4 distinct devices)
        and its recovery: the client, the clear salt and the devices asked."""
        client, asked = self.observed_client(dep, username)
        with DeterministicEntropy(1):
            client.backup(b"victim secret", pin=pin)
        salt = dep.provider.fetch_backup(username).salt
        assert client.recover(pin=pin) == b"victim secret"
        return client, salt, asked

    def test_salt_and_observed_cluster_narrow_the_pin_offline(self, fresh_deployment):
        dep, username, pin = fresh_deployment, "salt-in-the-clear", "4821"
        client, asked = self.observed_client(dep, username)
        with DeterministicEntropy(1):  # a cluster of 4 distinct devices
            client.backup(b"victim secret", pin=pin)
        ct = dep.provider.fetch_backup(username)
        salt = ct.salt
        assert salt in wire.encode_recovery_ciphertext(ct)
        assert dep.provider.recovery_attempts_for(username) == []
        assert client.recover(pin=pin) == b"victim secret"
        assert asked == set(client.lhe.select(salt, pin))
        assert self.candidates(client.lhe, salt, asked) == ["3432", "4821", "6516", "8785"]

    def test_reading_every_salt_logs_nothing(self, fresh_deployment):
        """Each backup draws a fresh salt, and anyone the provider serves
        reads every one of them without a log entry."""
        dep, username = fresh_deployment, "salt-reader"
        client = dep.new_client(username)
        for secret in (b"first", b"second", b"third"):
            client.backup(secret, pin="4821")
        digest, logged = dep.provider.log.digest, list(dep.provider.log.items())
        reader = provider_channel(dep.provider)
        salts = [reader.fetch_backup(username, index).salt for index in range(3)]
        assert len(set(salts)) == 3
        assert all(len(salt) == SALT_LEN for salt in salts)
        assert dep.provider.log.digest == digest
        assert list(dep.provider.log.items()) == logged
        assert dep.provider.recovery_attempts_for(username) == []

    def test_the_narrowing_needs_the_true_salt(self, fresh_deployment):
        """The devices asked alone leave the PIN hidden: under any other
        salt the same observation keeps PINs that exclude the true one."""
        client, salt, asked = self.observe_recovery(fresh_deployment, "salt-needed", "4821")
        stream = random.Random(3)
        for _ in range(8):
            other = stream.randbytes(SALT_LEN)
            assert other != salt
            assert "4821" not in self.candidates(client.lhe, other, asked)

    def test_a_cluster_with_a_repeated_device_narrows_the_pin_too(self, fresh_deployment):
        """A recovery asks each distinct device once, so the observer sees a
        set, not the ordered cluster; the set still narrows the PIN."""
        dep, salt = fresh_deployment, self.REPEATED_DEVICE_SALT
        client, asked = self.observed_client(dep, "repeated-device")
        client._last_salt = salt
        client.backup(b"victim secret", pin="1234", reuse_salt=True)
        assert dep.provider.fetch_backup("repeated-device").salt == salt
        assert client.recover(pin="1234") == b"victim secret"
        assert client.lhe.select(salt, "1234") == [9, 10, 10, 9]
        assert asked == {9, 10}
        assert self.candidates(client.lhe, salt, asked) == ["1234", "1380", "1438", "6210"]

    def test_candidate_count_follows_the_cluster_collision_rate(self, shared_params):
        """Besides the true PIN, a salt and the k distinct devices asked
        leave (|PINs| - 1) * P(a random cluster asks exactly those devices)
        PINs on average, where P counts the clusters in [N]^n onto the k
        devices: sum_j (-1)^j C(k, j) (k - j)^n / N^n."""
        params = shared_params
        lhe = LocationHidingEncryption(params.num_hsms, params.cluster_size, params.threshold)
        n, stream = params.cluster_size, random.Random(5)
        found = expected = 0
        for _ in range(20):
            salt, pin = stream.randbytes(SALT_LEN), stream.choice(self.PINS)
            asked = set(lhe.select(salt, pin))
            k = len(asked)
            onto = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
            expected += (len(self.PINS) - 1) * onto / params.num_hsms**n
            left = self.candidates(lhe, salt, asked)
            assert pin in left
            found += len(left) - 1
        assert abs(found - expected) < 4 * math.sqrt(expected)

    def test_candidates_break_a_reused_pin_within_the_attempt_budget(self, fresh_deployment):
        """The PIN re-use the paper warns of: the next backup under the same
        PIN falls to online guesses over the candidates, each of which the
        owner's audit lists, inside the attempt budget."""
        dep, username = fresh_deployment, "pin-reuse"
        victim, salt, asked = self.observe_recovery(dep, username, "4821")
        candidates = self.candidates(victim.lhe, salt, asked)
        with DeterministicEntropy(2):
            victim.backup(b"next secret", pin="4821")
        attacker = dep.new_client(username)
        outcomes = []
        for guess in candidates:
            try:
                outcomes.append(attacker.recover(pin=guess))
                break
            except RecoveryError:
                outcomes.append(None)
        assert outcomes == [None, b"next secret"]
        attempts = len(victim.audit_my_recovery_attempts())
        assert attempts == 3 < dep.params.max_attempts_per_user

    def test_a_new_pin_leaves_the_candidates_behind(self, fresh_deployment):
        """The remedy a leaked salt calls for: the next backup under a PIN
        outside the candidates survives a guess at every one of them."""
        dep, username = fresh_deployment, "new-pin"
        victim, salt, asked = self.observe_recovery(dep, username, "4821")
        candidates = self.candidates(victim.lhe, salt, asked)
        assert "1397" not in candidates
        with DeterministicEntropy(2):
            victim.backup(b"next secret", pin="1397")
        attacker = dep.new_client(username)
        for guess in candidates:
            with pytest.raises(RecoveryError):
                attacker.recover(pin=guess)
        assert len(victim.audit_my_recovery_attempts()) == 1 + len(candidates)


class TestReplyKeySwappingRelay:
    """A relay between the provider's prover and the HSMs (the provider's
    network) swaps the reply key in each proven decrypt request for its
    own.  The key is in the opening whose commitment the log holds, so each
    swapped request names an entry no device has: every device refuses it
    with its key tree byte-identical (the prover's one re-proof is the
    proof already sent, so no device is asked twice), and the relay reads
    no share."""

    def test_relay_reads_nothing_and_punctures_nothing(self, fresh_deployment):
        dep = fresh_deployment
        username, pin = "relayed-user", "8080"
        relay = ReplyKeySwappingRelay(wire_channels(dep.fleet))
        client = Client(
            username, dep.params, provider_channel(dep.provider),
            proving_channels(
                relay,
                dep.provider.prove_inclusion,
                dep.provider.store_reply,
                dep.provider.backup_share,
            ),
            dep.fleet.master_public_key(),
        )
        with DeterministicEntropy(0x2E1A7):  # a cluster of >= t distinct devices
            client.backup(b"relayed secret", pin=pin)
        ct = dep.provider.fetch_backup(username)
        cluster = set(client.lhe.select(ct.salt, pin))
        assert len(cluster) >= dep.params.threshold
        stores = {i: dict(store._blocks) for i, store in dep.provider.hsm_stores.items()}
        with pytest.raises(RecoveryError):
            client.recover(pin=pin)
        assert relay.refused == len(cluster)
        assert relay.shares == []
        context = client.lhe.context_for(ct.username, ct.salt, client.mpk, pin)
        assert relay.open_backup(client.lhe, ct, context) is None
        assert {i: dict(store._blocks) for i, store in dep.provider.hsm_stores.items()} == stores
        # Nothing was punctured: the same client without the relay recovers.
        direct = dep.new_client(username)
        assert direct.recover(pin=pin) == b"relayed secret"
