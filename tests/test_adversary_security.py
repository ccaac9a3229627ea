"""Security integration tests: the paper's attacks against the real system.

The contrast tests in test_baseline.py show the same attacks *succeeding*
against the status quo.
"""

import random

import pytest

from repro.adversary.attacks import (
    AdaptiveCorruptionAttacker,
    CheatingProvider,
    decrypt_with_stolen_secrets,
)
from repro.core.client import RecoveryError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.log.distributed import LogConfig, LogUpdateRejected

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
