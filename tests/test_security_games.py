"""Appendix A's experiments, measured and compared to the theorems."""

import math
import random

import pytest

from repro.adversary.games import (
    GameParams,
    Remark5Adversary,
    challenger_keys,
    correctness_experiment,
    estimate_advantage,
    estimate_correctness_failure,
    security_experiment,
)
from repro.analysis.bounds import correctness_failure_exact
from repro.core import wire


class TestExperiment2Correctness:
    def test_no_failures_always_succeeds(self):
        params = GameParams(f_live=0.0)
        rng = random.Random(1)
        keys = challenger_keys(params, rng)
        assert all(
            correctness_experiment(params, keys, "5", b"m", rng) for _ in range(10)
        )

    def test_all_failed_always_fails(self):
        params = GameParams(f_live=1.0)
        rng = random.Random(2)
        keys = challenger_keys(params, rng)
        assert not any(
            correctness_experiment(params, keys, "5", b"m", rng) for _ in range(5)
        )

    def test_empirical_failure_matches_binomial(self):
        """Measured Experiment 2 failure rate vs the exact binomial tail.

        The game's failure mechanics are slightly *harsher* than the bound's
        model (cluster sampling is with replacement, so a failed HSM can
        absorb two share slots), so we check agreement within generous
        statistical tolerance, plus the harsher-side ordering.
        """
        params = GameParams(
            num_hsms=16, cluster_size=4, threshold=2, f_live=0.4
        )
        trials = 400
        measured = estimate_correctness_failure(params, trials, seed=3)
        exact = correctness_failure_exact(
            params.cluster_size, params.threshold, params.f_live
        )
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert measured <= exact + 5 * sigma + 0.08
        assert measured >= exact - 5 * sigma - 0.02

    def test_failure_monotone_in_flive(self):
        low = estimate_correctness_failure(GameParams(f_live=0.1), 150, seed=4)
        high = estimate_correctness_failure(GameParams(f_live=0.6), 150, seed=4)
        assert high > low


class TestExperiment4Security:
    def test_budget_enforced_by_challenger(self):
        class GreedyAdversary:
            def play(self, params, lhe, publics, salt, ct, m0, m1, corrupt, rng):
                for i in range(params.num_hsms):
                    corrupt(i)  # blows the budget
                return 0

        rng = random.Random(5)
        keys = challenger_keys(GameParams(), rng)
        with pytest.raises(RuntimeError):
            security_experiment(GameParams(), keys, GreedyAdversary(), 0, rng)

    def test_challenge_is_the_ciphertext_devices_decrypt(self):
        """The challenge has the recovery-ciphertext wire format: the games
        play the scheme the HSMs run, not an instantiation no device sees."""

        class WireAdversary:
            def play(self, params, lhe, publics, salt, ct, m0, m1, corrupt, rng):
                blob = wire.encode_recovery_ciphertext(ct)
                assert wire.decode_recovery_ciphertext(blob) == ct
                return 0

        rng = random.Random(9)
        keys = challenger_keys(GameParams(), rng)
        assert security_experiment(GameParams(), keys, WireAdversary(), 1, rng) == 0

    def test_full_budget_adversary_wins_sometimes(self):
        """With f_secret large enough to cover several PINs' clusters, the
        Remark 5 attack must achieve a clearly nonzero advantage — the
        scheme is exactly as strong as the analysis says, no stronger."""
        params = GameParams(
            num_hsms=12, cluster_size=3, threshold=2, pin_digits=1, f_secret=0.75
        )
        advantage = estimate_advantage(params, Remark5Adversary(), trials=60, seed=6)
        assert advantage > 0.15

    def test_small_budget_adversary_near_zero_advantage(self):
        """With a budget below one cluster the adversary can decrypt nothing
        and its advantage is statistical noise around zero."""
        params = GameParams(
            num_hsms=16, cluster_size=5, threshold=3, pin_digits=2, f_secret=0.1
        )
        advantage = estimate_advantage(params, Remark5Adversary(), trials=60, seed=7)
        assert advantage < 0.25  # ~N(0, 1/sqrt(30)) noise band

    def test_advantage_grows_with_budget(self):
        base = GameParams(num_hsms=12, cluster_size=3, threshold=2, pin_digits=1)
        small = estimate_advantage(
            GameParams(**{**base.__dict__, "f_secret": 0.1}),
            Remark5Adversary(),
            trials=60,
            seed=8,
        )
        large = estimate_advantage(
            GameParams(**{**base.__dict__, "f_secret": 0.9}),
            Remark5Adversary(),
            trials=60,
            seed=8,
        )
        assert large >= small
