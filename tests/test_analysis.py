"""The paper's quantitative bounds (§6.2, Theorems 9/10, Lemma 8)."""

import math
from fractions import Fraction

import pytest

from repro.analysis.bounds import (
    audit_failure_probability,
    correctness_failure_bound,
    correctness_failure_exact,
    cover_probability_bound,
    minimum_cluster_size,
    remark5_attack_advantage,
    security_advantage_bound,
    security_loss_bits,
    theorem10_preconditions_ok,
)


class TestAuditBound:
    def test_paper_value(self):
        """§6.2: f=1/16, C=128 gives exp(-7/8 · 128) = e^-112 < 2^-128."""
        p = audit_failure_probability(Fraction(1, 16), 128)
        assert p < 2**-128

    def test_monotone_in_audit_count(self):
        assert audit_failure_probability(0.1, 64) > audit_failure_probability(0.1, 128)

    def test_monotone_in_corruption(self):
        assert audit_failure_probability(0.05, 64) < audit_failure_probability(0.2, 64)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            audit_failure_probability(0.6, 64)


class TestCorrectness:
    def test_theorem9_bound_at_paper_params(self):
        """n = 40, f_live = 1/64: failure < 2^-n/2 = 2^-20."""
        assert correctness_failure_bound(40, Fraction(1, 64)) < 2**-20

    def test_exact_below_bound(self):
        exact = correctness_failure_exact(40, 20, Fraction(1, 64))
        bound = correctness_failure_bound(40, Fraction(1, 64))
        assert exact <= bound

    def test_exact_is_tiny_at_paper_params(self):
        assert correctness_failure_exact(40, 20, Fraction(1, 64)) < 1e-20

    def test_higher_failure_rate_hurts(self):
        assert correctness_failure_exact(40, 20, 0.3) > correctness_failure_exact(
            40, 20, 0.01
        )

    def test_threshold_one_never_fails_unless_all_do(self):
        assert correctness_failure_exact(4, 1, 0.5) == pytest.approx(0.5**4)


class TestLemma8:
    def test_preconditions_paper(self):
        assert theorem10_preconditions_ok(3100, 40, 10**6)

    def test_preconditions_reject_small_fleet(self):
        assert not theorem10_preconditions_ok(100, 40, 10**6 * 100)

    def test_preconditions_reject_tiny_cluster(self):
        # 6-digit pins with n = 20: |P| > 2^10.
        assert not theorem10_preconditions_ok(3100, 20, 10**6)

    def test_cover_bound_small_when_preconditions_hold(self):
        log2_bound = cover_probability_bound(3100, 40, 10**6)
        assert log2_bound <= -3100 / 4


class TestTheorem10:
    def test_paper_advantage_dominated_by_location_term(self):
        adv = security_advantage_bound(3100, 40, 10**6)
        location_term = 3 * 3100 / (40 * 10**6)
        assert adv == pytest.approx(location_term, rel=0.01)

    def test_advantage_close_to_generic_attack(self):
        """Theorem 10 is tight against Remark 5 up to the constant 3/f."""
        upper = security_advantage_bound(3100, 40, 10**6)
        lower = remark5_attack_advantage(3100, 40, 10**6)
        assert lower < upper < lower * 50

    def test_security_loss_bits_shape(self):
        losses = [security_loss_bits(3100, n) for n in (40, 60, 80, 100)]
        assert losses == sorted(losses, reverse=True)
        # one cluster-size doubling = exactly one bit
        assert security_loss_bits(3100, 40) - security_loss_bits(3100, 80) == pytest.approx(1.0)

    def test_figure11_annotations_at_n1500(self):
        """The figure's printed values are log2(3N/n) at N=1,500, not at
        the deployment's 3,100 (which gives 7.86 and 6.54)."""
        assert security_loss_bits(1500, 40) == pytest.approx(6.81, abs=0.01)
        assert security_loss_bits(1500, 100) == pytest.approx(5.49, abs=0.01)


class TestParameterSelection:
    def test_six_digit_pins_need_n40(self):
        assert minimum_cluster_size(10**6) == 40

    def test_four_digit_pins(self):
        assert minimum_cluster_size(10**4) == 28  # 2*ceil(13.28)

    def test_trivial_pin_space(self):
        assert minimum_cluster_size(1) == 2
