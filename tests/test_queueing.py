"""M/M/1 queueing model and fleet sizing (Figure 13)."""

import math

import pytest

from repro.sim.queueing import MM1Queue, fig13_series, min_fleet_for_latency


class TestMM1:
    def test_utilization_and_stability(self):
        q = MM1Queue(service_rate=2.0, arrival_rate=1.0)
        assert q.utilization == 0.5
        assert q.stable

    def test_unstable_queue_infinite_latency(self):
        q = MM1Queue(service_rate=1.0, arrival_rate=2.0)
        assert not q.stable
        assert math.isinf(q.latency_percentile(0.99))
        assert math.isinf(q.mean_latency())

    def test_p99_formula(self):
        q = MM1Queue(service_rate=2.0, arrival_rate=1.0)
        assert q.latency_percentile(0.99) == pytest.approx(-math.log(0.01) / 1.0)

    def test_mean_latency(self):
        q = MM1Queue(service_rate=3.0, arrival_rate=1.0)
        assert q.mean_latency() == pytest.approx(0.5)

    def test_percentile_validation(self):
        q = MM1Queue(service_rate=1.0, arrival_rate=0.5)
        with pytest.raises(ValueError):
            q.latency_percentile(1.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MM1Queue(service_rate=0, arrival_rate=1)
        with pytest.raises(ValueError):
            MM1Queue(service_rate=1, arrival_rate=-1)


class TestFleetSizing:
    def test_latency_constraint_met(self):
        mu = 0.4177  # the paper's 1,503.9 recoveries/hour
        n = min_fleet_for_latency(100.0, mu, 30.0)
        per_queue = 100.0 / n
        assert MM1Queue(mu, per_queue).latency_percentile(0.99) <= 30.0
        # minimality: one fewer HSM violates the constraint
        if n > 1:
            per_queue = 100.0 / (n - 1)
            assert MM1Queue(mu, per_queue).latency_percentile(0.99) > 30.0

    def test_tighter_constraint_needs_more_hsms(self):
        mu = 0.4
        sizes = [min_fleet_for_latency(50.0, mu, c) for c in (300.0, 60.0, 30.0)]
        assert sizes == sorted(sizes)

    def test_infinite_constraint_is_stability(self):
        n = min_fleet_for_latency(10.0, 1.0, None)
        assert n == 11  # just above λ/μ

    def test_unreachable_constraint(self):
        with pytest.raises(ValueError):
            min_fleet_for_latency(1.0, 0.1, 1.0)  # p99 of service alone > 1s

    def test_zero_load(self):
        assert min_fleet_for_latency(0.0, 1.0, 30.0) == 1


class TestFig13Series:
    def test_shape(self):
        series = fig13_series(
            per_hsm_service_rate=0.4177,
            jobs_per_recovery=40,
            requests_per_year=[0.5e9, 1e9, 1.5e9],
        )
        assert len(series) == 4  # 30s / 1m / 5m / infinite
        for _, points in series:
            sizes = [n for _, n in points]
            assert sizes == sorted(sizes)  # more load, more HSMs
        # stricter constraints sit above looser ones at equal load
        strict = dict(series[0][1])
        loose = dict(series[2][1])
        infinite = dict(series[3][1])
        for load in strict:
            assert strict[load] >= loose[load] >= infinite[load]
