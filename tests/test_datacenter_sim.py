"""Discrete-event data-center simulator vs the analytic models."""

import random

import pytest

from repro.sim.capacity import HsmThroughputModel
from repro.hsm.devices import SOLOKEY
from repro.sim.datacenter import DataCenterSimulator
from repro.sim.queueing import MM1Queue


def fast_model(service_seconds=0.1, rotation_seconds=50.0, punctures=1000, log_audit_fraction=0.11):
    return HsmThroughputModel(
        device=SOLOKEY,
        decrypt_puncture_seconds=service_seconds,
        rotation_seconds=rotation_seconds,
        punctures_before_rotation=punctures,
        log_audit_fraction=log_audit_fraction,
    )


class TestPercentileConvention:
    """Pins the ceil-rank percentile convention (regression: the old
    ``int(p * n)`` index over-shot by one rank, so p99 of 100 samples
    returned the max instead of the 99th-smallest)."""

    def test_known_list_pins_p50_p99(self):
        from repro.sim.workload import percentile

        samples = list(range(1, 101))  # 1..100, already a permutation-proof set
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.99) == 99  # NOT 100: ceil-rank, not index
        assert percentile(samples, 1.00) == 100
        assert percentile(samples, 0.01) == 1

    def test_small_list_and_edges(self):
        import math

        from repro.sim.workload import percentile

        assert percentile([40.0, 10.0, 30.0, 20.0], 0.50) == 20.0
        assert percentile([40.0, 10.0, 30.0, 20.0], 0.99) == 40.0
        assert percentile([7.0], 0.99) == 7.0
        assert math.isnan(percentile([], 0.5))

    def test_simresult_delegates_to_shared_convention(self):
        from repro.sim.datacenter import SimResult

        result = SimResult(
            completed_jobs=100,
            latencies=[float(v) for v in range(1, 101)],
            busy_fraction=0.0,
            rotating_fraction=0.0,
            rotations=0,
        )
        assert result.percentile(0.99) == 99.0
        assert result.percentile(0.50) == 50.0


class TestBasics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DataCenterSimulator(4, 5, 2, fast_model())
        with pytest.raises(ValueError):
            DataCenterSimulator(4, 3, 4, fast_model())

    def test_all_jobs_complete(self):
        sim = DataCenterSimulator(8, 3, 2, fast_model(), rng=random.Random(1))
        result = sim.run(arrival_rate=1.0, num_jobs=500)
        assert result.completed_jobs == 500
        assert len(result.latencies) == 500
        assert all(l > 0 for l in result.latencies)

    def test_latency_floor_is_service_time(self):
        """Even an idle fleet needs ~one service time per share."""
        sim = DataCenterSimulator(16, 3, 2, fast_model(0.1), rng=random.Random(2))
        result = sim.run(arrival_rate=0.01, num_jobs=200)
        assert result.mean_latency >= 0.05

    def test_percentiles_ordered(self):
        sim = DataCenterSimulator(8, 3, 2, fast_model(), rng=random.Random(3))
        result = sim.run(arrival_rate=2.0, num_jobs=1000)
        assert result.percentile(0.5) <= result.percentile(0.9) <= result.percentile(0.99)


class TestAgainstAnalyticModels:
    def test_light_load_matches_mm1(self):
        """At light load with t=n=1 the fleet is N independent M/M/1 queues;
        mean and p99 latency must match the closed form within noise."""
        service = 0.2
        model = fast_model(service, rotation_seconds=0.0, punctures=10**9, log_audit_fraction=0.0)
        sim = DataCenterSimulator(4, 1, 1, model, rng=random.Random(4))
        total_rate = 4 * 2.0  # per-queue λ=2, μ=5 -> mean sojourn 1/3 s
        result = sim.run(arrival_rate=total_rate, num_jobs=20_000)
        queue = MM1Queue(1 / service, 2.0)
        assert result.mean_latency == pytest.approx(queue.mean_latency(), rel=0.2)
        assert result.percentile(0.99) == pytest.approx(queue.latency_percentile(0.99), rel=0.15)

    def test_occupancy_is_the_offered_load(self):
        """Serving and rotating fill the share of the fleet's time the
        closed form says the load takes: a job pays its log-audit share."""
        model = fast_model(0.3, rotation_seconds=60.0, punctures=500)
        sim = DataCenterSimulator(20, 4, 2, model, rng=random.Random(12))
        result = sim.run(arrival_rate=0.6 * sim.max_stable_rate(), num_jobs=20_000)
        assert result.busy_fraction + result.rotating_fraction == pytest.approx(0.6, abs=0.03)

    def test_threshold_beats_waiting_for_all(self):
        """t-of-n completion is faster than waiting for all n shares —
        the fault-tolerance design also buys tail latency."""
        kwargs = dict(rng=random.Random(5))
        need_half = DataCenterSimulator(16, 4, 2, fast_model(), **kwargs)
        r_half = need_half.run(arrival_rate=4.0, num_jobs=3000)
        kwargs = dict(rng=random.Random(5))
        need_all = DataCenterSimulator(16, 4, 4, fast_model(), **kwargs)
        r_all = need_all.run(arrival_rate=4.0, num_jobs=3000)
        assert r_half.mean_latency < r_all.mean_latency

    def test_rotation_consumes_duty_cycle(self):
        """With wear-triggered rotation enabled, devices spend a visible
        fraction of time rotating, approaching the capacity model's duty."""
        model = fast_model(service_seconds=0.05, rotation_seconds=20.0, punctures=100)
        sim = DataCenterSimulator(4, 2, 1, model, rng=random.Random(6))
        result = sim.run(arrival_rate=8.0, num_jobs=5000)
        assert result.rotations > 0
        assert result.rotating_fraction > 0.05

    def test_overload_latency_explodes(self):
        sim_ok = DataCenterSimulator(8, 2, 1, fast_model(0.1), rng=random.Random(7))
        stable = sim_ok.run(arrival_rate=0.5 * sim_ok.max_stable_rate(), num_jobs=2000)
        sim_bad = DataCenterSimulator(8, 2, 1, fast_model(0.1), rng=random.Random(7))
        overloaded = sim_bad.run(arrival_rate=3.0 * sim_bad.max_stable_rate(), num_jobs=2000)
        assert overloaded.percentile(0.99) > 5 * stable.percentile(0.99)
