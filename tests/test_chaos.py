"""The deterministic chaos harness: scheduler, entropy, engine, replay.

The load-bearing property is that a chaos run is a pure function of
``(scenario, seed)``: same seed twice gives byte-identical event traces,
log digests, and HSM op-count snapshots; different seeds diverge.  On top
of that: quick scenarios must finish with zero invariant violations, the
deliberately-seeded demo fault must fire and round-trip through a replay
file to the identical step, and the entropy hijack must restore every
patched source on exit.
"""

import dataclasses
import os
import random
import secrets

import pytest

from repro.chaos import (
    DEMO_SCENARIO,
    QUICK_SCENARIOS,
    SCENARIOS,
    DeterministicEntropy,
    DeterministicScheduler,
    Scenario,
    run_scenario,
    write_replay,
)
from repro.chaos.replay import ReplayMismatch, load_replay, replay_file


def tiny(name="tiny", **overrides) -> Scenario:
    """A seconds-fast scenario exercising live sessions and maintenance."""
    base = dict(
        name=name,
        description="test scenario",
        horizon=3600.0,
        num_hsms=8,
        cluster_size=4,
        waves=4,
        live_every=60,
        max_live_sessions=3,
        check_points=2,
        rotation_points=1,
    )
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_events_run_in_time_order_with_deterministic_ties(self):
        sched = DeterministicScheduler(1)
        seen = []
        sched.at(5.0, "b", lambda: seen.append("b"))
        sched.at(1.0, "a", lambda: seen.append("a"))
        sched.at(5.0, "c", lambda: seen.append("c"))  # tie: scheduling order
        assert sched.run() == 3
        assert seen == ["a", "b", "c"]
        assert sched.now == 5.0
        assert sched.step == 3

    def test_events_can_schedule_events_and_clamp_to_now(self):
        sched = DeterministicScheduler(1)

        def first():
            sched.at(0.0, "late", lambda: "ran")  # in the past: clamps to now
            return "spawned"

        sched.at(2.0, "first", first)
        assert sched.run() == 2
        assert sched.now == 2.0

    def test_trace_digest_is_seed_stable_and_detail_sensitive(self):
        def build(seed, detail):
            sched = DeterministicScheduler(seed)
            sched.at(1.0, "evt", lambda: detail)
            sched.run()
            return sched.trace_digest()

        assert build(7, "x") == build(7, "x")
        assert build(7, "x") != build(7, "y")

    def test_substreams_are_independent_and_labelled(self):
        sched = DeterministicScheduler(3)
        a1 = sched.substream("alpha").random()
        a2 = sched.substream("alpha").random()
        b = sched.substream("beta").random()
        assert a1 == a2
        assert a1 != b

    def test_max_steps_bounds_execution(self):
        sched = DeterministicScheduler(1)
        for i in range(10):
            sched.at(float(i), "tick", lambda: None)
        assert sched.run(max_steps=4) == 4
        assert sched.step == 4


# ---------------------------------------------------------------------------
# Entropy hijack
# ---------------------------------------------------------------------------
class TestDeterministicEntropy:
    def test_seeded_sources_are_reproducible(self):
        with DeterministicEntropy(11):
            draws_a = (
                os.urandom(8),
                secrets.token_bytes(16),
                secrets.token_hex(4),
                random.SystemRandom().getrandbits(64),
            )
        with DeterministicEntropy(11):
            draws_b = (
                os.urandom(8),
                secrets.token_bytes(16),
                secrets.token_hex(4),
                random.SystemRandom().getrandbits(64),
            )
        with DeterministicEntropy(12):
            draws_c = (
                os.urandom(8),
                secrets.token_bytes(16),
                secrets.token_hex(4),
                random.SystemRandom().getrandbits(64),
            )
        assert draws_a == draws_b
        assert draws_a != draws_c

    def test_everything_restored_on_exit(self):
        originals = (os.urandom, secrets.token_bytes, secrets.token_hex)
        state = random.getstate()
        with DeterministicEntropy(1):
            assert os.urandom is not originals[0]
        assert (os.urandom, secrets.token_bytes, secrets.token_hex) == originals
        assert random.getstate() == state

    def test_restores_even_when_the_body_raises(self):
        original = os.urandom
        with pytest.raises(RuntimeError, match="boom"):
            with DeterministicEntropy(1):
                raise RuntimeError("boom")
        assert os.urandom is original

    def test_nesting_refused(self):
        with DeterministicEntropy(1):
            with pytest.raises(RuntimeError, match="nest"):
                with DeterministicEntropy(2):
                    pass  # pragma: no cover


# ---------------------------------------------------------------------------
# Scenario catalog
# ---------------------------------------------------------------------------
class TestScenarios:
    def test_catalog_invariants(self):
        assert set(QUICK_SCENARIOS) <= set(SCENARIOS)
        assert DEMO_SCENARIO.name not in SCENARIOS
        for scenario in SCENARIOS.values():
            assert scenario.description

    def test_quick_preserves_deliberate_zero_rotations(self):
        assert SCENARIOS["kill_mid_epoch"].rotation_points == 0
        assert SCENARIOS["kill_mid_epoch"].quick().rotation_points == 0
        assert SCENARIOS["baseline_diurnal"].quick().rotation_points >= 2

    def test_crash_points_require_durability(self):
        with pytest.raises(ValueError, match="durable"):
            tiny(crash_at=(0.5,))
        with pytest.raises(ValueError, match="crashing_store"):
            tiny(durable=True, mid_epoch_crash_at=0.5)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_shard_count_below_one_is_refused(self, shards):
        """A scenario must run the deployment it reports: no shard count
        below one slips through to a silently unsharded log."""
        with pytest.raises(ValueError, match="shard count"):
            dataclasses.replace(SCENARIOS["baseline_diurnal"], shards=shards)


# ---------------------------------------------------------------------------
# Engine: determinism (the tentpole property)
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_is_bit_identical_different_seed_diverges(self):
        scenario = tiny(device_loss=((0.4, 2, 0.3),))
        a = run_scenario(scenario, 21)
        b = run_scenario(scenario, 21)
        c = run_scenario(scenario, 22)
        # Byte-identical event trace, not just matching digests.
        assert a.trace == b.trace
        assert a.trace_digest == b.trace_digest
        assert a.final_log_digest == b.final_log_digest
        assert a.op_counts == b.op_counts
        assert a.counters == b.counters
        assert c.trace_digest != a.trace_digest

    def test_run_is_isolated_from_ambient_rng_state(self):
        scenario = tiny()
        a = run_scenario(scenario, 9)
        random.seed(424242)  # perturb global state between runs
        os.environ["PYTHONHASHSEED"] = os.environ.get("PYTHONHASHSEED", "")
        b = run_scenario(scenario, 9)
        assert a.trace == b.trace


# ---------------------------------------------------------------------------
# Engine: behaviour under faults
# ---------------------------------------------------------------------------
class TestEngineBehaviour:
    def test_quick_baseline_runs_clean_and_recovers(self):
        report = run_scenario(SCENARIOS["baseline_diurnal"], 7, quick=True)
        assert report.ok
        assert report.counters.get("recovered", 0) > 0
        assert report.modeled_arrivals > 500
        assert report.modeled_p50 <= report.modeled_p99

    def test_total_partition_fails_clean_and_drops_modeled_jobs(self):
        scenario = tiny(partitions=((0.0, 1.0, 1.0),), rotation_points=0)
        report = run_scenario(scenario, 5)
        assert report.ok  # liveness loss is NOT a safety violation
        assert report.counters.get("recovered", 0) == 0
        assert report.counters.get("modeled-dropped", 0) > 0

    def test_mid_epoch_crash_restores_and_keeps_serving(self):
        report = run_scenario(SCENARIOS["kill_mid_epoch"], 7, quick=True)
        assert report.ok
        assert report.counters.get("crash-restores", 0) >= 1
        assert report.counters.get("recovered", 0) > 0

    def test_adversary_is_blocked(self):
        scenario = tiny(adversary_at=(0.5,), max_live_sessions=1)
        report = run_scenario(scenario, 13)
        assert report.ok
        assert report.counters.get("adversaries-blocked") == 1


# ---------------------------------------------------------------------------
# Demo fault -> replay file -> exact re-execution
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def demo_report():
    """One demo run shared by the replay tests (each re-execution inside
    them is itself a fresh run, so sharing the original loses nothing)."""
    return run_scenario(DEMO_SCENARIO, 5)


class TestReplay:
    def test_demo_violation_round_trips_exactly(self, demo_report, tmp_path):
        report = demo_report
        assert not report.ok
        assert report.violations[0].invariant == "log-digest-chain"
        path = str(tmp_path / "replay.json")
        record = write_replay(report, path)
        assert load_replay(path) == record
        replayed = replay_file(path)
        assert replayed.violations[0].step == report.violations[0].step
        assert replayed.trace_digest == report.trace_digest

    def test_tampered_replay_file_is_caught(self, demo_report, tmp_path):
        path = str(tmp_path / "replay.json")
        record = write_replay(demo_report, path)
        import json

        record["violation_step"] += 1  # claim the wrong step
        with open(path, "w") as fh:
            json.dump(record, fh)
        with pytest.raises(ReplayMismatch, match="diverged"):
            replay_file(path)

    def test_clean_report_refuses_to_write_a_replay(self, tmp_path):
        report = run_scenario(tiny(), 3)
        assert report.ok
        with pytest.raises(ValueError, match="no violations"):
            write_replay(report, str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# Fault injectors (repro.sim.faults)
# ---------------------------------------------------------------------------
class TestFaultsPromotion:
    def test_flaky_transport_schedule_is_seed_pinned(self):
        from repro.sim.faults import FlakyTransport

        def schedule(seed):
            transport = FlakyTransport(lambda b: b, seed=seed, ok_weight=2)
            modes = []
            for _ in range(30):
                try:
                    transport(b"payload")
                    modes.append("ok-ish")
                except Exception as exc:  # noqa: BLE001 - recording fault types
                    modes.append(type(exc).__name__)
            return modes

        assert schedule(99) == schedule(99)
        assert schedule(99) != schedule(100)
