"""Figure 13: data-center size vs request rate under p99 latency targets.

The paper models Poisson arrivals into per-HSM M/M/1 queues and asks: how
many HSMs are needed to hold 99th-percentile recovery latency under 30 s /
1 min / 5 min / "any finite", as the annual request rate sweeps 0..1.5B?

We regenerate the four curves with the same model (service rates from the
Table 7-calibrated throughput model) and validate the closed form against a
discrete-event simulation.
"""

import random

from repro.hsm.devices import SOLOKEY
from repro.sim.capacity import build_throughput_model
from repro.sim.queueing import MM1Queue, fig13_series
from repro.sim.workload import simulate_fleet_p99

from reporting import emit, table

REQUEST_RATES = [0.25e9, 0.5e9, 0.75e9, 1.0e9, 1.25e9, 1.5e9]
CLUSTER = 40


def test_fig13_fleet_sizing(benchmark):
    throughput = build_throughput_model(SOLOKEY)
    mu = throughput.recoveries_per_hour / 3600.0  # jobs/s, all taxes included

    series = benchmark(
        lambda: fig13_series(mu, CLUSTER, REQUEST_RATES)
    )
    by_constraint = {c: dict(points) for c, points in series}

    rows = []
    for rate in REQUEST_RATES:
        rows.append(
            (
                f"{rate / 1e9:.2f}B",
                by_constraint[30.0][rate],
                by_constraint[60.0][rate],
                by_constraint[300.0][rate],
                by_constraint[None][rate],
            )
        )
    lines = table(
        ("req/yr", "p99<=30s", "p99<=1min", "p99<=5min", "any finite"),
        rows,
        (10, 10, 11, 11, 12),
    )
    lines.append("")
    lines.append("paper: tighter constraints slightly above the any-finite line")
    emit(
        "fig13_tail_latency",
        "Figure 13: fleet size vs request rate",
        lines,
        data={
            "results": [
                {
                    "requests_per_year": rate,
                    "hsms_p99_30s": by_constraint[30.0][rate],
                    "hsms_p99_60s": by_constraint[60.0][rate],
                    "hsms_p99_300s": by_constraint[300.0][rate],
                    "hsms_any_finite": by_constraint[None][rate],
                }
                for rate in REQUEST_RATES
            ],
            "metrics": {
                "hsms_p99_30s_at_1e9": by_constraint[30.0][1.0e9],
                "hsms_any_finite_at_1e9": by_constraint[None][1.0e9],
            },
        },
    )

    # Shape: every curve monotone in load; stricter constraint >= looser.
    for constraint, points in series:
        sizes = [n for _, n in points]
        assert sizes == sorted(sizes)
    for rate in REQUEST_RATES:
        assert (
            by_constraint[30.0][rate]
            >= by_constraint[60.0][rate]
            >= by_constraint[300.0][rate]
            >= by_constraint[None][rate]
        )


def test_fig13_model_vs_simulation(benchmark):
    """Empirical check: the analytic p99 matches discrete-event simulation."""
    mu, total_rate, fleet = 1.0, 4.0, 8
    analytic = MM1Queue(mu, total_rate / fleet).latency_percentile(0.99)
    simulated = benchmark.pedantic(
        lambda: simulate_fleet_p99(total_rate, mu, fleet, num_jobs=20000, rng=random.Random(8)),
        rounds=1,
        iterations=1,
    )
    emit(
        "fig13_validation",
        "M/M/1 closed form vs discrete-event simulation (p99)",
        [f"analytic: {analytic:.2f} s   simulated: {simulated:.2f} s"],
        data={
            "metrics": {"analytic_p99_s": analytic, "simulated_p99_s": simulated}
        },
    )
    assert abs(simulated - analytic) / analytic < 0.35
