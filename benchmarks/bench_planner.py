"""The paper's billion-user planning numbers (§9.2): Figures 12 and 13 and
Table 14, from one throughput model.

- **Figure 12**: recoveries/year a dollar outlay supports, for SoloKey /
  YubiHSM 2 / SafeNet A700, throughput scaled by the g^x column of Table 2
  with key-rotation duty cycles.  Headline shape: the $20 SoloKey line
  dominates per dollar.
- **Figure 13**: data-center size under 99th-percentile latency targets of
  30 s / 1 min / 5 min / "any finite", as the annual request rate sweeps
  0..1.5B — Poisson arrivals into per-HSM M/M/1 queues, validated against
  the discrete-event simulator.
- **Table 14**: the hardware cost of a billion-user deployment per device,
  plus the storage-cost footnote.

The anchor (the SoloKey outlay for 1B recoveries/year) *is* Table 14's
SoloKey plan, and Figure 13's any-finite fleet at 1B is asserted equal to
it: one fleet, one number.
"""

import random
from fractions import Fraction

from repro.hsm.devices import SAFENET_A700, SOLOKEY, YUBIHSM2
from repro.sim.capacity import (
    HsmThroughputModel,
    build_throughput_model,
    fig12_series,
    plan_deployment,
    storage_cost_per_year,
)
from repro.sim.datacenter import DataCenterSimulator
from repro.sim.queueing import MM1Queue, fig13_series

from reporting import emit, emit_rows

ANNUAL = 1e9
CLUSTER = 40
BUDGETS = [0.25e6, 0.5e6, 1e6, 2e6, 3e6, 4e6, 5e6]
REQUEST_RATES = [0.25e9, 0.5e9, 0.75e9, 1.0e9, 1.25e9, 1.5e9]
SOLO = build_throughput_model(SOLOKEY)


def table14_plans():
    return [
        plan_deployment(SOLOKEY, ANNUAL, throughput=SOLO),
        plan_deployment(YUBIHSM2, ANNUAL),
        plan_deployment(SAFENET_A700, ANNUAL, f_secret=Fraction(1, 20)),
        # The paper's enlarged SafeNet rows: buy more units than the
        # throughput minimum to tolerate more theft.
        plan_deployment(SAFENET_A700, ANNUAL, f_secret=Fraction(1, 32), min_quantity=320),
        plan_deployment(SAFENET_A700, ANNUAL, f_secret=Fraction(1, 16), min_quantity=800),
    ]


def test_fig12_throughput_vs_cost(benchmark):
    series = benchmark(lambda: fig12_series([SOLOKEY, YUBIHSM2, SAFENET_A700], BUDGETS))
    labels = (("solokey", SOLOKEY), ("yubihsm2", YUBIHSM2), ("safenet", SAFENET_A700))
    emit_rows(
        "fig12_throughput_cost",
        "Figure 12: recoveries/year vs HSM outlay",
        [
            ("budget", 10, lambda r: f"${r['budget_usd'] / 1e6:.2f}M"),
            ("SoloKey", 12, lambda r: f"{r['solokey_recoveries_yr'] / 1e9:8.1f}B"),
            ("YubiHSM2", 12, lambda r: f"{r['yubihsm2_recoveries_yr'] / 1e9:8.2f}B"),
            ("SafeNet", 12, lambda r: f"{r['safenet_recoveries_yr'] / 1e9:8.2f}B"),
        ],
        [
            {
                "budget_usd": budget,
                **{f"{label}_recoveries_yr": series[device.name][i][1] for label, device in labels},
            }
            for i, budget in enumerate(BUDGETS)
        ],
        notes=["paper: SoloKey steepest line"],
        metrics={
            f"{label}_recoveries_yr_per_usd": series[device.name][-1][1] / BUDGETS[-1]
            for label, device in labels
        },
    )

    # Paper's ordering: per dollar, SoloKey > YubiHSM2; SoloKey > SafeNet.
    at_5m = {name: dict(points)[5e6] for name, points in series.items()}
    assert at_5m[SOLOKEY.name] > at_5m[YUBIHSM2.name]
    assert at_5m[SOLOKEY.name] > at_5m[SAFENET_A700.name]
    # Lines through the origin: throughput linear in budget.
    solo = dict(series[SOLOKEY.name])
    assert solo[2e6] / solo[1e6] == 2.0


def test_fig12_billion_recovery_budget(benchmark):
    """Anchor: one SoloKey's sustained rate, and the SoloKey fleet (Table
    14's row) that serves 1B recoveries/year (the paper's values:
    BENCH_paper_fidelity.json)."""
    plan = benchmark(lambda: table14_plans()[0])
    metrics = {
        "rotation_h": SOLO.rotation_seconds / 3600,
        "rotation_duty": SOLO.rotation_duty_fraction,
        "jobs_per_hour_per_hsm": SOLO.recoveries_per_hour,
        "solokeys_needed": plan.quantity,
        "budget_usd": plan.hardware_cost_usd,
    }
    emit(
        "fig12_anchor",
        "SoloKey outlay for 1B recoveries/year",
        [
            f"{metrics['jobs_per_hour_per_hsm']:,.1f} jobs/h/HSM, rotating "
            f"{metrics['rotation_h']:.1f} h ({metrics['rotation_duty']:.0%} of its life)",
            f"{plan.quantity:,} SoloKeys = ${plan.hardware_cost_usd / 1e3:,.1f}K",
        ],
        data={"metrics": metrics},
    )


def test_fig13_fleet_sizing(benchmark):
    mu = SOLO.recoveries_per_hour / 3600.0  # jobs/s, all taxes included
    series = benchmark(lambda: fig13_series(mu, CLUSTER, REQUEST_RATES))
    by_constraint = {c: dict(points) for c, points in series}
    emit_rows(
        "fig13_tail_latency",
        "Figure 13: fleet size vs request rate",
        [
            ("req/yr", 10, lambda r: f"{r['requests_per_year'] / 1e9:.2f}B"),
            ("p99<=30s", 10, lambda r: r["hsms_p99_30s"]),
            ("p99<=1min", 11, lambda r: r["hsms_p99_60s"]),
            ("p99<=5min", 11, lambda r: r["hsms_p99_300s"]),
            ("any finite", 12, lambda r: r["hsms_any_finite"]),
        ],
        [
            {
                "requests_per_year": rate,
                "hsms_p99_30s": by_constraint[30.0][rate],
                "hsms_p99_60s": by_constraint[60.0][rate],
                "hsms_p99_300s": by_constraint[300.0][rate],
                "hsms_any_finite": by_constraint[None][rate],
            }
            for rate in REQUEST_RATES
        ],
        notes=["paper: tighter constraints slightly above the any-finite line"],
        metrics={
            "hsms_p99_30s_at_1e9": by_constraint[30.0][1.0e9],
            "hsms_any_finite_at_1e9": by_constraint[None][1.0e9],
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
    # The any-finite fleet at 1B is Table 14's SoloKey plan.
    assert by_constraint[None][ANNUAL] == table14_plans()[0].quantity


def test_fig13_model_vs_simulation(benchmark):
    """Empirical check: the analytic p99 matches discrete-event simulation
    of the fleet as bare M/M/1 queues (one share per job, no rotation, no
    audit tax)."""
    mu, total_rate, fleet = 1.0, 4.0, 8
    analytic = MM1Queue(mu, total_rate / fleet).latency_percentile(0.99)
    queue = HsmThroughputModel(SOLOKEY, 1 / mu, 0.0, 1, log_audit_fraction=0.0)
    simulator = DataCenterSimulator(fleet, 1, 1, queue, rng=random.Random(8))
    simulated = benchmark.pedantic(
        lambda: simulator.run(total_rate, 20000).percentile(0.99), rounds=1, iterations=1
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


def test_table14_deployment_costs(benchmark):
    plans = benchmark(table14_plans)
    storage = storage_cost_per_year(1e9, 4.0)
    solo, yubi, safenet = plans[0], plans[1], plans[2]
    emit_rows(
        "table14_deployment",
        "Table 14: deployment cost for 1B users/year",
        [
            ("device", 16, lambda r: r["device"]),
            ("qty", 9, lambda r: f"{r['quantity']:,}"),
            ("f_secret", 10, lambda r: f"1/{round(1 / r['f_secret'])}"),
            ("N_evil", 8, lambda r: r["tolerated_evil"]),
            ("cost", 12, lambda r: f"${r['hardware_cost_usd'] / 1e3:,.1f}K"),
        ],
        [
            {
                "device": plan.device.name,
                "quantity": plan.quantity,
                "f_secret": float(plan.f_secret),
                "tolerated_evil": plan.tolerated_evil,
                "hardware_cost_usd": plan.hardware_cost_usd,
            }
            for plan in plans
        ],
        notes=[
            f"storage footnote: 4 GB x 1e9 users/yr on S3-IA = ${storage / 1e6:,.0f}M "
            "(paper: $600M) — HSM cost is negligible beside it"
        ],
        metrics={
            "storage_cost_usd_per_year": storage,
            "solokey_qty": solo.quantity,
            "solokey_cost_usd": solo.hardware_cost_usd,
            "yubihsm2_qty": yubi.quantity,
            "yubihsm2_cost_usd": yubi.hardware_cost_usd,
            "safenet_qty": safenet.quantity,
            "safenet_cost_usd": safenet.hardware_cost_usd,
        },
    )

    # The paper's orderings (its quantities: BENCH_paper_fidelity.json):
    assert safenet.quantity < yubi.quantity < solo.quantity  # faster device, fewer units
    assert solo.hardware_cost_usd < yubi.hardware_cost_usd  # cheapest fleet
    assert solo.hardware_cost_usd < safenet.hardware_cost_usd
    assert storage > 100 * yubi.hardware_cost_usd
