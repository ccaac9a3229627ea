"""Figure 12: recoveries/year supported vs hardware outlay per device type.

The paper plots, for SoloKey / YubiHSM 2 / SafeNet A700, how many
SafetyPin-protected recoveries per year a given dollar outlay supports,
scaling throughput by the g^x column of Table 2 and accounting for
key-rotation duty cycles.  Headline shape: the $20 SoloKey line dominates
per dollar; ~$60K of SoloKeys already serves 1B recoveries/year.
"""

from repro.hsm.devices import SAFENET_A700, SOLOKEY, YUBIHSM2
from repro.sim.capacity import build_throughput_model, fig12_series, recoveries_per_year

from reporting import emit, table

BUDGETS = [0.25e6, 0.5e6, 1e6, 2e6, 3e6, 4e6, 5e6]


def test_fig12_throughput_vs_cost(benchmark):
    series = benchmark(lambda: fig12_series([SOLOKEY, YUBIHSM2, SAFENET_A700], BUDGETS))

    rows = []
    for i, budget in enumerate(BUDGETS):
        rows.append(
            (
                f"${budget / 1e6:.2f}M",
                f"{series[SOLOKEY.name][i][1] / 1e9:8.1f}B",
                f"{series[YUBIHSM2.name][i][1] / 1e9:8.2f}B",
                f"{series[SAFENET_A700.name][i][1] / 1e9:8.2f}B",
            )
        )
    lines = table(
        ("budget", "SoloKey", "YubiHSM2", "SafeNet"), rows, (10, 12, 12, 12)
    )
    lines.append("")
    lines.append("paper: SoloKey steepest line")
    emit(
        "fig12_throughput_cost",
        "Figure 12: recoveries/year vs HSM outlay",
        lines,
        data={
            "results": [
                {
                    "budget_usd": budget,
                    "solokey_recoveries_yr": series[SOLOKEY.name][i][1],
                    "yubihsm2_recoveries_yr": series[YUBIHSM2.name][i][1],
                    "safenet_recoveries_yr": series[SAFENET_A700.name][i][1],
                }
                for i, budget in enumerate(BUDGETS)
            ],
            "metrics": {
                f"{label}_recoveries_yr_per_usd": series[device.name][-1][1] / BUDGETS[-1]
                for label, device in
                (("solokey", SOLOKEY), ("yubihsm2", YUBIHSM2), ("safenet", SAFENET_A700))
            },
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
    """Anchor: one SoloKey's sustained rate, and the dollar outlay at which
    SoloKeys reach 1B/year (the paper's values: BENCH_paper_fidelity.json)."""
    throughput = benchmark(lambda: build_throughput_model(SOLOKEY))
    needed = 1e9 / recoveries_per_year(1, 40, throughput)
    budget = needed * SOLOKEY.price_usd
    metrics = {
        "rotation_h": throughput.rotation_seconds / 3600,
        "rotation_duty": throughput.rotation_duty_fraction,
        "jobs_per_hour_per_hsm": throughput.recoveries_per_hour,
        "solokeys_needed": needed,
        "budget_usd": budget,
    }
    emit(
        "fig12_anchor",
        "SoloKey outlay for 1B recoveries/year",
        [
            f"{metrics['jobs_per_hour_per_hsm']:,.1f} jobs/h/HSM, rotating "
            f"{metrics['rotation_h']:.1f} h ({metrics['rotation_duty']:.0%} of its life)",
            f"{needed:,.0f} SoloKeys = ${budget / 1e3:,.1f}K",
        ],
        data={"metrics": metrics},
    )
