"""Table 14: hardware cost of a billion-user SafetyPin deployment.

Regenerates each row (device, quantity, f_secret, tolerated evil HSMs,
hardware cost) plus the storage-cost footnote, using the throughput model
calibrated on Tables 2/7.
"""

from fractions import Fraction

from repro.hsm.devices import SAFENET_A700, SOLOKEY, YUBIHSM2
from repro.sim.capacity import plan_deployment, storage_cost_per_year

from reporting import emit, table

ANNUAL = 1e9


def test_table14_deployment_costs(benchmark):
    plans = benchmark(
        lambda: [
            plan_deployment(SOLOKEY, ANNUAL),
            plan_deployment(YUBIHSM2, ANNUAL),
            plan_deployment(SAFENET_A700, ANNUAL, f_secret=Fraction(1, 20)),
            # The paper's enlarged SafeNet rows: buy more units than the
            # throughput minimum to tolerate more theft.
            plan_deployment(
                SAFENET_A700, ANNUAL, f_secret=Fraction(1, 32), min_quantity=320
            ),
            plan_deployment(
                SAFENET_A700, ANNUAL, f_secret=Fraction(1, 16), min_quantity=800
            ),
        ]
    )

    rows = []
    for plan in plans:
        rows.append(
            (
                plan.device.name,
                f"{plan.quantity:,}",
                f"1/{int(1 / plan.f_secret)}",
                plan.tolerated_evil,
                f"${plan.hardware_cost_usd / 1e3:,.1f}K",
            )
        )
    lines = table(("device", "qty", "f_secret", "N_evil", "cost"), rows, (16, 9, 10, 8, 12))
    storage = storage_cost_per_year(1e9, 4.0)
    solo, yubi, safenet = plans[0], plans[1], plans[2]
    lines.append("")
    lines.append(
        f"storage footnote: 4 GB x 1e9 users/yr on S3-IA = ${storage / 1e6:,.0f}M "
        "(paper: $600M) — HSM cost is negligible beside it"
    )
    emit(
        "table14_deployment",
        "Table 14: deployment cost for 1B users/year",
        lines,
        data={
            "results": [
                {
                    "device": plan.device.name,
                    "quantity": plan.quantity,
                    "f_secret": float(plan.f_secret),
                    "tolerated_evil": plan.tolerated_evil,
                    "hardware_cost_usd": plan.hardware_cost_usd,
                }
                for plan in plans
            ],
            "metrics": {
                "storage_cost_usd_per_year": storage,
                "solokey_qty": solo.quantity,
                "solokey_cost_usd": solo.hardware_cost_usd,
                "yubihsm2_qty": yubi.quantity,
                "yubihsm2_cost_usd": yubi.hardware_cost_usd,
                "safenet_qty": safenet.quantity,
                "safenet_cost_usd": safenet.hardware_cost_usd,
            },
        },
    )

    # The paper's orderings (its quantities: BENCH_paper_fidelity.json):
    assert safenet.quantity < yubi.quantity < solo.quantity  # faster device, fewer units
    assert solo.hardware_cost_usd < yubi.hardware_cost_usd  # cheapest fleet
    assert solo.hardware_cost_usd < safenet.hardware_cost_usd
    assert storage > 100 * yubi.hardware_cost_usd
