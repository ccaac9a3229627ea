#!/usr/bin/env python3
"""Deployment planning: size a SafetyPin fleet for a real user population.

Uses the same models as the paper's §9.2: the Table 7-calibrated cost model
for per-HSM service times, key-rotation duty cycles, M/M/1 tail-latency
sizing (Figure 13), and dollar costing (Figure 12 / Table 14).

Run:  python examples/capacity_planning.py
"""

from repro.analysis.bounds import (
    correctness_failure_exact,
    minimum_cluster_size,
    security_loss_bits,
)
from repro.hsm.devices import SAFENET_A700, SOLOKEY, YUBIHSM2
from repro.sim.capacity import (
    build_throughput_model,
    plan_deployment,
    recoveries_per_year,
    storage_cost_per_year,
)
from repro.sim.queueing import min_fleet_for_latency

USERS = 1_000_000_000  # one billion users, one recovery each per year
PIN_DIGITS = 6


def main() -> None:
    print(f"Planning for {USERS:,} users, {PIN_DIGITS}-digit PINs\n")

    n = minimum_cluster_size(10**PIN_DIGITS)
    print(f"Cluster size from the security analysis: n = {n} "
          f"(smallest n with |P| <= 2^(n/2))")
    print(f"Recovery threshold t = n/2 = {n // 2}; "
          f"failure prob at f_live=1/64: "
          f"{correctness_failure_exact(n, n // 2, 1 / 64):.2e}\n")

    print(f"{'Device':<16}{'qty':>8}{'cost':>14}{'rec/hr/HSM':>12}"
          f"{'rotation duty':>15}")
    for device in (SOLOKEY, YUBIHSM2, SAFENET_A700):
        throughput = build_throughput_model(device)
        plan = plan_deployment(device, USERS, cluster_size=n, throughput=throughput)
        print(
            f"{device.name:<16}{plan.quantity:>8,}"
            f"{plan.hardware_cost_usd:>14,.0f}"
            f"{throughput.recoveries_per_hour:>12,.0f}"
            f"{throughput.rotation_duty_fraction:>14.0%}"
        )

    solo = build_throughput_model(SOLOKEY)
    base_plan = plan_deployment(SOLOKEY, USERS, cluster_size=n, throughput=solo)
    print(f"\nChosen: {base_plan.quantity:,} SoloKeys "
          f"(tolerates {base_plan.tolerated_evil} stolen devices; "
          f"security loss vs pure PIN guessing: "
          f"{security_loss_bits(base_plan.quantity, n):.2f} bits)")

    print("\nTail-latency overprovisioning (p99, M/M/1 per HSM):")
    job_rate = USERS * n / (3600 * 24 * 365)
    # Jobs per second an HSM sustains over its life: key rotation and the
    # log-audit share taken out, as the fleet above was sized.
    per_hsm_rate = solo.recoveries_per_hour / 3600
    for constraint, label in ((30.0, "30 s"), (60.0, "1 min"), (300.0, "5 min"), (None, "any finite")):
        fleet = min_fleet_for_latency(job_rate, per_hsm_rate, constraint)
        print(f"  p99 <= {label:<10}: N = {fleet:,}")

    print(f"\nContext: storing the disk images themselves "
          f"(4 GB/user on S3-IA) costs ~${storage_cost_per_year(USERS) / 1e6:,.0f}M/year"
          f" — the HSM fleet is a rounding error, as the paper concludes.")


if __name__ == "__main__":
    main()
