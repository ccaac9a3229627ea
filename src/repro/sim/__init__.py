"""Deployment-scale models (paper §9.2, Figures 12–14).

The paper's billion-user numbers are themselves models — Poisson arrivals
into M/M/1 HSM queues, throughput scaled by the g^x column of Table 2 — and
this package implements the same models, plus a discrete-event simulator
that validates the analytic tail-latency curve empirically.
"""

from repro.sim.queueing import (
    MM1Queue,
    min_fleet_for_latency,
    fig13_series,
)
from repro.sim.capacity import (
    HsmThroughputModel,
    DeploymentPlan,
    plan_deployment,
    recoveries_per_year,
)
from repro.sim.workload import (
    DiurnalWorkload,
    percentile,
)

__all__ = [
    "DiurnalWorkload",
    "percentile",
    "MM1Queue",
    "min_fleet_for_latency",
    "fig13_series",
    "HsmThroughputModel",
    "DeploymentPlan",
    "plan_deployment",
    "recoveries_per_year",
]
