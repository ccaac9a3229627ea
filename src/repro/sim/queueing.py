"""M/M/1 queueing model for recovery tail latency (paper Figure 13).

The paper: "We compute these values by modeling incoming requests using a
Poisson process and each HSM using an M/M/1 queue with service times derived
from our experimental results."

For an M/M/1 queue with arrival rate λ and service rate μ (λ < μ), the
sojourn time (queueing + service) is exponential with rate (μ − λ), so the
p-th percentile latency is  −ln(1 − p) / (μ − λ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class MM1Queue:
    """One HSM modeled as an M/M/1 queue."""

    service_rate: float  # jobs/second the HSM can absorb (μ)
    arrival_rate: float  # jobs/second offered to it (λ)

    def __post_init__(self) -> None:
        if self.service_rate <= 0:
            raise ValueError("service rate must be positive")
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be non-negative")

    @property
    def utilization(self) -> float:
        return self.arrival_rate / self.service_rate

    @property
    def stable(self) -> bool:
        return self.arrival_rate < self.service_rate

    def mean_latency(self) -> float:
        if not self.stable:
            return math.inf
        return 1.0 / (self.service_rate - self.arrival_rate)

    def latency_percentile(self, p: float = 0.99) -> float:
        """p-th percentile sojourn time; infinite for an unstable queue."""
        if not (0 < p < 1):
            raise ValueError("percentile must be in (0, 1)")
        if not self.stable:
            return math.inf
        return -math.log(1.0 - p) / (self.service_rate - self.arrival_rate)


def min_fleet_for_latency(
    total_job_rate: float,
    per_hsm_service_rate: float,
    latency_constraint: Optional[float],
    percentile: float = 0.99,
) -> int:
    """Smallest N such that splitting ``total_job_rate`` evenly over N
    M/M/1 queues meets the percentile latency constraint.

    ``latency_constraint=None`` means "any finite latency" (the paper's
    "Infinite" curve): N need only make each queue stable.

    Closed form: p99 ≤ L  ⇔  μ − λ/N ≥ −ln(0.01)/L
                          ⇔  N ≥ λ / (μ + ln(1−p)/L).
    """
    if total_job_rate <= 0:
        return 1
    if latency_constraint is None:
        # Stability only: λ/N < μ.
        return math.floor(total_job_rate / per_hsm_service_rate) + 1
    needed_slack = -math.log(1.0 - percentile) / latency_constraint
    if needed_slack >= per_hsm_service_rate:
        raise ValueError(
            "latency constraint unreachable: service time alone exceeds it"
        )
    n = total_job_rate / (per_hsm_service_rate - needed_slack)
    return max(1, math.ceil(n))


def fig13_series(
    per_hsm_service_rate: float,
    jobs_per_recovery: float,
    requests_per_year: Sequence[float],
    latency_constraints: Sequence[Optional[float]] = (30.0, 60.0, 300.0, None),
) -> List[Tuple[Optional[float], List[Tuple[float, int]]]]:
    """Figure 13's curves: data-center size N vs annual request rate, one
    series per 99th-percentile latency constraint.

    ``jobs_per_recovery`` is the cluster size n: each client recovery puts
    one decrypt-and-puncture job on each of n HSMs.
    """
    seconds_per_year = 3600.0 * 24 * 365
    series = []
    for constraint in latency_constraints:
        points = []
        for annual in requests_per_year:
            job_rate = annual * jobs_per_recovery / seconds_per_year
            points.append(
                (annual, min_fleet_for_latency(job_rate, per_hsm_service_rate, constraint))
            )
        series.append((constraint, points))
    return series
