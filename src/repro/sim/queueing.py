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


@dataclass(frozen=True)
class EpochBatchModel:
    """Latency/cost model of batched log epochs (the serving layer).

    Sessions arrive as a Poisson stream at ``arrival_rate`` (sessions/s)
    and wait for the next epoch tick, committed every ``epoch_interval``
    seconds at a fixed cost of ``epoch_seconds`` of log-update work.  With
    one epoch per session every session pays ``epoch_seconds`` itself; with
    batching the cost is amortized over everyone sharing the tick.
    """

    arrival_rate: float  # sessions/second offered to the service
    epoch_interval: float  # seconds between batch ticks
    epoch_seconds: float  # cost of one run_update epoch

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.epoch_interval <= 0 or self.epoch_seconds < 0:
            raise ValueError("epoch interval must be positive, cost non-negative")

    @property
    def sessions_per_epoch(self) -> float:
        return self.arrival_rate * self.epoch_interval

    def mean_wait(self) -> float:
        """Mean added latency: uniform arrival within a tick waits T/2."""
        return self.epoch_interval / 2.0

    def wait_percentile(self, p: float = 0.99) -> float:
        if not (0 < p < 1):
            raise ValueError("percentile must be in (0, 1)")
        return p * self.epoch_interval

    def epoch_cost_per_session(self) -> float:
        """Amortized log-update seconds each session pays.

        Falls from ``epoch_seconds`` (an epoch per request, <=1 session each)
        toward ``epoch_seconds / (λT)`` as batches fill up.
        """
        return self.epoch_seconds / max(1.0, self.sessions_per_epoch)

    def speedup_vs_per_request(self) -> float:
        """Log-update work saved by batching: sessions per epoch, >= 1."""
        return max(1.0, self.sessions_per_epoch)


@dataclass(frozen=True)
class EpochShardModel:
    """Capacity model of sharded epoch lanes (Amdahl over the epoch work).

    An unsharded epoch costs ``epoch_seconds``.  Sharding splits the
    *parallelizable* part (chunk preparation, per-shard audits — everything
    proportional to the shard's insertions) across ``num_shards`` lanes,
    while ``serial_fraction`` of the cost stays serial (join + cross-shard
    root publish + the batcher's single-threaded bookkeeping), and each
    extra lane adds ``per_shard_overhead`` seconds of fixed per-epoch work
    (every lane runs its own signature collection and quorum check against
    the full fleet).

    This is the planning-side mirror of the live ``ShardedLog`` +
    lane-pool implementation, the way :class:`EpochBatchModel` mirrors the
    unsharded batcher.
    """

    arrival_rate: float  # sessions/second offered to the service
    epoch_interval: float  # seconds between batch ticks
    epoch_seconds: float  # cost of one *unsharded* run_update epoch
    num_shards: int = 1  # parallel lanes (1 = the EpochBatchModel case)
    serial_fraction: float = 0.05  # share of epoch_seconds that cannot shard
    per_shard_overhead: float = 0.0  # fixed extra seconds per additional lane

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.epoch_interval <= 0 or self.epoch_seconds < 0:
            raise ValueError("epoch interval must be positive, cost non-negative")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not (0 <= self.serial_fraction <= 1):
            raise ValueError("serial_fraction must be in [0, 1]")
        if self.per_shard_overhead < 0:
            raise ValueError("per_shard_overhead must be non-negative")

    @property
    def sessions_per_epoch(self) -> float:
        return self.arrival_rate * self.epoch_interval

    def lane_seconds(self) -> float:
        """Wall-clock of one sharded tick: serial part + slowest lane."""
        serial = self.serial_fraction * self.epoch_seconds
        parallel = (1.0 - self.serial_fraction) * self.epoch_seconds
        overhead = self.per_shard_overhead * (self.num_shards - 1)
        return serial + parallel / self.num_shards + overhead

    def speedup(self) -> float:
        """Epoch-preparation speedup over the unsharded single lane."""
        lane = self.lane_seconds()
        return self.epoch_seconds / lane if lane > 0 else float("inf")

    def epoch_cost_per_session(self) -> float:
        """Amortized wall-clock each session pays for its tick's epoch."""
        return self.lane_seconds() / max(1.0, self.sessions_per_epoch)

    def max_stable_arrival_rate(self, sessions_cost_seconds: float = 0.0) -> float:
        """Largest sustainable session rate: a tick's epoch (plus optional
        per-session serving cost) must finish within the tick interval."""
        budget = self.epoch_interval - self.lane_seconds()
        if budget <= 0:
            return 0.0
        if sessions_cost_seconds <= 0:
            return math.inf
        return budget / (sessions_cost_seconds * self.epoch_interval)


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
