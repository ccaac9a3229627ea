"""Discrete-event simulation of a SafetyPin data center.

The analytic models behind Figures 12/13 assume Poisson arrivals, M/M/1
queues, and independent key-rotation downtime.  This simulator checks those
assumptions by actually playing out a deployment timeline:

- recovery jobs arrive as a Poisson process; each job fans out to the
  ``n`` HSMs of a (uniformly random) hidden cluster;
- each HSM serves its own FIFO queue with exponential service times around
  the cost-model mean, log-audit share included;
- each HSM counts punctures and goes offline for its rotation time once the
  Bloom filter is half-worn, exactly like the real device;
- a job completes when ``t`` of its ``n`` shares are decrypted (extra
  shares are still charged to the queues that serve them, as in reality).

Outputs: per-job completion latency percentiles, per-HSM utilization, and
rotation downtime fractions — comparable against the closed-form models in
``repro.sim.queueing`` / ``repro.sim.capacity``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.sim.capacity import HsmThroughputModel


@dataclass
class SimResult:
    """Aggregate statistics from one simulation run."""

    completed_jobs: int
    latencies: List[float]
    busy_fraction: float
    rotating_fraction: float
    rotations: int

    def percentile(self, p: float) -> float:
        """Latency ``p``-quantile under the ceil-rank convention (p99 of 100
        samples is the 99th-smallest, not the max — see
        :func:`repro.sim.workload.percentile`)."""
        from repro.sim.workload import percentile

        return percentile(self.latencies, p)

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / max(1, len(self.latencies))


@dataclass
class _Hsm:
    index: int
    free_at: float = 0.0
    punctures: int = 0
    busy_time: float = 0.0
    rotating_time: float = 0.0
    rotations: int = 0


class DataCenterSimulator:
    """Simulates ``num_hsms`` devices serving threshold recoveries."""

    def __init__(
        self,
        num_hsms: int,
        cluster_size: int,
        threshold: int,
        throughput: HsmThroughputModel,
        rng: Optional[random.Random] = None,
    ) -> None:
        if threshold > cluster_size or cluster_size > num_hsms:
            raise ValueError("need t <= n <= N")
        self.num_hsms = num_hsms
        self.cluster_size = cluster_size
        self.threshold = threshold
        self.throughput = throughput
        self.rng = rng or random.Random(0)

    def run(self, arrival_rate: float, num_jobs: int) -> SimResult:
        """Simulate ``num_jobs`` Poisson arrivals at ``arrival_rate``/s."""
        rng = self.rng
        hsms = [_Hsm(i) for i in range(self.num_hsms)]
        rotation_s = self.throughput.rotation_seconds
        rotation_after = self.throughput.punctures_before_rotation
        # A job carries its share of the log-audit tax, as the closed form
        # (and so ``max_stable_rate``) charges it.
        mean_service = self.throughput.processing_seconds_between_rotations / rotation_after

        latencies: List[float] = []
        t = 0.0
        horizon = 0.0
        for _ in range(num_jobs):
            t += rng.expovariate(arrival_rate)
            cluster = rng.sample(range(self.num_hsms), self.cluster_size)
            share_done: List[float] = []
            for index in cluster:
                hsm = hsms[index]
                start = max(t, hsm.free_at)
                service = rng.expovariate(1.0 / mean_service)
                done = start + service
                hsm.busy_time += service
                hsm.punctures += 1
                hsm.free_at = done
                # Wear-triggered rotation takes the device offline.
                if hsm.punctures >= rotation_after:
                    hsm.free_at += rotation_s
                    hsm.rotating_time += rotation_s
                    hsm.rotations += 1
                    hsm.punctures = 0
                share_done.append(done)
            share_done.sort()
            completion = share_done[self.threshold - 1]
            latencies.append(completion - t)
            horizon = max(horizon, completion)

        total_time = max(horizon, 1e-9) * self.num_hsms
        busy = sum(h.busy_time for h in hsms) / total_time
        rotating = sum(h.rotating_time for h in hsms) / total_time
        return SimResult(
            completed_jobs=num_jobs,
            latencies=latencies,
            busy_fraction=busy,
            rotating_fraction=rotating,
            rotations=sum(h.rotations for h in hsms),
        )

    def max_stable_rate(self) -> float:
        """Arrival rate (jobs/s) at which the fleet saturates:
        N · effective-rate / n."""
        per_hsm = self.throughput.recoveries_per_hour / 3600.0
        return self.num_hsms * per_hsm / self.cluster_size
