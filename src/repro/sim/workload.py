"""Workload generation and the shared percentile convention.

``DiurnalWorkload`` draws the chaos campaign's arrivals; ``percentile`` is
the one quantile rule the simulator and the benchmark ledger read
latencies by.  The discrete-event queue model is
:class:`repro.sim.datacenter.DataCenterSimulator`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple


def percentile(samples: List[float], p: float) -> float:
    """The ``p``-quantile of ``samples`` under the ceil-rank convention.

    Rank ``ceil(p * n)`` (1-based) of the sorted samples: p50 of 100
    samples is the 50th-smallest, p99 the 99th-smallest — never the max
    unless ``p`` actually reaches ``1.0``.  (The previous ``int(p * n)``
    index read one rank too high: p99 of 100 samples returned the max.)
    Returns NaN on an empty list.
    """
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered))))
    return ordered[rank - 1]


@dataclass
class DiurnalWorkload:
    """Non-homogeneous Poisson arrivals with a day/night rate swing.

    Models the provider's diurnal traffic: the instantaneous arrival rate is
    ``base_rate * (1 + amplitude * sin(2*pi*t/period + phase))`` and
    arrivals are drawn by Lewis-Shedler thinning, so the process is a pure
    function of the injected ``rng``.  Each arrival is attributed to one of
    ``num_users`` modeled users (the chaos campaign samples a small subset
    of these as live protocol sessions; the rest feed the closed-form
    latency models at full population scale).
    """

    base_rate: float
    amplitude: float
    period: float
    num_users: int
    rng: random.Random
    phase: float = 0.0

    def __post_init__(self) -> None:
        """Validate the swing: rates must stay strictly positive."""
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError("amplitude must be in [0, 1) so the rate stays > 0")
        if self.base_rate <= 0 or self.period <= 0 or self.num_users < 1:
            raise ValueError("base_rate, period, and num_users must be positive")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time ``t``."""
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)
        )

    def arrivals(self, start: float, end: float) -> List[Tuple[float, int]]:
        """All ``(arrival_time, modeled_user_id)`` pairs in ``[start, end)``.

        Thinning: candidates are drawn at the peak rate and accepted with
        probability ``rate(t)/peak``, giving the exact non-homogeneous
        process without per-step integration.
        """
        peak = self.base_rate * (1.0 + self.amplitude)
        out: List[Tuple[float, int]] = []
        t = start
        while True:
            t += self.rng.expovariate(peak)
            if t >= end:
                return out
            if self.rng.random() * peak <= self.rate_at(t):
                out.append((t, self.rng.randrange(self.num_users)))

