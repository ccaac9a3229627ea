"""Throughput and cost planning (paper §9.2, Figure 12, Table 14).

The per-HSM service model follows the paper's accounting:

- a recovery job on one HSM = one Bloom-filter decrypt-and-puncture (the
  Figure 10 critical path), priced with the cost model;
- each HSM also spends a fixed fraction of its active cycles auditing the
  log (the paper measures ≈11%);
- puncturable keys wear out: after ``punctures_before_rotation`` decryptions
  the HSM must regenerate its key array, which costs one public-key
  operation per slot (the paper estimates 75 hours on a SoloKey and finds
  HSMs spend roughly half their life rotating);
- one *client* recovery consumes ``cluster_size`` HSM jobs (every cluster
  member decrypts one share).

Throughput scales across devices by the Table 2 ``g^x``-rate ratio, the
paper's own method for Figure 12 and Table 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.crypto.bfe import BloomFilterEncryption
from repro.crypto.bloom import BloomParams
from repro.hsm.costmodel import CostModel, Transport
from repro.hsm.devices import DeviceSpec, SOLOKEY

# What one HSM job opens: a Shamir share of the transport key (4 + 32 bytes)
# behind ``repro.core.lhe``'s length-prefixed username, taken as 10 bytes.
SHARE_PLAINTEXT_LEN = 2 + 10 + 36


@dataclass(frozen=True)
class HsmThroughputModel:
    """Per-HSM service-rate model for one device type."""

    device: DeviceSpec
    decrypt_puncture_seconds: float
    rotation_seconds: float
    punctures_before_rotation: int
    log_audit_fraction: float = 0.11  # §9.1: ~11% of active cycles

    @property
    def processing_seconds_between_rotations(self) -> float:
        base = self.punctures_before_rotation * self.decrypt_puncture_seconds
        return base / (1.0 - self.log_audit_fraction)

    @property
    def rotation_duty_fraction(self) -> float:
        """Fraction of an HSM's life spent regenerating keys (paper: ~56%)."""
        processing = self.processing_seconds_between_rotations
        return self.rotation_seconds / (self.rotation_seconds + processing)

    @property
    def recoveries_per_hour(self) -> float:
        """Decrypt-and-puncture jobs per wall-clock hour, all taxes included
        (paper: 1,503.9 for the SoloKey)."""
        cycle = self.rotation_seconds + self.processing_seconds_between_rotations
        return 3600.0 * self.punctures_before_rotation / cycle


def build_throughput_model(
    device: DeviceSpec = SOLOKEY,
    bloom_params: Optional[BloomParams] = None,
    transport: Optional[Transport] = None,
) -> HsmThroughputModel:
    """Price one decrypt-and-puncture and one key rotation on ``device``:
    the op counts are :class:`BloomFilterEncryption`'s own closed forms —
    exactly what the metered operations report — at ``bloom_params``
    (default: the paper's deployed key)."""
    if bloom_params is None:
        bloom_params = BloomParams.paper_deployment()
    model = CostModel(device, transport)
    job = BloomFilterEncryption.decrypt_and_puncture_counts(bloom_params, SHARE_PLAINTEXT_LEN)
    return HsmThroughputModel(
        device=device,
        decrypt_puncture_seconds=model.seconds(job),
        rotation_seconds=model.seconds(BloomFilterEncryption.keygen_counts(bloom_params)),
        # The paper rotates once half the slot keys are deleted; each
        # puncture deletes k slots.
        punctures_before_rotation=max(
            1, bloom_params.num_slots // (2 * bloom_params.num_hashes)
        ),
    )


def recoveries_per_year(
    num_hsms: int,
    cluster_size: int,
    throughput: HsmThroughputModel,
) -> float:
    """Client recoveries/year a fleet sustains: each recovery costs
    ``cluster_size`` HSM jobs (Figure 12's y-axis)."""
    hours = 24.0 * 365
    return num_hsms * throughput.recoveries_per_hour * hours / cluster_size


@dataclass(frozen=True)
class DeploymentPlan:
    """One row of Table 14."""

    device: DeviceSpec
    quantity: int
    f_secret: Fraction
    tolerated_evil: int
    hardware_cost_usd: float
    recoveries_per_year: float

    def describe(self) -> str:
        return (
            f"{self.device.name:<22} qty={self.quantity:>6} "
            f"f_secret=1/{int(1 / self.f_secret)} "
            f"N_evil={self.tolerated_evil:>4} cost=${self.hardware_cost_usd:,.0f}"
        )


def plan_deployment(
    device: DeviceSpec,
    annual_recoveries: float,
    cluster_size: int = 40,
    f_secret: Fraction = Fraction(1, 16),
    throughput: Optional[HsmThroughputModel] = None,
    min_quantity: Optional[int] = None,
) -> DeploymentPlan:
    """Size a fleet of ``device`` for ``annual_recoveries`` (Table 14):
    enough units for the load, and never fewer than one cluster — a
    recovery needs ``cluster_size`` distinct HSMs however fast each is."""
    if throughput is None:
        throughput = build_throughput_model(device)
    per_hsm_yearly_jobs = throughput.recoveries_per_hour * 24 * 365
    needed_jobs = annual_recoveries * cluster_size
    quantity = max(cluster_size, math.ceil(needed_jobs / per_hsm_yearly_jobs))
    if min_quantity is not None:
        quantity = max(quantity, min_quantity)
    return DeploymentPlan(
        device=device,
        quantity=quantity,
        f_secret=f_secret,
        tolerated_evil=int(f_secret * quantity),
        hardware_cost_usd=quantity * device.price_usd,
        recoveries_per_year=recoveries_per_year(quantity, cluster_size, throughput),
    )


def fig12_series(
    devices: Sequence[DeviceSpec],
    budgets_usd: Sequence[float],
    cluster_size: int = 40,
) -> Dict[str, List[tuple]]:
    """Figure 12: recoveries/year vs hardware outlay, one line per device."""
    out: Dict[str, List[tuple]] = {}
    for device in devices:
        throughput = build_throughput_model(device)
        points = []
        for budget in budgets_usd:
            quantity = int(budget / device.price_usd)
            annual = (
                recoveries_per_year(quantity, cluster_size, throughput)
                if quantity > 0
                else 0.0
            )
            points.append((budget, annual))
        out[device.name] = points
    return out


# AWS S3 infrequent-access pricing used by Table 14's storage estimate.
S3_IA_PER_GB_MONTH = 0.0125


def storage_cost_per_year(users: float, gb_per_user: float = 4.0) -> float:
    """Table 14's footnote: storing user disk images dwarfs HSM cost."""
    return users * gb_per_user * S3_IA_PER_GB_MONTH * 12
