"""System parameters (paper §3 "Setting parameters" and §9.2).

The paper's deployment parameters:

- fleet size ``N = 3,100`` HSMs (sized for one billion users at one recovery
  per user per year),
- cluster size ``n = 40`` (dictated by Theorem 10 given N and 6-digit PINs),
- recovery threshold ``t = n/2`` (Theorem 9 with ``f_live = 1/64``),
- compromise tolerance ``f_secret = 1/16`` (≈194 HSMs),
- puncturable keys sized for ``2^20`` punctures,
- log updates every 10 minutes with ``C = λ = 128`` audited chunks per HSM.

Tests shrink everything (see :meth:`SystemParams.for_testing`) but run the
same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from repro.crypto.bloom import BloomParams
from repro.log.distributed import LogConfig


@dataclass(frozen=True)
class SystemParams:
    """Everything that configures a SafetyPin deployment."""

    num_hsms: int
    cluster_size: int
    threshold: int
    pin_length: int = 6  # decimal digits; |P| = 10^pin_length
    f_secret: Fraction = Fraction(1, 16)
    f_live: Fraction = Fraction(1, 64)
    max_punctures: int = 1 << 20
    bloom_failure_exponent: int = 16
    audit_count: int = 128
    quorum_fraction: float = 0.9
    max_attempts_per_user: int = 5
    max_garbage_collections: int = 24
    use_paper_bloom: bool = False  # 64 MB / 2^21-slot keys (§9.1) vs generic sizing
    log_shards: int = 1  # >1 partitions the log into parallel epoch lanes

    def __post_init__(self) -> None:
        if not (1 <= self.threshold <= self.cluster_size <= self.num_hsms):
            raise ValueError("need 1 <= t <= n <= N")
        if self.pin_length < 1:
            raise ValueError("pin_length must be >= 1")
        if not (0 < self.f_secret < 1 and 0 < self.f_live < 1):
            raise ValueError("f_secret and f_live must be in (0, 1)")
        if self.log_shards < 1:
            raise ValueError("log_shards must be >= 1")
        if self.log_shards > self.num_hsms:
            raise ValueError(
                "log_shards cannot exceed num_hsms (shard committees would be empty)"
            )

    # -- derived quantities ---------------------------------------------------
    @property
    def pin_space_size(self) -> int:
        return 10**self.pin_length

    @property
    def tolerated_compromises(self) -> int:
        """The paper's N_evil: how many stolen HSMs the deployment survives."""
        return int(self.f_secret * self.num_hsms)

    @property
    def tolerated_failures(self) -> int:
        return int(self.f_live * self.num_hsms)

    def bloom_params(self) -> BloomParams:
        if self.use_paper_bloom:
            return BloomParams.paper_deployment()
        return BloomParams.for_punctures(self.max_punctures, self.bloom_failure_exponent)

    def log_config(self) -> LogConfig:
        return LogConfig(
            audit_count=self.audit_count,
            quorum_fraction=self.quorum_fraction,
            max_garbage_collections=self.max_garbage_collections,
            max_attempts_per_user=self.max_attempts_per_user,
            num_shards=self.log_shards,
        )

    def validate_pin(self, pin: str) -> None:
        if len(pin) != self.pin_length or not pin.isdigit():
            raise ValueError(
                f"PIN must be exactly {self.pin_length} decimal digits"
            )

    # -- presets ------------------------------------------------------------------
    @staticmethod
    def for_paper() -> "SystemParams":
        """The evaluated deployment: N=3,100, n=40, t=20, 6-digit PINs,
        64 MB puncturable keys rotated every 2^18 decryptions."""
        return SystemParams(
            num_hsms=3100, cluster_size=40, threshold=20, use_paper_bloom=True
        )

    @staticmethod
    def for_testing(
        num_hsms: int = 16,
        cluster_size: int = 4,
        threshold: Optional[int] = None,
        pin_length: int = 4,
        max_punctures: int = 8,
        bloom_failure_exponent: int = 4,
        audit_count: int = 3,
        quorum_fraction: float = 0.75,
    ) -> "SystemParams":
        """Scaled-down parameters that exercise every code path quickly."""
        return SystemParams(
            num_hsms=num_hsms,
            cluster_size=cluster_size,
            threshold=threshold if threshold is not None else max(1, cluster_size // 2),
            pin_length=pin_length,
            max_punctures=max_punctures,
            bloom_failure_exponent=bloom_failure_exponent,
            audit_count=audit_count,
            quorum_fraction=quorum_fraction,
        )
