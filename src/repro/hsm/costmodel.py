"""Operation-count → modeled-seconds conversion (paper Table 7).

Every crypto primitive in this package reports abstract operations to the
ambient :class:`~repro.metering.OpMeter`.  This module prices an operation
trace on a chosen device, using the paper's measured SoloKey rates:

==================  ============  =====================================
Operation           SoloKey rate  Source
==================  ============  =====================================
pairing             0.43 /s       Table 7 (BLS12-381, JEDI library)
ecdsa_verify        5.85 /s       Table 7
elgamal_dec         6.67 /s       Table 7
ec_mult (g^x)       7.69 /s       Table 7
hmac                2,173.91 /s   Table 7 (HMAC-SHA256)
aes_block           3,703.70 /s   Table 7 (AES-128)
io RTT, HID 32 B    71.43 /s      Table 7
io RTT, CDC 32 B    2,277.90 /s   Table 7
flash read 32 B     166,000 /s    Table 7
==================  ============  =====================================

Derived rates (documented assumptions):

- ``elgamal_enc`` = 2 × ``ec_mult`` (two point multiplications + cheap AE).
- ``bls_sign``    = 2 × ``ec_mult`` (one G1 multiplication over the larger
  381-bit field ≈ twice a P-256 multiplication).
- ``sha256_block`` = 17,000/s, calibrated against the Figure 8 log-audit
  measurements (the Table 7 HMAC row is call-overhead-bound and would
  underestimate raw compression throughput by ~8x).
- ``io_bytes`` is priced at bulk throughput (HID 64 KB/s, CDC 32x that),
  matching §9's prose; Table 7's per-RTT rows measure latency-bound
  32-byte exchanges.

Compute ops scale across devices by the ``gx_per_sec`` ratio (the paper's
own method for Figure 12); transport and flash are device properties that
do not scale with compute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

from repro.hsm.devices import SAFENET_A700, SOLOKEY, DeviceSpec
from repro.metering import OpMeter


class Transport(enum.Enum):
    """Host<->HSM transport (the paper rewrote SoloKey firmware for CDC)."""

    USB_HID = "usb-hid"
    USB_CDC = "usb-cdc"
    NETWORK = "network"  # rack HSMs (SafeNet) attach via GigE

    def bytes_per_second(self) -> float:
        # Bulk throughput, not 32-byte round-trip latency: the paper states
        # USB HID maxes at 64 KB/s and the CDC rewrite gave "roughly a 32x
        # increase in I/O throughput" (§9).  Table 7's RTT rows (71.43/s and
        # 2,277.9/s for 32-byte messages) measure latency-bound exchanges
        # and keep the same 32x ratio.
        if self is Transport.USB_HID:
            return 64e3
        if self is Transport.USB_CDC:
            return 32 * 64e3
        return 100e6 / 8  # ~100 Mb/s effective for a GigE appliance


# SoloKey base rates, ops per second.
_SOLOKEY_RATES: Dict[str, float] = {
    "pairing": 0.43,
    # One signature check at Table 7's ECDSA-verify rate: a device's one
    # Schnorr check of a log certificate (s·G − c·X_S, two multiplies like
    # an ECDSA verify), or a proof of possession.
    "ecdsa_verify": 5.85,
    "elgamal_dec": 6.67,
    "ec_mult": 7.69,
    "elgamal_enc": 7.69 / 2.0,
    "bls_sign": 7.69 / 2.0,
    "hmac": 2173.91,
    "aes_block": 3703.70,
    # Raw SHA-256 compressions per second.  Table 7's HMAC row (2,173.91/s
    # for short messages) is dominated by call overhead, not compression:
    # the paper's Figure 8 log-audit measurements imply ~3 ms to check one
    # ~54-hash insertion proof, i.e. ~17K compressions/s on the SoloKey's
    # Cortex-M4.  We calibrate to that: 54 hashes / 3 ms.
    "sha256_block": 17_000.0,
}

_FLASH_BYTES_PER_SEC = 166000.0 * 32

# Operation categories for stacked-breakdown figures (Figs. 9-11).
CATEGORY: Dict[str, str] = {
    "pairing": "public_key",
    "ecdsa_verify": "public_key",
    "elgamal_dec": "public_key",
    "elgamal_enc": "public_key",
    "ec_mult": "public_key",
    "bls_sign": "public_key",
    "hmac": "symmetric",
    "aes_block": "symmetric",
    "sha256_block": "symmetric",
    "io_bytes": "io",
    "flash_read_bytes": "flash",
}


@dataclass
class CostBreakdown:
    """Modeled seconds split by category."""

    public_key: float = 0.0
    symmetric: float = 0.0
    io: float = 0.0
    flash: float = 0.0

    @property
    def total(self) -> float:
        return self.public_key + self.symmetric + self.io + self.flash

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            public_key=self.public_key + other.public_key,
            symmetric=self.symmetric + other.symmetric,
            io=self.io + other.io,
            flash=self.flash + other.flash,
        )

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(
            public_key=self.public_key * factor,
            symmetric=self.symmetric * factor,
            io=self.io * factor,
            flash=self.flash * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "public_key": self.public_key,
            "symmetric": self.symmetric,
            "io": self.io,
            "flash": self.flash,
            "total": self.total,
        }


class CostModel:
    """Prices operation traces on a device + transport combination."""

    def __init__(
        self,
        device: DeviceSpec = SOLOKEY,
        transport: Optional[Transport] = None,
    ) -> None:
        self.device = device
        if transport is None:
            transport = Transport.NETWORK if device is SAFENET_A700 else Transport.USB_CDC
        self.transport = transport

    # -- rate lookups -----------------------------------------------------------
    def seconds_per_op(self, op: str) -> float:
        if op == "io_bytes":
            return 1.0 / self.transport.bytes_per_second()
        if op == "flash_read_bytes":
            return 1.0 / _FLASH_BYTES_PER_SEC
        base_rate = _SOLOKEY_RATES.get(op)
        if base_rate is None:
            raise KeyError(f"unknown operation {op!r}")
        return 1.0 / (base_rate * self.device.scale_factor())

    # -- pricing -----------------------------------------------------------------
    def breakdown(self, counts: Union[OpMeter, Mapping[str, float]]) -> CostBreakdown:
        if isinstance(counts, OpMeter):
            counts = counts.counts
        result = CostBreakdown()
        for op, units in counts.items():
            if units == 0:
                continue
            seconds = units * self.seconds_per_op(op)
            category = CATEGORY.get(op)
            if category == "public_key":
                result.public_key += seconds
            elif category == "symmetric":
                result.symmetric += seconds
            elif category == "io":
                result.io += seconds
            elif category == "flash":
                result.flash += seconds
            else:  # pragma: no cover - every known op is categorized
                raise KeyError(f"operation {op!r} has no category")
        return result

    def seconds(self, counts: Union[OpMeter, Mapping[str, float]]) -> float:
        return self.breakdown(counts).total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CostModel({self.device.name}, {self.transport.value})"
