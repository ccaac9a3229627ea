"""Operation metering for the performance cost model.

The paper evaluates SafetyPin on physical SoloKeys and reports per-operation
rates (Table 7).  We cannot measure silicon, so every cryptographic primitive
in this package reports the *operations it performs* to an ambient
:class:`OpMeter`.  The cost model (``repro.hsm.costmodel``) later converts an
operation trace into modeled seconds on a chosen device.

Metering is passive and optional: when no meter is attached, counting is a
cheap no-op, so functional code and benchmarks share one code path.

Operation names used throughout the package:

====================  =========================================================
``ec_mult``           NIST P-256 scalar multiplication (the paper's "g^x")
``elgamal_enc``       hashed-ElGamal encryption (2 EC mults + AE)
``elgamal_dec``       hashed-ElGamal decryption (1 EC mult + AE)
``ecdsa_verify``      one signature verification, Table 7's ECDSA row: a
                      log certificate or a proof of possession, one
                      Schnorr check over any number of signer keys
``pairing``           priced by ``costmodel`` from Table 7; nothing in
                      ``src/`` meters it
``bls_sign``          priced by ``costmodel`` from Table 7; nothing in
                      ``src/`` meters it
``aes_block``         one AES-128 block operation (16 bytes)
``sha256_block``      one SHA-256 compression (64-byte block)
``hmac``              one HMAC-SHA256 over a short message
``flash_read_bytes``  bytes read from HSM non-volatile storage
``io_bytes``          bytes moved over the host<->HSM transport
====================  =========================================================
"""

from __future__ import annotations

import contextlib
import threading
from collections import Counter
from typing import Dict, Iterator, List, Optional


class _MeterStack(threading.local):
    """Per-thread stack of attached meters.

    A stack (not a single slot) lets nested scopes — client ops inside a
    deployment-wide trace — each observe the operations they cover.  It is
    thread-local because the service layer runs many sessions and one
    worker thread per HSM concurrently: a client thread's operations must
    never land on another session's meter.
    """

    def __init__(self) -> None:
        self.meters: List["OpMeter"] = []


_ACTIVE = _MeterStack()


class OpMeter:
    """Accumulates counts of abstract operations.

    >>> meter = OpMeter()
    >>> with meter.attached():
    ...     count("ec_mult")
    ...     count("io_bytes", 32)
    >>> meter.counts["ec_mult"]
    1
    >>> meter.counts["io_bytes"]
    32
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def add(self, op: str, units: float = 1) -> None:
        """Record ``units`` occurrences of operation ``op``."""
        self.counts[op] += units

    def merge(self, other: "OpMeter") -> None:
        """Fold another meter's counts into this one."""
        self.counts.update(other.counts)

    def reset(self) -> None:
        self.counts.clear()

    def snapshot(self) -> Dict[str, float]:
        """Return a plain-dict copy of the counts."""
        return dict(self.counts)

    @contextlib.contextmanager
    def attached(self) -> Iterator["OpMeter"]:
        """Attach this meter so module-level :func:`count` reports to it
        (on this thread; other threads' operations are never observed)."""
        _ACTIVE.meters.append(self)
        try:
            yield self
        finally:
            _ACTIVE.meters.remove(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpMeter({inner})"


def count(op: str, units: float = 1) -> None:
    """Report an operation to every meter attached on this thread."""
    for meter in _ACTIVE.meters:
        meter.counts[op] += units


@contextlib.contextmanager
def deferred() -> Iterator[OpMeter]:
    """Count this thread's operations on a fresh meter *instead of* the
    attached ones — work done ahead of the step the cost model charges it
    to; :func:`report` hands the counts on when that step comes."""
    meter = OpMeter()
    held, _ACTIVE.meters = _ACTIVE.meters, [meter]
    try:
        yield meter
    finally:
        _ACTIVE.meters = held


def report(meter: OpMeter) -> None:
    """Report everything ``meter`` counted to the meters attached here."""
    for op, units in meter.counts.items():
        count(op, units)


def active_meter() -> Optional[OpMeter]:
    """Return this thread's innermost attached meter, or ``None``."""
    return _ACTIVE.meters[-1] if _ACTIVE.meters else None


@contextlib.contextmanager
def metered() -> Iterator[OpMeter]:
    """Convenience: attach a fresh meter and yield it.

    >>> with metered() as m:
    ...     count("hmac")
    >>> m.counts["hmac"]
    1
    """
    meter = OpMeter()
    with meter.attached():
        yield meter
