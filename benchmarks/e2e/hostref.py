"""The host reference: a fixed kernel that imports nothing from ``repro``.

This shared host runs the same pure-CPU code at anything between 1.0x and
0.6x of its best speed, changing within seconds and staying changed for tens
of seconds, without showing steal time: wall-clock numbers from back-to-back
runs of unchanged code differ by a quarter.  The two virtual cores do not
reliably drift together, but two pieces of code that take turns on *one*
core slow down together (correlation 0.98 over 1 s bins).  So:

- ``pin_to_one_core`` keeps every thread of a pass on one core.  The program
  is threads under the interpreter lock, which run one at a time anyway, and
  the benchmark states it: latency and rate are those of one core.
- ``HostProbe`` runs a small interpreted kernel four times a second from a
  thread of the pass itself and records the CPU time each took.  A wall-clock
  interval multiplied by ``speed(start, end)`` is that interval at a fixed
  reference host speed; it repeats three to five times better than the raw
  one (README, calibration).  The raw values are printed and recorded too.
- ``ref_ms()`` is the whole kernel, timed before and after every pass
  (``host.ref_ms``).  A ledger repetition whose reference deviates more than
  10 % from the run's median is flagged ``disturbed`` — kept, not dropped.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import statistics
import threading
import time
from typing import List

_MODULUS = 2**256 - 2**224 + 2**192 + 2**96 - 1  # the P-256 field prime
DISTURBED_SHARE = 0.10
PROBE_PERIOD_S = 0.25
#: CPU milliseconds one probe sample takes at the reference host speed: about
#: what this host measures at its median.  It only fixes the scale of the
#: at-reference metrics; any constant compares two commits equally well.
PROBE_NOMINAL_MS = 5.0


def _kernel(pows: int, hashes: int) -> None:
    exponent = _MODULUS - 2
    for i in range(pows):
        pow(3, exponent - i, _MODULUS)
    block = b"\x00" * 64
    for _ in range(hashes):
        block = hashlib.sha256(block).digest()


def ref_ms() -> float:
    """200 modular exponentiations on a 256-bit modulus + 20,000 SHA-256 calls."""
    start = time.perf_counter()
    _kernel(200, 20_000)
    return (time.perf_counter() - start) * 1e3


_TABLE = [(i * 7 + 3) % 256 for i in range(256)]


def _probe_kernel() -> None:
    """What the probe times: interpreted table look-ups on a 16-byte state
    and interpreted 256-bit field arithmetic, the two things the program
    spends its time on.  ``_kernel`` runs inside C and slows by less than
    the program does when the host slows; this tracks it (README)."""
    state = list(range(16))
    for r in range(800):
        state = [_TABLE[state[(i * 5) % 16]] ^ state[i] ^ (r & 0xFF) for i in range(16)]
        bytes(state)
    x, y = 3, _MODULUS - 5
    for i in range(2_500):
        x = (x * y + i) % _MODULUS
        y = (y * y) % _MODULUS


def pin_to_one_core() -> None:
    """Restrict this process (and what it starts) to its first allowed core.
    Where the platform has no affinity call the pass runs unpinned and the
    probe is only as good as the cores' agreement."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostProbe:
    """Samples the host's speed from a thread of this process while entered."""

    def __init__(self) -> None:
        self._times: List[float] = []  # perf_counter at the middle of each sample
        self._speeds: List[float] = []  # reference speed = 1.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, name="host-probe", daemon=True)

    def __enter__(self) -> "HostProbe":
        self._sample()  # even the shortest interval then has one
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        """CPU time of this thread, not wall time: waiting for the interpreter
        lock or the core does not read as a slow host."""
        began, cpu = time.perf_counter(), time.thread_time()
        _probe_kernel()
        cpu_ms = (time.thread_time() - cpu) * 1e3
        self._speeds.append(PROBE_NOMINAL_MS / cpu_ms)  # first: speed() indexes by _times
        self._times.append((began + time.perf_counter()) / 2)

    def _watch(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    @property
    def samples(self) -> int:
        return len(self._speeds)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over ``[start, end]`` (``perf_counter`` values) as
        a share of the reference speed, from the samples inside the interval
        and the nearest one on either side of it."""
        first = max(0, bisect.bisect_left(self._times, start) - 1)
        last = bisect.bisect_right(self._times, end) + 1
        return statistics.fmean(self._speeds[first:last])
