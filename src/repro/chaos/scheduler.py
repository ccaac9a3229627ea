"""The seeded deterministic scheduler: virtual clock + ordered event queue.

Every piece of chaos-campaign activity — workload arrivals, session
phases, epoch maintenance, fault waves, crash points, invariant sweeps —
is an event on this scheduler's queue.  Events run one at a time in
``(virtual_time, sequence_number)`` order, so an entire "concurrent"
campaign is really one deterministic interleaving: same scenario, same
seed, same event order, bit-for-bit.

Each executed event appends one line to ``trace``; ``trace_digest()``
hashes the whole trace, which is the primary determinism witness (the
determinism test asserts byte-identical traces across same-seed runs and
differing traces across seeds).  Event callbacks may return a short
detail string that lands in the trace line, and may schedule further
events (that is how sessions step cooperatively through begin/shares/
finish phases).

Randomness: the scheduler owns a master ``random.Random`` plus labelled
``substream``s (domain-separated by :func:`repro.chaos.entropy.derive_seed`)
so each component — workload, faults, adversary, sessions — draws
from its own stream and adding one component never shifts another's.

Thread safety: none; the scheduler is the single-threaded heart of a
chaos run and must only be driven from one thread.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Callable, List, Optional, Tuple

from repro.chaos.entropy import derive_seed

#: An event callback: takes no arguments (closures capture their world),
#: optionally returns a detail string for the trace line.
EventFn = Callable[[], Optional[str]]


class DeterministicScheduler:
    """A virtual-time event loop that is a pure function of its seed."""

    def __init__(self, seed: int) -> None:
        """Create an empty queue at virtual time 0 with a seeded master RNG."""
        self.seed = seed
        self.rng = random.Random(derive_seed(seed, "scheduler"))
        self.now = 0.0
        self.step = 0
        self.trace: List[str] = []
        self._heap: List[Tuple[float, int, str, EventFn]] = []
        self._seq = 0

    # -- randomness -----------------------------------------------------------
    def substream(self, label: str) -> random.Random:
        """An independent seeded RNG bound to ``(seed, label)``."""
        return random.Random(derive_seed(self.seed, f"substream|{label}"))

    # -- scheduling -----------------------------------------------------------
    def at(self, time: float, kind: str, fn: EventFn) -> None:
        """Schedule ``fn`` at virtual ``time`` (clamped to never run in the
        past; ties break by scheduling order, which is deterministic)."""
        self._seq += 1
        heapq.heappush(self._heap, (max(time, self.now), self._seq, kind, fn))

    def after(self, delay: float, kind: str, fn: EventFn) -> None:
        """Schedule ``fn`` at ``now + delay``."""
        self.at(self.now + max(0.0, delay), kind, fn)

    def note(self, kind: str, detail: str) -> None:
        """Append a trace line outside any event (setup/teardown markers)."""
        self.trace.append(f"-     t={self.now:.6f} {kind} {detail}")

    # -- execution ------------------------------------------------------------
    def run(
        self,
        max_steps: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drain the queue; returns the number of events executed.

        ``stop()`` is consulted after every event (the engine uses it to
        halt at the first invariant violation so the violating step index
        is the last line of the trace).  ``max_steps`` bounds runaway
        scenarios; the replay harness uses it to stop at a recorded step.
        """
        executed = 0
        while self._heap:
            if max_steps is not None and executed >= max_steps:
                break
            time, _, kind, fn = heapq.heappop(self._heap)
            self.now = time
            self.step += 1
            executed += 1
            detail = fn()
            line = f"{self.step:05d} t={time:.6f} {kind}"
            if detail:
                line += f" {detail}"
            self.trace.append(line)
            if stop is not None and stop():
                break
        return executed

    def trace_digest(self) -> str:
        """SHA-256 over the full trace — the determinism witness."""
        joined = "\n".join(self.trace).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()
