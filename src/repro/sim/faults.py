"""Deterministic byte-level fault injection, shared by tests and chaos runs.

The ``Flaky*`` wrappers inject seeded transport faults (drops, duplicates,
bit-flips, truncation, trailing garbage) into the two wire boundaries the
system exposes — the client->HSM decrypt-share leg and the client->provider
RPC leg — so a hostile or lossy network provably surfaces *typed* errors,
never a raw crash and never corrupted provider state.

Every fault is drawn from a ``random.Random`` seeded at construction, so a
fault schedule is a pure function of its seed: the pytest suites replay
exact schedules per seed, and ``repro.chaos`` hands these wrappers
substreams of its deterministic scheduler so whole campaign interleavings
replay bit-for-bit.  (This module lived in ``tests/conftest.py`` first;
it was promoted here so the chaos layer and the test suite share one
fault-injection toolkit.)

Thread safety: each wrapper owns a private PRNG and mutates only its own
counters; share one instance across threads only if the underlying
handler is itself thread-safe and schedule determinism is not required.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.service.channel import (
    HsmWireEndpoint,
    ProviderWireEndpoint,
    WireChannel,
    WireProviderChannel,
)


class FrameDropped(Exception):
    """The fault injector dropped a frame (models a transport timeout)."""


class FlakyTransport:
    """Wrap a ``bytes -> bytes`` handler with seeded frame faults.

    Per call, a mode is drawn from a PRNG seeded at construction (so runs
    are reproducible): pass-through (weighted by ``ok_weight``), a request
    bit-flip, a reply bit-flip, reply truncation, trailing garbage on the
    reply, duplicate delivery (the handler runs twice — a retransmission),
    or a drop (raises :class:`FrameDropped` before the handler runs).
    ``faults_injected`` counts what actually happened.
    """

    FAULTS = (
        "corrupt_request",
        "corrupt_reply",
        "truncate_reply",
        "garbage_reply",
        "duplicate",
        "drop",
    )

    def __init__(self, handle, seed: int, ok_weight: int = 4) -> None:
        """``handle`` is the healthy transport; ``ok_weight`` passes cleanly
        that many times per one of each fault mode, in expectation."""
        self._handle = handle
        self._rng = random.Random(seed)
        self._modes = ("ok",) * ok_weight + self.FAULTS
        self.faults_injected: Counter = Counter()

    def __call__(self, request: bytes) -> bytes:
        """Round-trip one frame, possibly injecting this call's fault."""
        mode = self._rng.choice(self._modes)
        self.faults_injected[mode] += 1
        if mode == "drop":
            raise FrameDropped("frame dropped by fault injector")
        if mode == "corrupt_request":
            request = self._flip_bit(request)
        reply = self._handle(request)
        if mode == "duplicate":
            reply = self._handle(request)
        elif mode == "corrupt_reply":
            reply = self._flip_bit(reply)
        elif mode == "truncate_reply":
            reply = reply[: self._rng.randrange(len(reply))] if reply else reply
        elif mode == "garbage_reply":
            reply = reply + bytes([self._rng.randrange(256)])
        return reply

    def _flip_bit(self, data: bytes) -> bytes:
        if not data:
            return data
        index = self._rng.randrange(len(data))
        flipped = data[index] ^ (1 << self._rng.randrange(8))
        return data[:index] + bytes([flipped]) + data[index + 1 :]


class FlakyProviderChannel(WireProviderChannel):
    """A wire provider channel whose transport injects seeded faults."""

    def __init__(self, endpoint: ProviderWireEndpoint, seed: int, ok_weight: int = 4):
        """Wrap ``endpoint`` so every provider RPC frame rides the injector."""
        self.faults = FlakyTransport(endpoint.handle, seed, ok_weight)
        super().__init__(self.faults)


class FlakyChannel(WireChannel):
    """A client->HSM wire channel whose transport injects seeded faults."""

    def __init__(self, device, seed: int, ok_weight: int = 4) -> None:
        """Wrap ``device``'s wire endpoint so decrypt-share frames ride the
        injector (same seed -> same fault schedule)."""
        endpoint = HsmWireEndpoint(device)
        self.faults = FlakyTransport(endpoint.handle_decrypt_share, seed, ok_weight)
        super().__init__(self.faults)
