"""The serving layer: concurrent sessions over one SafetyPin deployment.

The core protocol modules (``repro.core``) implement *one* backup or
recovery faithfully; this package makes many of them happen at once, the
way the paper's deployment serves millions of users.  Four pieces:

**Channel boundary** (:mod:`repro.service.channel`).  Clients reach HSMs
only through a :class:`~repro.service.channel.Channel` — one
``decrypt_share`` method.  The default :class:`WireChannel` serializes
every request and reply through ``repro.core.wire``, so client and device
exchange bytes across the untrusted provider's network, never live Python
objects; refusals and punctures cross the wire as status codes.

**Per-HSM worker queues** (:mod:`repro.service.workers`).  Real HSMs serve
one command at a time; :class:`~repro.service.workers.HsmWorkerPool` gives
each device a FIFO queue and a single worker thread (exactly the M/M/1
shape the capacity model in ``repro.sim`` assumes), so any number of
sessions can be in flight while each device's state mutates serially.

**Epoch batching** (:mod:`repro.service.batcher`).  The distributed-log
update is the expensive, global step; the paper amortizes it by committing
one batch epoch every ~10 minutes.  The
:class:`~repro.service.batcher.EpochBatcher` accumulates every session's
log insertion and commits exactly one ``run_update`` per tick, fanning the
inclusion proofs back to all waiting sessions.  Because proofs are
digest-exact, served sessions hold an *epoch lease* until their share
phase ends; the next tick waits for leases to drain (bounded), and clients
that straddle an epoch anyway refresh their proof and retry once.

**Shard lanes** (also :mod:`repro.service.batcher`).  The log
(``repro.log.sharded``) has ``S >= 1`` shards: a tick groups waiters by
their identifier's shard and fans one epoch per shard out to a lane-worker
pool, joining before the combined cross-shard root is published; a failed
shard epoch rolls back and fails only its own tickets.

:class:`~repro.service.recovery.RecoveryService` assembles the pieces into
the deployment's front end; ``Deployment.recovery_service()`` builds one,
with one lane per log shard (``SystemParams.log_shards``).

Thread safety: this package *is* the concurrency layer — every class
documents its own contract.  The rule of thumb: device and shard state is
only ever touched from its FIFO worker; cross-session state lives behind
the batcher's lock.
"""

from repro.service.batcher import EpochBatcher, EpochTicket, ServiceTimeout
from repro.service.channel import (
    Channel,
    DirectChannel,
    HsmWireEndpoint,
    WireChannel,
    direct_channels,
    wire_channels,
)
from repro.service.recovery import BatchedProviderFacade, RecoveryService
from repro.service.workers import HsmWorkerPool, QueuedChannel, queued_channels

__all__ = [
    "BatchedProviderFacade",
    "Channel",
    "DirectChannel",
    "EpochBatcher",
    "EpochTicket",
    "HsmWireEndpoint",
    "HsmWorkerPool",
    "QueuedChannel",
    "RecoveryService",
    "ServiceTimeout",
    "WireChannel",
    "direct_channels",
    "queued_channels",
    "wire_channels",
]
