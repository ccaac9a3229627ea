"""The concurrent recovery service: many sessions, one epoch per tick.

``RecoveryService`` is the deployment's serving front end.  It owns

- a :class:`~repro.service.workers.HsmWorkerPool` — one FIFO worker per
  HSM, so device state is serialized per device while different devices
  serve different sessions in parallel;
- an :class:`~repro.service.batcher.EpochBatcher` — all sessions' log
  insertions ride one shared update epoch per tick instead of paying a
  full epoch each (the paper's every-~10-minutes batch);
- a second, smaller ``HsmWorkerPool`` of **epoch lanes** — one FIFO worker
  per log shard (``log.num_shards`` lanes of the provider's ``ShardedLog``;
  exactly one for an unsharded log).
  Every epoch runs on its lane's worker: a tick fans the lanes with work
  out through :meth:`RecoveryService.run_shard_epochs` and joins them;
- a ticker thread that runs an epoch when the batcher signals demand — a
  session queued, a lane drained — and otherwise looks every
  ``tick_interval``.  ``tick_interval`` is that fallback poll *and* the
  quiet period kept after an epoch (the next one starts no sooner than
  ``tick_interval`` after the last tick that ran a lane returned), not a
  sampling period: a session that finds the service idle is served at
  once.  The ticker outlives a tick that raises.  (Or manual ``tick()``
  calls, with no ticker, for deterministic tests.)

Clients created through :meth:`new_client` are ordinary
:class:`~repro.core.client.Client` objects; they speak to the provider only
through a ``ProviderChannel`` (byte-framed provider RPC for the default
``"wire"`` transport) fronting a facade whose ``log_and_prove`` blocks on
the shared epoch, and their HSM channels run through the worker queues.
Both objects the service puts on a boundary are enumerations, not
pass-throughs: :class:`BatchedProviderFacade` has the op catalog's methods
(``wire.PROVIDER_OPS``) and :class:`_FifoDevice` the names the log's epoch
protocol uses — nothing else of the provider or a device is reachable.

Thread safety: the service is built to be hammered by many client threads
at once.  All shared mutable state lives behind the batcher's lock, the
provider's attempt-counter lock, or a per-device/per-lane FIFO; devices
and epoch lanes never see two concurrent calls.  ``start``/``stop``
bracket the worker threads and are the only methods that must be
externally serialized; ``stop`` joins every thread the service started,
including lane workers a manual-tick caller started without ``start``.
"""

from __future__ import annotations

import threading
import traceback
from typing import List, Optional

from repro.core.client import Client
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError, ServiceProvider
from repro.service.batcher import EpochBatcher, ServiceTimeout
from repro.service.channel import (
    ChannelFactory,
    DirectProviderChannel,
    ProviderWireEndpoint,
    WireProviderChannel,
    catalog_methods,
    direct_channels,
    wire_channels,
)
from repro.service.workers import HsmWorkerPool, queued_channels

#: Device methods of the Figure 5 epoch protocol that mutate or read
#: device state and therefore must serialize with decrypt-share traffic.
_EPOCH_METHODS = frozenset(
    (
        "audit_log_update", "reveal_nonce", "sign_transition",
        "audit_specific_chunks", "accept_log_digest",
    )
)

#: What else a lane epoch asks of a device, answered on the calling thread
#: as it always was: who it is, whether it is up, and its offer queue —
#: where its offered chain ends, and the enqueue that feeds it the
#: transitions it missed (guarded by the device's own ``_offer_lock``).
#: With :data:`_EPOCH_METHODS` this is the whole device surface the service
#: hands to the log.
_DIRECT_NAMES = (
    "index", "is_failed", "offered_frontier", "offer_certified_transition"
)


class _FifoDevice:
    """Epoch-protocol view of one HSM that routes calls through its FIFO
    worker, so log updates obey the same per-device serialization as
    decrypt-share traffic — device state is never touched by two threads
    at once, which is the worker pool's whole invariant.  The view is an
    enumeration, not a pass-through: a name outside :data:`_EPOCH_METHODS`
    and :data:`_DIRECT_NAMES` (``decrypt_share``, key rotation, secret
    extraction...) is an ``AttributeError``."""

    def __init__(self, pool: HsmWorkerPool, device) -> None:
        self._pool = pool
        self._device = device


def _through_fifo(name: str):
    """``name`` of the device, run on the device's FIFO worker."""

    def method(self, *args, **kwargs):
        call = getattr(self._device, name)
        return self._pool.call(self._device.index, lambda: call(*args, **kwargs))

    method.__name__ = name
    return method


def _direct(name: str):
    """``name`` of the device (attribute or bound method), as it is."""
    return property(lambda self: getattr(self._device, name))


for _name in _EPOCH_METHODS:
    setattr(_FifoDevice, _name, _through_fifo(_name))
for _name in _DIRECT_NAMES:
    setattr(_FifoDevice, _name, _direct(_name))


@catalog_methods
class BatchedProviderFacade:
    """What the service's provider endpoint dispatches into.

    Exactly the op catalog (``wire.PROVIDER_OPS``) and nothing else of the
    real :class:`ServiceProvider` — its log, journal and epoch driver are
    not reachable through the facade.  Ten ops forward unchanged
    (:func:`catalog_methods`); the four defined below differ:
    attempt numbers are *reserved* atomically (concurrent sessions for one
    user cannot collide), ``log_and_prove`` waits for the shared epoch
    instead of running its own, proofs are cut under the epoch lock, and
    the share-phase hint releases the session's lease.  Clients never hold
    this object — they speak through a ``ProviderChannel`` (byte-framed
    for the default ``"wire"`` transport) that fronts it.
    """

    def __init__(self, service: "RecoveryService") -> None:
        self._service = service
        self._provider = service.provider

    def _invoke(self, op, args):
        return getattr(self._provider, op.method)(*args)

    # -- attempt numbering ----------------------------------------------------
    def next_attempt_number(self, username: str) -> int:
        """Atomically *reserve* a slot (concurrent sessions never collide)."""
        return self._provider.reserve_attempt_number(username)

    # -- the log, via the shared epoch ----------------------------------------
    def log_and_prove(self, username: str, attempt: int, commitment: bytes):
        """Queue the insertion and block on the shared epoch's ticket."""
        ticket = self._service.batcher.submit(username, attempt, commitment)
        return ticket.wait(self._service.session_timeout)

    def prove_inclusion(self, identifier: bytes, value: bytes):
        """Fresh proof against the current digest (under the epoch lock)."""
        with self._service.batcher.lock:
            return self._provider.prove_inclusion(identifier, value)

    def share_phase_done(self, username: str, attempt: int) -> None:
        """Release the session's epoch lease."""
        self._service.batcher.release(username, attempt)


class RecoveryService:
    """Concurrent serving front end over one deployment."""

    def __init__(
        self,
        deployment: Deployment,
        transport: str = "wire",
        tick_interval: float = 0.02,
        lease_timeout: float = 10.0,
        session_timeout: float = 60.0,
        call_timeout: float = 60.0,
    ) -> None:
        if transport not in ("wire", "direct"):
            raise ValueError(f"unknown transport {transport!r}")
        self.deployment = deployment
        self.provider: ServiceProvider = deployment.provider
        self.session_timeout = session_timeout
        # Stashed so restart() can rebuild an identical service over the
        # restored deployment.
        self._ctor_options = dict(
            transport=transport,
            tick_interval=tick_interval,
            lease_timeout=lease_timeout,
            session_timeout=session_timeout,
            call_timeout=call_timeout,
        )
        self.pool = HsmWorkerPool(len(deployment.fleet), call_timeout=call_timeout)
        self._call_timeout = call_timeout
        self._epoch_fleet = [_FifoDevice(self.pool, hsm) for hsm in deployment.fleet]
        # One epoch lane per log shard (one for an unsharded log): lane k is
        # a FIFO worker that commits shard k's epochs, so a tick fans out
        # across lanes and joins.
        self.shard_lanes = self.provider.log.num_shards
        self._lane_pool = HsmWorkerPool(self.shard_lanes, call_timeout=call_timeout)
        self.batcher = EpochBatcher(
            self.provider,
            lease_timeout=lease_timeout,
            lane_runner=self.run_shard_epochs,
        )
        inner = (wire_channels if transport == "wire" else direct_channels)(
            deployment.fleet
        )
        self._channels: ChannelFactory = queued_channels(self.pool, inner)
        self._facade = BatchedProviderFacade(self)
        # Clients reach the provider only through this channel: the default
        # "wire" transport frames every call (and every failure) through
        # the provider RPC encoding; "direct" is the reference path.
        if transport == "wire":
            self.provider_endpoint: Optional[ProviderWireEndpoint] = (
                ProviderWireEndpoint(self._facade)
            )
            self.provider_channel = WireProviderChannel(self.provider_endpoint)
        else:
            self.provider_endpoint = None
            self.provider_channel = DirectProviderChannel(self._facade)
        self._tick_interval = tick_interval
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.clients: List[Client] = []

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "RecoveryService":
        """Start the worker pool, the epoch lanes, and the epoch ticker."""
        self.pool.start()
        self._lane_pool.start()
        if self._ticker is None:
            self._stop.clear()
            self._ticker = threading.Thread(
                target=self._run_ticker, name="epoch-ticker", daemon=True
            )
            self._ticker.start()
        return self

    def stop(self) -> None:
        """Drain one final tick, then stop the ticker, lanes, and workers.

        Joins every thread the service started, whether ``start`` started
        it or a manual-tick caller did (``pool.start()``, the lane workers
        :meth:`run_shard_epochs` starts on demand).  If the ticker is still
        inside an epoch after ``session_timeout`` this raises
        :class:`ServiceTimeout` and leaves the ticker handle, the lanes and
        the workers in place — stopping the pools under a running epoch
        would fail it halfway — so ``stop`` can simply be called again.
        """
        if self._ticker is not None:
            self._stop.set()
            self.batcher.wake()  # do not sit out a tick_interval asleep
            self._ticker.join(timeout=self.session_timeout)
            if self._ticker.is_alive():
                raise ServiceTimeout(
                    f"epoch ticker still running after {self.session_timeout}s;"
                    " lanes and workers left up — call stop() again"
                )
            self._ticker = None
        self._lane_pool.stop()
        self.pool.stop()

    def __enter__(self) -> "RecoveryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run_ticker(self) -> None:
        """Run an epoch when there is demand for one, at most one per
        ``tick_interval``.

        Sleeps on the batcher's demand signal, with ``tick_interval`` as
        the fallback poll (lease expiry, deferred lanes and out-of-band
        ``log.insert``s raise no signal).  On waking it ticks at once,
        unless the last tick that ran a lane epoch returned less than
        ``tick_interval`` ago: then it waits out the remainder, so
        back-to-back epochs keep the quiet period in which sessions gather
        into the next batch, and only an idle service skips the wait.
        """
        batcher, interval = self.batcher, self._tick_interval
        while not self._stop.is_set():
            batcher.wait_for_demand(interval)
            quiet = batcher.quiet_remaining(interval)
            if quiet > 0 and self._stop.wait(quiet):
                break
            self._tick_and_survive()
        # Final drain so sessions submitted around shutdown still resolve.
        self._tick_and_survive()

    def _tick_and_survive(self) -> None:
        """One ticker-driven tick.  The ticker is the only thing that ends
        a session's wait, so it must outlive a tick that raises: the
        batcher has already failed the tickets that tick had taken and
        counted ``tick_failures``; the traceback goes to stderr, where the
        dying thread's used to."""
        try:
            self.batcher.tick()
        except Exception:
            traceback.print_exc()

    def tick(self) -> int:
        """Commit one epoch now (manual mode for deterministic tests)."""
        return self.batcher.tick()

    def restart(self) -> "RecoveryService":
        """Crash-restart the provider process and return the revived service.

        Models the paper's provider-restart reality: this service's process
        state (pending batches, leases, attempt reservations) is lost, but
        the durable block store and the HSM fleet survive.  Stops the
        workers, rebuilds the deployment from its journal
        (:meth:`Deployment.restore` — WAL replay plus reconciliation of any
        epoch the crash left half-committed), and returns a *new* service
        over the restored deployment with the same construction options
        (not started; callers ``start()`` it or use it as a context
        manager).  Clients of the dead service are wired to its defunct
        queues — create fresh ones via :meth:`new_client` on the returned
        service.  Raises :class:`ProviderError` for non-durable deployments.
        """
        journal = getattr(self.provider, "journal", None)
        if journal is None:
            raise ProviderError(
                "restart requires a durable deployment"
                " (Deployment.create(..., store=...))"
            )
        self.stop()
        restored = Deployment.restore(
            self.deployment.params, journal.store, self.deployment.fleet
        )
        return RecoveryService(restored, **self._ctor_options)

    def run_shard_epochs(self, shards) -> dict:
        """Fan one epoch per listed shard out to the lane workers and join.

        Each lane commits its shard through ``log.run_shard_update`` (an
        unsharded log's lone lane 0 is certified by the whole fleet) with
        device calls still FIFO-serialized per HSM — the device pool must be
        running — so concurrent lanes interleave *across* devices but
        never within one.  Returns the per-shard outcome map the batcher
        uses to fail only the tickets of a rejected shard (that shard
        rolled itself back).
        """
        if not self._lane_pool.running:  # manual-tick callers drive epochs
            self._lane_pool.start()     # without start()ing the service
        log = self.provider.log
        jobs = {
            shard: self._lane_pool.submit(
                shard,
                lambda shard=shard: log.run_shard_update(shard, self._epoch_fleet),
            )
            for shard in shards
        }
        # A lane epoch is a bounded number of device calls, each of which the
        # device pool already times out after call_timeout — so a lane job
        # always terminates (commit or rollback).  Join with a bound safely
        # above any epoch's worst case: timing a lane out while it is still
        # running would report "rolled back" for an epoch that then commits,
        # silently burning the batch's attempt numbers.
        join_timeout = self._call_timeout * (4 + 3 * len(self.deployment.fleet))
        outcomes: dict = {}
        for shard, job in jobs.items():
            try:
                self._lane_pool.result(job, timeout=join_timeout)
                outcomes[shard] = None
            except BaseException as exc:  # per-lane isolation, not control flow
                outcomes[shard] = exc
        return outcomes

    # -- clients ---------------------------------------------------------------
    def new_client(self, username: str) -> Client:
        """A client wired through the service: batched log, queued channels,
        provider calls framed through the provider RPC channel."""
        client = Client(
            username=username,
            params=self.deployment.params,
            provider=self.provider_channel,
            channels=self._channels,
            mpk=self.deployment.fleet.master_public_key(),
        )
        self.clients.append(client)
        # Registered with the deployment too, so mpk refreshes after key
        # rotation reach service clients as well.
        self.deployment.clients.append(client)
        return client

    # -- observability ---------------------------------------------------------
    def stats(self) -> dict:
        """Counters for benchmarks and tests (epochs, sessions, lanes...).

        Includes ``provider_wire`` (frames/bytes moved on the provider RPC
        leg) when the service runs the wire transport."""
        stats = {
            "shard_lanes": self.shard_lanes,
            # Batcher counters, including the per-shard lease splits
            # (lease_timeouts_by_shard, outstanding_leases_by_shard).
            **self.batcher.stats(),
            "jobs_per_device": list(self.pool.jobs_processed),
        }
        if isinstance(self.provider_channel, WireProviderChannel):
            stats["provider_wire"] = self.provider_channel.wire_stats()
        return stats
