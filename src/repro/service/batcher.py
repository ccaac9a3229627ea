"""Batched log epochs: one ``run_update`` serves many recovery sessions.

The paper's deployment amortizes the distributed-log update by batching all
client insertions into one epoch every ~10 minutes.  :class:`EpochBatcher`
reproduces that rhythm: sessions ``submit`` their log insertion and block on
an :class:`EpochTicket`; each ``tick`` commits one update epoch per lane
that has work and fans the inclusion proofs back to every waiter.

There is one way to run an epoch.  The log, a
:class:`~repro.log.sharded.ShardedLog` at every arity, is a set of
``log.num_shards`` **epoch lanes** (exactly one when it is unsharded),
each a :class:`~repro.log.distributed.DistributedLog`.  A tick groups the
waiters by their identifier's lane, hands the runnable lanes to the ``lane_runner``
(the service's lane workers: one FIFO worker per lane, HsmWorkerPool
discipline), joins them, and only then reads the combined root.  Lanes
fail independently — a lane whose epoch is rejected rolls back and fails
*its* tickets only, while sibling lanes commit (the paper's transactional
``run_update``, per lane).

Because inclusion proofs are digest-exact (Merkle BST), committing an epoch
invalidates the proofs of sessions still mid-share-phase.  Each served
session therefore holds an *epoch lease* until it reports its share phase
done (``release``).  Leases are tracked **per lane**: a lane runs its epoch
as soon as *its* leases drain, so a straggler on shard 7 defers only shard
7's epoch while every other lane commits unimpeded; a tick blocks only when
no lane with work is runnable.  A deferred lane's drain is bounded by
``lease_timeout``, measured from the first tick the lane deferred, so a
crashed client cannot stall its lane forever (abandoned sessions fall back
to client-side proof refresh; their late ``release`` after a timeout-clear
is a harmless no-op).  Every dropped straggler counts one ``lease_timeout``
— ``stats()`` reports the per-lane split.

Epochs run on demand.  The batcher does not tick itself; it tells whoever
drives it (the service's ticker) *when there is something to do*, by an
explicit hand-off instead of a timer the driver samples: ``submit`` raises
a wake-up signal once its waiter is queued, ``release`` raises it when a
lane drains with sessions queued, and ``wait_for_demand`` sleeps on it.
``quiet_remaining`` is the other half of the rhythm — how much of a period
is left since the last tick that ran a lane epoch returned — so a driver
can keep epochs a period apart under load (the gap in which sessions gather
into the next batch) without charging a session that finds the service idle
half a period of sleep.  Lease expiry, deferred lanes and out-of-band
``log.insert``s raise no signal; the driver's fallback poll finds them.

A tick that raises (a lane runner raising instead of reporting, an
inclusion proof failing after the lanes committed) fails the tickets it
had taken off the queue with a typed ``ProviderError`` carrying the cause,
leaves sessions it had already served alone, counts one ``tick_failures``
and re-raises: the batcher stays usable, and the driver decides what to do.

Thread safety: all mutable state (waiters, leases, counters) is guarded by
``self._lock``; the ``_drained`` condition wraps that same lock, so holding
either serializes the same state.  ``tick`` holds it for the whole epoch,
so out-of-band log reads may take ``batcher.lock`` to get a settled view.
Lane fan-out happens *inside* a tick: concurrency is between lanes
(distinct shards, per-device FIFO serialization), never between ticks.
The wake-up signal is a ``threading.Event`` — thread-safe by itself, set
outside the lock, and so not part of the lock contract.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.provider import ProviderError, ServiceProvider
from repro.log.sharded import shard_of

#: Bound on the per-epoch history kept for observability/tests; aggregate
#: counters (epochs_run, sessions_served, ...) are exact forever.
_HISTORY_LIMIT = 4096


class ServiceTimeout(ProviderError):
    """A session timed out waiting for the service (no epoch tick arrived)."""


class EpochTicket:
    """One session's claim on the next epoch; resolves to (id, proof).

    A ticket whose ``wait`` times out is *abandoned*: the session has
    already raised :class:`ServiceTimeout` and walked away, so the epoch
    that eventually serves the batch must not take an epoch lease on its
    behalf — nobody is left to ``release`` it, and an unreleased lease
    stalls the next tick for the full ``lease_timeout``.  ``resolve`` /
    ``fail`` report whether they landed (``False`` = already abandoned);
    abandonment and resolution race under ``_lock``, so exactly one side
    wins.
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result: Optional[Tuple[bytes, object]] = None
        self._error: Optional[Exception] = None
        self._lock = threading.Lock()
        self._abandoned = False

    @property
    def abandoned(self) -> bool:
        """True once ``wait`` timed out and the session gave up."""
        with self._lock:
            return self._abandoned

    def resolve(self, result: Tuple[bytes, object]) -> bool:
        """Fulfil the ticket with ``(identifier, inclusion proof)``.

        Returns ``False`` (and discards the result) if the session already
        abandoned the ticket — the caller must then skip the epoch lease.
        """
        with self._lock:
            if self._abandoned:
                return False
            self._result = result
            self._done.set()
            return True

    def fail(self, error: Exception) -> bool:
        """Fail the ticket; ``wait`` re-raises ``error`` on the session.

        Returns ``False`` if the session already abandoned the ticket, or
        if the ticket already has its outcome — a tick that raises fails
        what it took off the queue, and must not turn a session it already
        served (which holds a lease and will ``release`` it) into an error.
        """
        with self._lock:
            if self._abandoned or self._done.is_set():
                return False
            self._error = error
            self._done.set()
            return True

    def wait(self, timeout: Optional[float] = None) -> Tuple[bytes, object]:
        """Block until an epoch serves this ticket (or ``timeout`` lapses).

        On timeout the ticket is marked abandoned before raising, unless a
        resolution raced in between the wait lapsing and the mark — in that
        case the (just-arrived) result is returned normally.
        """
        if not self._done.wait(timeout):
            with self._lock:
                if not self._done.is_set():
                    self._abandoned = True
                    raise ServiceTimeout(
                        f"no log epoch committed within {timeout}s"
                        " (is the ticker running?)"
                    )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


def _fail_tickets(waiters: Sequence[Tuple], what: str, cause: BaseException) -> None:
    """Fail every waiter's ticket with one typed error that keeps ``cause``."""
    failure = ProviderError(f"{what}: {cause!r}")
    failure.__cause__ = cause
    for *_, ticket in waiters:
        ticket.fail(failure)


class EpochBatcher:
    """Accumulates pending log insertions; commits one epoch per tick."""

    #: Lock contract, checked by `repro.lintkit`'s lock-discipline pass:
    #: every listed attribute may only be written inside a ``with`` block
    #: over one of its locks (``_drained`` is a Condition wrapping
    #: ``_lock``, so holding either serializes the same state).  ``_wake``
    #: is deliberately absent: a ``threading.Event`` is thread-safe on its
    #: own, is bound once, and ``submit`` sets it *after* leaving the lock.
    _GUARDED_BY = {
        "_waiters": ("_lock", "_drained"),
        "_leases": ("_lock", "_drained"),
        "_lease_shards": ("_lock", "_drained"),
        "_lane_blocked_since": ("_lock", "_drained"),
        "epochs_run": ("_lock", "_drained"),
        "sessions_served": ("_lock", "_drained"),
        "lease_timeouts": ("_lock", "_drained"),
        "lease_timeouts_by_shard": ("_lock", "_drained"),
        "epoch_failures": ("_lock", "_drained"),
        "epoch_sessions": ("_lock", "_drained"),
        "epoch_digests": ("_lock", "_drained"),
        "abandoned_sessions": ("_lock", "_drained"),
        "tick_failures": ("_lock", "_drained"),
        "_last_epoch_end": ("_lock", "_drained"),
    }

    def __init__(
        self,
        provider: ServiceProvider,
        lane_runner: Callable[[Sequence[int]], Dict[int, Optional[BaseException]]],
        lease_timeout: float = 10.0,
    ) -> None:
        """``lane_runner`` commits the epochs: called with the lane indices
        that have work and no outstanding lease this tick, it must commit
        one epoch per listed lane (typically in parallel) and return a
        per-lane outcome map (``None`` = committed, exception = that lane
        failed and rolled back).  The service passes a runner that fans
        the lanes out to its lane workers, every per-device protocol call
        routed through that device's FIFO worker."""
        self._provider = provider
        self._lane_runner = lane_runner
        self._lease_timeout = lease_timeout
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        # (username, attempt, identifier, commitment, ticket) awaiting a tick
        self._waiters: List[Tuple[str, int, bytes, bytes, EpochTicket]] = []
        # shard lane -> (username, attempt) sessions served by that lane's
        # last epoch and still in their share phase — their inclusion proofs
        # pin the current digest.  A lane absent (or empty) is drained.
        self._leases: Dict[int, Set[Tuple[str, int]]] = {}
        # (username, attempt) -> shard lane: release() only knows the
        # session key, and must not re-derive the shard (identifiers are
        # gone by then).  A key absent here holds no lease anywhere — a
        # straggler's late release resolves to a no-op through this map.
        self._lease_shards: Dict[Tuple[str, int], int] = {}
        # shard lane -> monotonic time the lane first deferred a tick on
        # outstanding leases.  Persists across ticks: a deferred lane is
        # skipped, not waited on, so its lease_timeout is measured from the
        # first deferral rather than from any single tick's start.
        self._lane_blocked_since: Dict[int, float] = {}
        # Demand signal for whoever drives the ticks (the service's ticker):
        # set once a waiter is queued, or a lane drains with waiters queued.
        self._wake = threading.Event()
        # monotonic time the last tick that ran a lane epoch returned; idle
        # ticks and ticks that only deferred do not move it.
        self._last_epoch_end: Optional[float] = None
        self.epochs_run = 0
        self.sessions_served = 0
        self.lease_timeouts = 0
        #: per-shard split of ``lease_timeouts`` (every dropped straggler
        #: counts one, attributed to its lane)
        self.lease_timeouts_by_shard: Dict[int, int] = {}
        self.epoch_failures = 0
        #: sessions that timed out in ``wait`` before their epoch landed —
        #: served without a lease (the waiter is gone; see EpochTicket)
        self.abandoned_sessions = 0
        #: ticks that raised (their unserved tickets were failed; see ``tick``)
        self.tick_failures = 0
        #: sessions served per epoch, newest-last (stress tests assert on it)
        self.epoch_sessions: Deque[int] = deque(maxlen=_HISTORY_LIMIT)
        #: digest after each committed epoch (proof-validity cross-checks)
        self.epoch_digests: Deque[bytes] = deque(maxlen=_HISTORY_LIMIT)

    @property
    def lock(self) -> threading.Lock:
        """Serializes log access; hold it for any out-of-band log reads."""
        return self._lock

    def submit(self, username: str, attempt: int, commitment: bytes) -> EpochTicket:
        """Queue one log insertion for the next epoch.

        A rejected insertion fails the ticket instead of raising: KeyError
        for a duplicate identifier, ValueError for a malformed session
        (``attempt_identifier`` refuses reserved characters in the username
        and negative attempt numbers).  Either way the caller gets a
        :class:`ProviderError` from ``wait`` and the batch is unaffected.
        """
        ticket = EpochTicket()
        with self._lock:
            try:
                identifier = self._provider.log_recovery_attempt(
                    username, attempt, commitment
                )
            except (KeyError, ValueError) as exc:
                ticket.fail(ProviderError(str(exc)))
                return ticket
            self._waiters.append((username, attempt, identifier, commitment, ticket))
        # After the append (never before): a driver that wakes on this finds
        # the waiter queued, so no wake-up is lost — at worst one is spent
        # on a tick that already took the waiter.
        self._wake.set()
        return ticket

    def wait_for_demand(self, timeout: float) -> None:
        """Sleep until a session is queued, a lane drains with sessions
        queued, or :meth:`wake` is called — at most ``timeout`` seconds.

        For the thread that drives the ticks.  The signal is consumed here,
        before the caller's ``tick`` swaps the queue: a ``submit`` landing
        in between finds its waiter taken by that tick and costs one idle
        tick afterwards, never a missed one.
        """
        self._wake.wait(timeout)
        self._wake.clear()

    def wake(self) -> None:
        """End a :meth:`wait_for_demand` now (shutdown)."""
        self._wake.set()

    def quiet_remaining(self, period: float) -> float:
        """Seconds until ``period`` has passed since the last tick that ran
        a lane epoch returned (zero or negative: it has).

        Keyed on a lane having *run* — committed or rolled back — not on
        sessions served: an epoch of out-of-band insertions serves nobody,
        and an idle tick ran nothing.
        """
        with self._lock:
            if self._last_epoch_end is None:
                return 0.0
            return self._last_epoch_end + period - time.monotonic()

    def pending_sessions(self) -> int:
        """How many submitted sessions are waiting for the next tick."""
        with self._lock:
            return len(self._waiters)

    def tick(self) -> int:
        """Commit one epoch per runnable lane; returns the sessions served.

        An idle tick (nothing submitted, nothing pending) returns
        immediately via an O(1) emptiness probe — it neither snapshots the
        pending queue nor drains leases it has no epoch to break.

        Lanes are independent: a lane runs as soon as *its* leases are
        drained.  A lane still mid-share-phase is *deferred*, not waited on
        — its waiters are requeued for the next tick and its block is timed
        from the first deferral (``_lane_blocked_since``), so its leases
        still expire after ``lease_timeout`` even though no tick sat
        blocking on them; a straggler on one shard therefore never delays
        another shard's epoch.  Only when *no* lane with work is runnable —
        always the case for the lone lane of an unsharded log — does the
        tick block, until the earliest lane drains or times out.

        Each runnable lane gets one epoch; a failed lane fails only the
        tickets routed to it (the lane itself rolled back, and the batcher
        stays alive to serve later sessions), and ``epochs_run`` /
        ``epoch_failures`` count per lane epoch.  The combined root is
        recorded once, after every lane has settled — and only if at least
        one lane committed: a tick where *every* lane failed changed no
        digest, so appending a history row for it would desynchronize
        ``epoch_sessions``/``epoch_digests`` from the epochs that actually
        happened.

        An exception other than a lane's own failure (which is an outcome,
        above) escapes: before it does, every ticket this tick took off the
        queue and had not served is failed with a :class:`ProviderError`
        whose ``__cause__`` is the exception, and ``tick_failures`` counts
        one.  Whether it returns or raises, a tick that got as far as
        running lanes stamps the clock ``quiet_remaining`` reads.
        """
        with self._drained:
            log = self._provider.log
            if not self._waiters and not log.has_pending:
                return 0
            # lane -> waiters this tick has taken off the queue and not put
            # back: the ones a raising tick must fail rather than orphan.
            by_shard: Dict[int, List[Tuple]] = {}
            lanes_ran = False
            try:
                num_shards = log.num_shards
                while True:
                    waiters, self._waiters = self._waiters, []
                    by_shard = {}
                    for waiter in waiters:
                        by_shard.setdefault(
                            shard_of(waiter[2], num_shards), []
                        ).append(waiter)
                    wanted = sorted(set(by_shard) | set(log.shards_with_pending()))
                    now = time.monotonic()
                    ready: List[int] = []
                    deferred: List[int] = []
                    for shard in wanted:
                        if not self._leases.get(shard):
                            self._lane_blocked_since.pop(shard, None)
                            ready.append(shard)
                            continue
                        since = self._lane_blocked_since.setdefault(shard, now)
                        if now - since >= self._lease_timeout:
                            # Stragglers lose their lease; if still alive they
                            # will refresh their proofs through the provider.
                            self._expire_lane(shard)
                            ready.append(shard)
                        else:
                            deferred.append(shard)
                    if ready:
                        if deferred:
                            held = set(deferred)
                            self._waiters[:0] = [
                                w for w in waiters if shard_of(w[2], num_shards) in held
                            ]
                            for shard in held:
                                by_shard.pop(shard, None)
                        break
                    if not wanted:
                        return 0
                    # Every lane with work is mid-share-phase: requeue
                    # everything and block until the earliest lane drains or
                    # times out.
                    self._waiters[:0] = waiters
                    by_shard = {}
                    earliest = min(self._lane_blocked_since[s] for s in deferred)
                    remaining = earliest + self._lease_timeout - now
                    if remaining > 0:
                        self._drained.wait(remaining)
                lanes_ran = True
                outcomes = self._lane_runner(ready)
                served = 0
                committed_lanes = 0
                for shard in ready:
                    error = outcomes.get(shard)
                    shard_waiters = by_shard.get(shard, [])
                    if error is not None:
                        self.epoch_failures += 1
                        _fail_tickets(shard_waiters, f"shard {shard} epoch failed", error)
                        continue
                    self.epochs_run += 1
                    committed_lanes += 1
                    served += self._serve_waiters(shard_waiters, shard)
                if committed_lanes:
                    self.epoch_sessions.append(served)
                    self.epoch_digests.append(log.digest)
                return served
            except Exception as exc:
                # Sessions already served keep their proofs and leases (the
                # lanes committed; ``fail`` does not land on them); the rest
                # get a typed error now instead of a session_timeout later.
                self.tick_failures += 1
                for shard_waiters in by_shard.values():
                    _fail_tickets(shard_waiters, "epoch tick failed", exc)
                raise
            finally:
                if lanes_ran:
                    self._last_epoch_end = time.monotonic()

    # lint: unguarded[called only with self._lock held (tick's defer path)]
    def _expire_lane(self, shard: int) -> None:
        """Drop every straggler lease on ``shard``, counting each one in
        ``lease_timeouts`` and the per-shard split."""
        leases = self._leases.pop(shard, None)
        self._lane_blocked_since.pop(shard, None)
        if not leases:
            return
        for key in leases:
            self._lease_shards.pop(key, None)
        self.lease_timeouts += len(leases)
        self.lease_timeouts_by_shard[shard] = self.lease_timeouts_by_shard.get(
            shard, 0
        ) + len(leases)

    # lint: unguarded[called only from tick(), with self._drained held]
    def _serve_waiters(self, waiters: List[Tuple], shard: int) -> int:
        """Resolve each waiter with its inclusion proof; returns the count
        actually served.  Called with ``self._drained`` held.  Each lease
        is filed under ``shard``'s lane.

        A ticket whose session already timed out and abandoned it gets no
        epoch lease — the waiter is gone and would never ``release``, and
        one leaked lease stalls its lane's next epoch for the whole
        ``lease_timeout`` (its entry is committed regardless; the client
        retries with a fresh attempt).
        """
        served = 0
        for username, attempt, identifier, commitment, ticket in waiters:
            proof = self._provider.log.prove_includes(identifier, commitment)
            if proof is None:  # pragma: no cover - insert guarantees presence
                ticket.fail(ProviderError("inclusion proof unavailable after epoch"))
                continue
            if not ticket.resolve((identifier, proof)):
                self.abandoned_sessions += 1
                continue
            key = (username, attempt)
            self._leases.setdefault(shard, set()).add(key)
            self._lease_shards[key] = shard
            self.sessions_served += 1
            served += 1
        return served

    def release(self, username: str, attempt: int) -> None:
        """Drop a session's epoch lease (its share phase is over).

        A late release — arriving after the lease was already dropped by a
        timeout expiry — is a harmless no-op: the reverse map no longer
        knows the session, so no lane's lease set is touched and no blocked
        tick is woken (a straggler cannot wake the wrong lane).
        """
        key = (username, attempt)
        with self._drained:
            shard = self._lease_shards.pop(key, None)
            if shard is None:
                return
            leases = self._leases.get(shard)
            if leases is None:  # pragma: no cover - maps move in lockstep
                return
            leases.discard(key)
            if leases:
                return
            del self._leases[shard]
            self._lane_blocked_since.pop(shard, None)
            self._drained.notify_all()
            if self._waiters:  # a deferred lane just became runnable
                self._wake.set()

    def outstanding_leases(self, shard: Optional[int] = None) -> int:
        """Sessions served by a committed epoch and still mid-share-phase —
        across all lanes, or on one ``shard``'s lane."""
        with self._lock:
            if shard is None:
                return sum(len(lane) for lane in self._leases.values())
            return len(self._leases.get(shard, ()))

    def stats(self) -> dict:
        """Counter snapshot; the recovery service merges this into its own
        ``stats()``.  ``lease_timeouts_by_shard`` /
        ``outstanding_leases_by_shard`` expose the per-lane split."""
        with self._lock:
            return {
                "epochs_run": self.epochs_run,
                "sessions_served": self.sessions_served,
                "epoch_sessions": list(self.epoch_sessions),
                "lease_timeouts": self.lease_timeouts,
                "lease_timeouts_by_shard": dict(self.lease_timeouts_by_shard),
                "epoch_failures": self.epoch_failures,
                "abandoned_sessions": self.abandoned_sessions,
                "tick_failures": self.tick_failures,
                "outstanding_leases": sum(
                    len(lane) for lane in self._leases.values()
                ),
                "outstanding_leases_by_shard": {
                    shard: len(lane)
                    for shard, lane in sorted(self._leases.items())
                },
                "pending_sessions": len(self._waiters),
            }
