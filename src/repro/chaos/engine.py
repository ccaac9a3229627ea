"""The chaos engine: executes a scenario against a real deployment.

``ChaosEngine`` interprets a :class:`~repro.chaos.scenarios.Scenario`
under a :class:`~repro.chaos.scheduler.DeterministicScheduler` and a
:class:`~repro.chaos.entropy.DeterministicEntropy` hijack, so an entire
campaign run — modeled diurnal arrivals for the million-user population,
live protocol sessions sampled out of them, device-loss waves, channel
partitions, flaky provider RPC, crash/restore, adversaries, maintenance
epochs, invariant sweeps — is a pure function of ``(scenario, seed)``.

Concurrency is cooperative, not threaded: a live recovery session is two
scheduler events (``session-begin`` runs the backup, attempt logging and
proof fetch; ``session-run`` requests shares and finishes), so sessions
genuinely interleave — an epoch committed between a session's phases
exercises the stale-proof refresh path — while the interleaving itself
stays replayable.  Crashes, key rotations and log GC bump a generation
counter that aborts sessions in flight across them (the real-world
analogue: the client retries after a maintenance window).

Failure taxonomy: *expected* failures (typed protocol errors under
injected faults) are counted; anything else — an untyped exception, a
recovery served with a wrong PIN, an invariant breach — becomes a
:class:`~repro.chaos.invariants.Violation` pinned to its step index.

Thread safety: none; one engine drives one single-threaded run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.adversary.attacks import BruteForcePinAttacker
from repro.chaos.entropy import DeterministicEntropy
from repro.chaos.invariants import Violation, run_invariant_checks
from repro.chaos.scenarios import Scenario
from repro.chaos.scheduler import DeterministicScheduler
from repro.core.client import Client, RecoveryError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError
from repro.core.wire import WireFormatError
from repro.crypto.gcm import AuthenticationError
from repro.service.channel import (
    Channel,
    DirectProviderChannel,
    ProviderWireEndpoint,
    direct_channels,
)
from repro.sim.faults import FlakyProviderChannel, FrameDropped
from repro.sim.workload import DiurnalWorkload, percentile
from repro.storage.blockstore import (
    CrashError,
    CrashingBlockStore,
    InMemoryBlockStore,
)

#: Exception types that count as *expected* (liveness) failures under
#: chaos: typed protocol/transport refusals.  Anything outside this set
#: escaping a session is an "unclean-error" violation — and ``KeyError``
#: (the log refusing a duplicate attempt identifier) is deliberately NOT
#: here, because a duplicate identifier means the attempt counters
#: regressed, which is a safety bug.
CLEAN_ERRORS: Tuple[type, ...] = (
    RecoveryError,
    ProviderError,
    WireFormatError,
    FrameDropped,
    AuthenticationError,
)


class _PartitionGate(Channel):
    """A client→HSM channel that simulates a network partition: while the
    device's index is in the engine's partitioned set, calls fail with the
    same typed unavailability the device's own fail-stop produces (the
    client treats either as a ⊥ share)."""

    def __init__(self, inner: Channel, index: int, engine: "ChaosEngine") -> None:
        """Wrap ``inner`` for device ``index``, consulting ``engine`` state."""
        self._inner = inner
        self._index = index
        self._engine = engine

    def decrypt_share(self, request):
        """Raise ``HsmUnavailableError`` while partitioned, else pass through."""
        if self._index in self._engine.partitioned:
            from repro.hsm.device import HsmUnavailableError

            raise HsmUnavailableError(
                f"hsm {self._index} unreachable (network partition)"
            )
        return self._inner.decrypt_share(request)


@dataclass
class _LiveSession:
    """Book-keeping for one sampled live protocol session."""

    sid: int
    username: str
    true_pin: str
    pin_used: str
    wrong_pin: bool
    generation: int
    modeled_latency: Optional[float]
    secret: bytes = b""
    client: Optional[Client] = None
    session: object = None


@dataclass
class ChaosReport:
    """Everything one chaos run produced, JSON-ready via :meth:`as_dict`."""

    scenario: str
    seed: int
    steps: int
    trace_digest: str
    final_log_digest: str
    counters: Dict[str, int]
    violations: List[Violation]
    modeled_arrivals: int
    live_sessions: int
    modeled_p50: float
    modeled_p99: float
    live_p50: Optional[float]
    live_p99: Optional[float]
    op_counts: Dict[str, float]
    wall_seconds: float
    trace: List[str] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        """True iff the run finished with zero invariant violations."""
        return not self.violations

    def as_dict(self, include_trace: bool = False) -> Dict[str, object]:
        """JSON-ready summary (the trace is large; opt in explicitly)."""
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "seed": self.seed,
            "steps": self.steps,
            "trace_digest": self.trace_digest,
            "final_log_digest": self.final_log_digest,
            "counters": dict(sorted(self.counters.items())),
            "violations": [v.as_dict() for v in self.violations],
            "modeled_arrivals": self.modeled_arrivals,
            "live_sessions": self.live_sessions,
            "modeled_p50_s": self.modeled_p50,
            "modeled_p99_s": self.modeled_p99,
            "live_p50_s": self.live_p50,
            "live_p99_s": self.live_p99,
            "op_counts": {k: self.op_counts[k] for k in sorted(self.op_counts)},
            "wall_seconds": self.wall_seconds,
        }
        if include_trace:
            out["trace"] = list(self.trace)
        return out


class ChaosEngine:
    """Executes one scenario at one seed; see the module docstring."""

    def __init__(self, scenario: Scenario, seed: int) -> None:
        """Bind the engine to ``(scenario, seed)``; nothing runs yet."""
        self.scenario = scenario
        self.seed = seed
        self.sched = DeterministicScheduler(seed)
        # Domain-separated randomness: one substream per concern, so adding
        # draws to one never perturbs another.
        self._sessions_rng = self.sched.substream("sessions")
        self._faults_rng = self.sched.substream("faults")
        self._adversary_rng = self.sched.substream("adversary")
        self._model_rng = self.sched.substream("queue-model")
        # Mutable world state.
        self.deployment: Optional[Deployment] = None
        self.params: Optional[SystemParams] = None
        self.store = None
        self.partitioned: Set[int] = set()
        self.generation = 0  # bumped by crash / rotation / GC: aborts in-flight
        self.served: Dict[bytes, str] = {}  # log identifier -> username
        self.usernames: List[str] = []
        self.violations: List[Violation] = []
        self.counters: Dict[str, int] = {}
        self._flaky_windows: List[Tuple[float, float, int]] = []
        self._model_free_at: Dict[int, float] = {}
        self._modeled_latencies: List[float] = []
        self._live_latencies: List[float] = []
        self._arrivals = 0
        self._live_spawned = 0
        self._live_stride = 1  # widened in _schedule to spread the sample

    # -- small helpers ---------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _violate(self, violation: Violation) -> None:
        violation.step = self.sched.step
        self.violations.append(violation)

    def _record_violations(self, violations: List[Violation]) -> None:
        for violation in violations:
            self._violate(violation)

    def _guarded(self, fn):
        """Wrap an event callback with the failure taxonomy: CrashError →
        crash-restore, clean errors → counted, anything else → violation."""

        def wrapped() -> Optional[str]:
            try:
                return fn()
            except CrashError:
                return self._crash_restore("armed-crash")
            except CLEAN_ERRORS as exc:
                self._count(f"clean:{type(exc).__name__}")
                return f"clean-failure {type(exc).__name__}"
            except Exception as exc:  # noqa: BLE001 - the whole point
                self._violate(Violation(
                    "unclean-error",
                    f"{type(exc).__name__} escaped an event: {exc}",
                ))
                return f"UNCLEAN {type(exc).__name__}"

        return wrapped

    def _flaky_ok_weight(self) -> Optional[int]:
        """The active flaky window's ok_weight at virtual now, if any."""
        for start, end, ok_weight in self._flaky_windows:
            if start <= self.sched.now < end:
                return ok_weight
        return None

    def _make_client(self, username: str) -> Client:
        """A fresh client wired through the partition gate; inside a flaky
        window its provider leg rides a seeded ``FlakyProviderChannel``."""
        deployment = self.deployment
        inner = direct_channels(deployment.fleet)
        ok_weight = self._flaky_ok_weight()
        if ok_weight is not None:
            provider = FlakyProviderChannel(
                ProviderWireEndpoint(deployment.provider),
                seed=self._faults_rng.getrandbits(32),
                ok_weight=ok_weight,
            )
        else:
            provider = DirectProviderChannel(deployment.provider)
        return Client(
            username=username,
            params=deployment.params,
            provider=provider,
            channels=lambda index: _PartitionGate(inner(index), index, self),
            mpk=deployment.fleet.master_public_key(),
        )

    # -- provisioning ----------------------------------------------------------
    def _provision(self) -> None:
        """Build the deployment the scenario describes (inside the entropy
        hijack, so HSM keygen is seed-determined too)."""
        sc = self.scenario
        params = SystemParams.for_testing(
            num_hsms=sc.num_hsms,
            cluster_size=sc.cluster_size,
            max_punctures=sc.max_punctures,
        )
        self.params = replace(params, log_shards=sc.shards)
        if sc.crashing_store:
            self.store = CrashingBlockStore()
        elif sc.durable:
            self.store = InMemoryBlockStore()
        else:
            self.store = None
        self.deployment = Deployment.create(
            self.params,
            rng=self.sched.substream("provision"),
            store=self.store,
        )
        self._model_free_at = {i: 0.0 for i in range(sc.num_hsms)}
        self.sched.note(
            "provision",
            f"hsms={sc.num_hsms} cluster={sc.cluster_size} shards={sc.shards}"
            f" durable={sc.durable}",
        )

    # -- the modeled queue (full-population tail latency) ----------------------
    def _model_job(self, t: float) -> Optional[float]:
        """Latency of one modeled recovery at virtual time ``t``: the
        threshold-th share completion across a sampled cluster of currently
        reachable HSMs, each an exponential server with its own queue.
        Returns ``None`` (counted as dropped) when fewer than ``threshold``
        devices are reachable."""
        sc = self.scenario
        fleet = self.deployment.fleet
        online = [
            i for i in range(sc.num_hsms)
            if not fleet.hsms[i].is_failed and i not in self.partitioned
        ]
        if len(online) < self.params.threshold:
            self._count("modeled-dropped")
            return None
        cluster = self._model_rng.sample(online, min(sc.cluster_size, len(online)))
        completions = []
        for index in cluster:
            start = max(t, self._model_free_at[index])
            done = start + self._model_rng.expovariate(1.0 / sc.model_service_seconds)
            self._model_free_at[index] = done
            completions.append(done)
        completions.sort()
        need = min(self.params.threshold, len(completions))
        return completions[need - 1] - t

    # -- live sessions ---------------------------------------------------------
    def _spawn_session(self, t: float, uid: int, modeled_latency: Optional[float]) -> None:
        """Sample one modeled arrival as a live protocol session."""
        sc = self.scenario
        sid = self._live_spawned
        self._live_spawned += 1
        pin_space = 10 ** self.params.pin_length
        pin_value = self._sessions_rng.randrange(pin_space)
        true_pin = f"{pin_value:0{self.params.pin_length}d}"
        wrong_pin = self._sessions_rng.random() < sc.wrong_pin_fraction
        pin_used = (
            f"{(pin_value + 1) % pin_space:0{self.params.pin_length}d}"
            if wrong_pin else true_pin
        )
        username = f"u{uid}-s{sid}"
        self.usernames.append(username)
        sess = _LiveSession(
            sid=sid,
            username=username,
            true_pin=true_pin,
            pin_used=pin_used,
            wrong_pin=wrong_pin,
            generation=self.generation,
            modeled_latency=modeled_latency,
        )
        self.sched.at(t, "session-begin", self._guarded(lambda: self._session_begin(sess)))

    def _session_begin(self, sess: _LiveSession) -> str:
        """Phase 1 of a live session: backup upload, attempt logging (an
        epoch), inclusion proof.  Schedules phase 2 a little later so other
        activity interleaves between the phases."""
        if sess.generation != self.generation:
            self._count("aborted")
            return f"sid={sess.sid} aborted (stale generation)"
        sess.client = self._make_client(sess.username)
        sess.secret = f"disk-key|{sess.username}".encode()
        try:
            sess.client.backup(sess.secret, sess.true_pin)
            sess.session = sess.client.begin_recovery(
                sess.pin_used, backup_recovery_key=False
            )
        except CLEAN_ERRORS as exc:
            self._count(f"begin-fail:{type(exc).__name__}")
            return f"sid={sess.sid} begin-failed {type(exc).__name__}"
        sess.generation = self.generation
        spread = self._sessions_rng.expovariate(1.0 / self.scenario.session_spread_seconds)
        self.sched.after(
            spread, "session-run", self._guarded(lambda: self._session_run(sess))
        )
        return f"sid={sess.sid} user={sess.username} attempt={sess.session.attempt}"

    def _session_run(self, sess: _LiveSession) -> str:
        """Phase 2: request shares from the hidden cluster and finish.  A
        wrong-PIN session *must* end in ``RecoveryError``; a right-PIN one
        that completes must return the exact secret."""
        if sess.generation != self.generation:
            self._count("aborted")
            return f"sid={sess.sid} aborted (stale generation)"
        try:
            sess.client.request_shares(sess.session, sess.pin_used)
            recovered = sess.client.finish_recovery(sess.session)
        except CLEAN_ERRORS as exc:
            if sess.wrong_pin and isinstance(exc, RecoveryError):
                self._count("wrong-pin-refused")
                return f"sid={sess.sid} wrong-pin refused"
            self._count(f"session-fail:{type(exc).__name__}")
            return f"sid={sess.sid} failed {type(exc).__name__}"
        if sess.wrong_pin:
            self._violate(Violation(
                "wrong-pin-accepted",
                f"session {sess.sid} recovered user {sess.username!r} with a"
                " wrong PIN",
            ))
            return f"sid={sess.sid} UNCLEAN wrong-pin-accepted"
        if recovered != sess.secret:
            self._violate(Violation(
                "wrong-secret",
                f"session {sess.sid} for {sess.username!r} recovered the wrong"
                " plaintext",
            ))
            return f"sid={sess.sid} UNCLEAN wrong-secret"
        self._count("recovered")
        self.served[sess.session.log_identifier] = sess.username
        if sess.modeled_latency is not None:
            self._live_latencies.append(sess.modeled_latency)
        return f"sid={sess.sid} recovered"

    # -- traffic ---------------------------------------------------------------
    def _traffic_wave(self, workload: DiurnalWorkload, start: float, end: float) -> str:
        """Draw one window of modeled arrivals; run each through the queue
        model and sample every ``live_every``-th as a live session."""
        sc = self.scenario
        spawned = 0
        arrivals = workload.arrivals(start, end)
        for t, uid in arrivals:
            self._arrivals += 1
            latency = self._model_job(t)
            if latency is not None:
                self._modeled_latencies.append(latency)
            if (
                self._arrivals % self._live_stride == 0
                and self._live_spawned < sc.max_live_sessions
            ):
                self._spawn_session(t, uid, latency)
                spawned += 1
        return f"arrivals={len(arrivals)} live={spawned}"

    # -- faults ----------------------------------------------------------------
    def _device_loss(self, count: int, restore_after: float) -> str:
        """Fail-stop ``count`` random live devices; maybe schedule their
        replacement batch."""
        fleet = self.deployment.fleet
        count = min(count, len(fleet.online()))
        victims = fleet.fail_random(count, rng=self._faults_rng)
        self._count("devices-failed", count)
        if restore_after > 0:
            delay = restore_after * self.scenario.horizon

            def _restore() -> str:
                self.deployment.fleet.restart(victims)
                self._count("devices-replaced", len(victims))
                return f"replaced {sorted(victims)}"

            self.sched.after(delay, "device-replace", self._guarded(_restore))
        return f"failed {sorted(victims)} replace={restore_after > 0}"

    def _partition_start(self, fraction: float) -> str:
        """Make a random fraction of the fleet unreachable at channel level."""
        n = self.scenario.num_hsms
        count = max(1, round(fraction * n))
        self.partitioned = set(self._faults_rng.sample(range(n), count))
        self._count("partitions")
        return f"partitioned {sorted(self.partitioned)}"

    def _partition_end(self) -> str:
        """Heal the partition."""
        healed = sorted(self.partitioned)
        self.partitioned = set()
        return f"healed {healed}"

    def _crash_restore(self, label: str) -> str:
        """Kill the provider process and rebuild it from the journal (the
        fleet — separate tamper-resistant hardware — survives).  In-flight
        sessions abort via the generation bump; the full journal-replay
        invariant runs immediately after the restore."""
        self.generation += 1
        fleet = self.deployment.fleet
        if isinstance(self.store, CrashingBlockStore):
            self.store = self.store.blocks  # the durable image, disarmed
        self.deployment = Deployment.restore(self.params, self.store, fleet)
        self._count("crash-restores")
        self._record_violations(run_invariant_checks(
            self.deployment.provider, self.usernames, self.served,
            include_journal=True,
        ))
        return f"{label}: restored; post-restore checks ran"

    def _arm_crash(self) -> str:
        """Arm the crashing store so an upcoming journal write dies
        mid-transaction."""
        self.store.crash_after(3)
        return "store armed: 3 puts to live"

    # -- maintenance -----------------------------------------------------------
    def _rotate(self) -> str:
        """Run the daily key-rotation sweep; any rotation invalidates
        in-flight sessions (their key material is stale)."""
        rotated = self.deployment.rotate_keys_if_needed()
        if rotated:
            self.generation += 1
            self._count("rotations", len(rotated))
        return f"rotated={sorted(rotated)}"

    def _garbage_collect(self) -> str:
        """Garbage-collect the log (resets attempt budgets, clears entries);
        the served-session registry resets with it and in-flight sessions
        abort (their inclusion proofs no longer verify)."""
        self.deployment.garbage_collect_log()
        self.served.clear()
        self.generation += 1
        self._count("garbage-collections")
        return "log compacted; served-registry reset"

    def _adversary(self, index: int) -> str:
        """Provision a victim, then brute-force PINs through the legitimate
        recovery protocol.  The attack succeeding — or the log holding more
        attempts than the budget — is a violation."""
        victim = f"victim-{index}"
        self.usernames.append(victim)
        pin_space = 10 ** self.params.pin_length
        true_value = self._adversary_rng.randrange(pin_space)
        true_pin = f"{true_value:0{self.params.pin_length}d}"
        self._make_client(victim).backup(f"victim-secret-{index}".encode(), true_pin)
        attacker = BruteForcePinAttacker(lambda: self._make_client(victim), victim)
        budget = self.params.max_attempts_per_user
        wrong_pins = [
            f"{(true_value + 1 + i) % pin_space:0{self.params.pin_length}d}"
            for i in range(budget + 2)
        ]
        stolen = attacker.run(wrong_pins)
        if stolen is not None:
            self._violate(Violation(
                "adversary-success",
                f"brute-force attacker recovered {victim!r}'s secret",
            ))
        logged = len(self.deployment.provider.recovery_attempts_for(victim))
        if logged > budget:
            self._violate(Violation(
                "attempt-budget",
                f"log holds {logged} attempts for {victim!r}, over the"
                f" budget of {budget}",
            ))
        self._count("adversaries-blocked" if stolen is None else "adversaries-won")
        return f"victim={victim} guesses={attacker.guesses_made} logged={logged}"

    def _tamper(self) -> str:
        """Deliberately rewrite a committed log entry in place (the demo
        fault): the next digest-chain sweep MUST flag it."""
        log = self.deployment.provider.log
        component = log.shards[0]
        identifier, value = component.ordered_entries[-1]
        component.ordered_entries[-1] = (identifier, value + b"|tampered")
        return f"rewrote entry {identifier.hex()[:16]}"

    def _invariant_sweep(self) -> str:
        """One continuous-evaluation pass of the cheap safety checkers."""
        found = run_invariant_checks(
            self.deployment.provider, self.usernames, self.served
        )
        self._record_violations(found)
        return "ok" if not found else f"VIOLATIONS={len(found)}"

    # -- schedule assembly -----------------------------------------------------
    def _schedule(self) -> None:
        """Translate the scenario's declarative schedule into events."""
        sc = self.scenario
        horizon = sc.horizon
        # Stretch the live-session stride so the sampled sessions spread over
        # the whole horizon instead of exhausting the cap in the first wave —
        # faults scheduled late in the day must still see live traffic.
        expected_arrivals = int(sc.base_rate * horizon)
        self._live_stride = max(
            sc.live_every,
            max(1, expected_arrivals // max(1, sc.max_live_sessions)),
        )
        workload = DiurnalWorkload(
            base_rate=sc.base_rate,
            amplitude=sc.diurnal_amplitude,
            period=horizon,
            num_users=sc.modeled_users,
            rng=self.sched.substream("workload"),
        )
        window = horizon / sc.waves
        for wave in range(sc.waves):
            start, end = wave * window, (wave + 1) * window
            self.sched.at(
                start, "traffic-wave",
                self._guarded(
                    lambda s=start, e=end: self._traffic_wave(workload, s, e)
                ),
            )
        for i in range(1, sc.check_points + 1):
            self.sched.at(
                i * horizon / (sc.check_points + 1), "invariant-check",
                self._guarded(self._invariant_sweep),
            )
        for i in range(1, sc.rotation_points + 1):
            self.sched.at(
                i * horizon / (sc.rotation_points + 1), "rotation",
                self._guarded(self._rotate),
            )
        for frac in sc.gc_at:
            self.sched.at(frac * horizon, "gc", self._guarded(self._garbage_collect))
        for frac, count, restore_after in sc.device_loss:
            self.sched.at(
                frac * horizon, "device-loss",
                self._guarded(
                    lambda c=count, r=restore_after: self._device_loss(c, r)
                ),
            )
        for start, duration, fraction in sc.partitions:
            self.sched.at(
                start * horizon, "partition-start",
                self._guarded(lambda f=fraction: self._partition_start(f)),
            )
            self.sched.at(
                (start + duration) * horizon, "partition-end",
                self._guarded(self._partition_end),
            )
        for start, duration, ok_weight in sc.flaky:
            self._flaky_windows.append(
                (start * horizon, (start + duration) * horizon, ok_weight)
            )
        for frac in sc.crash_at:
            self.sched.at(
                frac * horizon, "crash",
                self._guarded(lambda: self._crash_restore("clean-crash")),
            )
        if sc.mid_epoch_crash_at is not None:
            self.sched.at(
                sc.mid_epoch_crash_at * horizon, "arm-crash",
                self._guarded(self._arm_crash),
            )
        for i, frac in enumerate(sc.adversary_at):
            self.sched.at(
                frac * horizon, "adversary",
                self._guarded(lambda idx=i: self._adversary(idx)),
            )
        if sc.tamper_at is not None:
            self.sched.at(
                sc.tamper_at * horizon, "tamper", self._guarded(self._tamper)
            )

    # -- entry point -----------------------------------------------------------
    def run(
        self,
        stop_on_violation: bool = True,
        max_steps: Optional[int] = None,
    ) -> ChaosReport:
        """Execute the scenario; returns the :class:`ChaosReport`.

        ``stop_on_violation=True`` halts at the first violating step so the
        step index in the replay file is the last line of the trace;
        ``max_steps`` lets the replay harness stop exactly at a recorded
        step.
        """
        wall_start = time.monotonic()
        with DeterministicEntropy(self.seed):
            self._provision()
            self._schedule()
            stop = (lambda: bool(self.violations)) if stop_on_violation else None
            self.sched.run(max_steps=max_steps, stop=stop)
            if not self.violations or not stop_on_violation:
                final = run_invariant_checks(
                    self.deployment.provider, self.usernames, self.served,
                    include_journal=self.deployment.provider.journal is not None,
                )
                self._record_violations(final)
                self.sched.note(
                    "final-check",
                    "ok" if not final else f"VIOLATIONS={len(final)}",
                )
        return ChaosReport(
            scenario=self.scenario.name,
            seed=self.seed,
            steps=self.sched.step,
            trace_digest=self.sched.trace_digest(),
            final_log_digest=self.deployment.provider.log.digest.hex(),
            counters=dict(sorted(self.counters.items())),
            violations=list(self.violations),
            modeled_arrivals=self._arrivals,
            live_sessions=self._live_spawned,
            modeled_p50=percentile(self._modeled_latencies, 0.50),
            modeled_p99=percentile(self._modeled_latencies, 0.99),
            live_p50=(
                percentile(self._live_latencies, 0.50)
                if self._live_latencies else None
            ),
            live_p99=(
                percentile(self._live_latencies, 0.99)
                if self._live_latencies else None
            ),
            op_counts=self.deployment.fleet.total_op_counts(),
            wall_seconds=time.monotonic() - wall_start,
            trace=list(self.sched.trace),
        )


def run_scenario(
    scenario: Scenario,
    seed: int,
    quick: bool = False,
    stop_on_violation: bool = True,
    max_steps: Optional[int] = None,
) -> ChaosReport:
    """Run ``scenario`` (optionally its :meth:`~Scenario.quick` variant) at
    ``seed`` and return the report — the one-call API the campaign runner,
    the replay harness, and the tests all share."""
    if quick:
        scenario = scenario.quick()
    engine = ChaosEngine(scenario, seed)
    return engine.run(stop_on_violation=stop_on_violation, max_steps=max_steps)
