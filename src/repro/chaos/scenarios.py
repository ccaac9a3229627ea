"""The chaos scenario catalog: declarative specs the engine interprets.

A :class:`Scenario` is a frozen value object — deployment shape, modeled
population and diurnal traffic curve, and fault schedule — so a campaign
run is fully identified by ``(scenario name, seed)`` and a replay file
needs to store nothing else.  All schedule times are expressed as
*fractions of the horizon* so :meth:`Scenario.quick` can shrink a
scenario for the CI fast lane without moving any fault relative to the
traffic around it.

The catalog (``SCENARIOS``) covers the axes the paper's evaluation
claims span: diurnal load at a 10⁶-user modeled population, device-loss/
replacement waves (Figure 11's cluster-size failure tolerance), geo
partitions and flaky provider RPC, crash/restore of the durable provider
(clean and mid-epoch), and adversarial clients mixed into honest
traffic.  ``demo_log_tamper`` deliberately corrupts the log so the
violation → replay-file → exact-replay pipeline can be demonstrated and
CI-tested; it is excluded from the default campaign.

Thread safety: scenarios are immutable data; share freely.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Scenario:
    """Everything that defines one chaos campaign scenario.

    Fault-schedule entries use horizon fractions in ``[0, 1)``:

    - ``device_loss``: ``(when, count, restore_after)`` — fail ``count``
      random live HSMs at ``when``; restart exactly that batch
      ``restore_after`` later (``restore_after <= 0`` = never replaced);
    - ``partitions``: ``(start, duration, fraction)`` — that fraction of
      the fleet becomes unreachable at the channel level (devices stay
      healthy: a *network* partition, not a device loss);
    - ``flaky``: ``(start, duration, ok_weight)`` — clients created in
      the window speak provider RPC through a seeded
      :class:`~repro.sim.faults.FlakyProviderChannel`;
    - ``crash_at``: clean provider crash-restore points (journal replay +
      reconcile; requires ``durable``);
    - ``mid_epoch_crash_at``: arms the :class:`CrashingBlockStore` so the
      next epoch's journal write kills the process mid-transaction
      (requires ``durable`` and ``crashing_store``);
    - ``adversary_at``: a brute-force PIN attacker runs against a fresh
      victim account (must be refused past the attempt budget);
    - ``tamper_at``: deliberately corrupt a committed log entry (demo
      scenarios only — this *must* trip the digest-chain invariant).
    """

    name: str
    description: str
    horizon: float = 86_400.0  # one modeled day of virtual time
    # -- deployment shape ------------------------------------------------------
    num_hsms: int = 8
    cluster_size: int = 4
    shards: int = 1
    max_punctures: int = 96
    durable: bool = False
    crashing_store: bool = False
    # -- modeled population / traffic -----------------------------------------
    modeled_users: int = 1_000_000
    base_rate: float = 0.12  # ≈10⁴ recoveries/day across the modeled million
    diurnal_amplitude: float = 0.6
    waves: int = 12  # traffic is drawn in horizon/waves windows
    live_every: int = 400  # every Nth modeled arrival becomes a live session
    max_live_sessions: int = 30
    wrong_pin_fraction: float = 0.1
    session_spread_seconds: float = 45.0  # virtual begin->shares/finish gap
    # -- maintenance & invariant sweeps ---------------------------------------
    check_points: int = 8
    rotation_points: int = 4
    gc_at: Tuple[float, ...] = ()
    # -- fault schedule (horizon fractions) -----------------------------------
    device_loss: Tuple[Tuple[float, int, float], ...] = ()
    partitions: Tuple[Tuple[float, float, float], ...] = ()
    flaky: Tuple[Tuple[float, float, int], ...] = ()
    crash_at: Tuple[float, ...] = ()
    mid_epoch_crash_at: Optional[float] = None
    adversary_at: Tuple[float, ...] = ()
    tamper_at: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject configurations the engine cannot execute."""
        if (self.crash_at or self.mid_epoch_crash_at is not None) and not self.durable:
            raise ValueError(f"{self.name}: crash points require durable=True")
        if self.mid_epoch_crash_at is not None and not self.crashing_store:
            raise ValueError(f"{self.name}: mid-epoch crash requires crashing_store")
        if not 1 <= self.shards <= self.num_hsms:
            raise ValueError(f"{self.name}: bad shard count")

    def quick(self) -> "Scenario":
        """A CI-fast-lane variant: same shape and fault fractions, ~1/5 of
        the virtual day and a tight live-session cap."""
        return dataclasses.replace(
            self,
            horizon=self.horizon / 5.0,
            waves=max(4, self.waves // 3),
            max_live_sessions=min(self.max_live_sessions, 8),
            live_every=max(60, self.live_every // 4),
            check_points=max(4, self.check_points // 2),
            # Preserve a deliberate zero (e.g. kill_mid_epoch keeps the armed
            # crash inside an epoch by scheduling no rotations at all).
            rotation_points=(
                0 if self.rotation_points == 0 else max(2, self.rotation_points // 2)
            ),
        )


def _catalog(*scenarios: Scenario) -> Dict[str, Scenario]:
    """Index scenarios by name, refusing duplicates."""
    out: Dict[str, Scenario] = {}
    for scenario in scenarios:
        if scenario.name in out:
            raise ValueError(f"duplicate scenario {scenario.name!r}")
        out[scenario.name] = scenario
    return out


#: The default campaign catalog, in the order the campaign runs them.
SCENARIOS: Dict[str, Scenario] = _catalog(
    Scenario(
        name="baseline_diurnal",
        description=(
            "Honest diurnal traffic over a 10^6-user modeled population;"
            " rotation + GC maintenance, no faults.  The determinism and"
            " zero-violation floor."
        ),
        gc_at=(0.55,),
    ),
    Scenario(
        name="device_loss_wave",
        description=(
            "Two device-loss waves (Figure 11 scale, relative to the fleet):"
            " the first batch is replaced after a quarter-day, the second is"
            " never replaced — recoveries must keep meeting the threshold or"
            " fail with typed errors only."
        ),
        device_loss=((0.30, 2, 0.25), (0.70, 2, 0.0)),
    ),
    Scenario(
        name="geo_partition",
        description=(
            "Half the fleet becomes unreachable at the channel level for a"
            " fifth of the day (devices stay healthy), then a flaky-provider"
            " window injects frame drops/corruption into the RPC leg."
        ),
        partitions=((0.35, 0.20, 0.5),),
        flaky=((0.65, 0.15, 5),),
    ),
    Scenario(
        name="crash_restart",
        description=(
            "A durable two-lane deployment is crash-restored twice between"
            " epochs (journal replay + reconcile); sessions in flight across"
            " a crash abort and later traffic re-proves liveness."
        ),
        durable=True,
        shards=2,
        crash_at=(0.40, 0.75),
    ),
    Scenario(
        name="kill_mid_epoch",
        description=(
            "The block store is armed so the provider process dies inside an"
            " epoch's journal transaction; restore must reconcile the open"
            " intent atomically (complete or vanish, never half)."
        ),
        durable=True,
        crashing_store=True,
        shards=2,
        rotation_points=0,  # keep the armed crash inside an epoch, not a rotation
        mid_epoch_crash_at=0.5,
    ),
    Scenario(
        name="adversarial_mix",
        description=(
            "Brute-force PIN attackers interleave with honest diurnal traffic"
            " (plus a small un-replaced device loss); every attacker must be"
            " refused past the attempt budget while honest sessions keep"
            " recovering."
        ),
        adversary_at=(0.30, 0.60),
        device_loss=((0.45, 1, 0.0),),
    ),
    Scenario(
        name="gc_under_device_loss",
        description=(
            "Two devices are down across a log GC and return after it; later"
            " rounds must keep certifying while they sit in the old generation."
        ),
        device_loss=((0.40, 2, 0.25),),
        gc_at=(0.55,),
    ),
)

#: The CI fast lane runs these (in .quick() form).
QUICK_SCENARIOS: Tuple[str, ...] = (
    "baseline_diurnal", "device_loss_wave", "gc_under_device_loss"
)

#: The deliberately-violating demo scenario (excluded from SCENARIOS).
DEMO_SCENARIO = Scenario(
    name="demo_log_tamper",
    description=(
        "A deliberately-seeded fault: a committed log entry is rewritten"
        " behind the fleet's back mid-run.  The digest-chain invariant MUST"
        " fire at the next sweep; the run dumps a replay file that"
        " scripts/chaos_replay.py re-executes to the identical step."
    ),
    horizon=7_200.0,
    waves=4,
    live_every=120,
    max_live_sessions=4,
    check_points=12,
    rotation_points=0,
    tamper_at=0.5,
)
