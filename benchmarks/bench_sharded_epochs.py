"""Sharded epoch lanes: epoch-preparation throughput at 4 shards vs 1.

Drives the same insertion workload through an unsharded deployment and a
4-shard deployment (committee certification + parallel lanes) and measures
epoch-preparation throughput (insertions committed per second of epoch
work) two ways:

- **cpu mode** — in-process devices, no simulated latency.  Isolates the
  *algorithmic* win of committee certification: each shard's epoch is
  audited and signed by its own N/S-device committee, so per-round
  aggregate-verification work falls from N·⌈q·N⌉ to N·⌈q·N/S⌉ signatures
  (a certificate carries a quorum; plus smaller per-shard chunk trees),
  while off-committee devices adopt foreign transitions lazily.
- **device mode** — every epoch-protocol device call pays a fixed service
  latency (SoloKey-class hardware is *slow*: the paper's Table 2 puts one
  P-256 multiplication at ~1.2 s, so tens of milliseconds per protocol
  call is generous).  Both shapes run through the service's lane workers:
  the unsharded log's lone lane visits all N devices serially; the sharded
  tick fans one lane per shard across disjoint committees, overlapping the
  waits.  This isolates the *parallelism* win.

A third lane pushes the shard count into the hundreds (S=64 and S=256,
HSM-free lane stubs) and measures the two costs that used to cap S:

- **idle-lane tick cost** — a tick with nothing submitted and nothing
  pending must return via the O(1) ``has_pending`` probe, even while a
  straggler session holds an epoch lease (the old global drain would sit
  out the full ``lease_timeout``);
- **busy-lane independence** — with one shard's session holding its lease,
  every other lane's tick must commit unimpeded: tick latency stays
  milliseconds-scale and independent of S, never ``lease_timeout``-bound;
- **root maintenance** — after one shard commits, re-reading the
  cross-shard root must hash only the dirty O(log S) path, stay
  byte-identical to a from-scratch ``cross_shard_root`` recompute, and
  cost a small fraction of it.

Acceptance gates (exit code 1 on regression):

- cpu-mode speedup at 4 shards >= 1.5x, and device-mode speedup >= 1.5x;
- the fixed seeded workload at shards=1 meters *exactly* the seed's
  operation counts and digest (sharding must cost nothing when off; the
  workload and its constants live in ``tests/unsharded_invariance.py``);
- at S=64 and S=256 with one lane held busy: idle ticks < 10 ms, busy-lane
  tick latency < 5% of ``lease_timeout`` and S-independent (S=256/S=64
  median ratio <= 8), incremental root byte-identical to the from-scratch
  recompute with >= 8x fewer hash blocks (O(log S) path vs O(S) rebuild).

Results go to stdout and to the machine-readable
``benchmarks/out/BENCH_sharded_epochs.json`` (schema 1, see
``docs/BENCH_SCHEMA.md``).

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_sharded_epochs.py [--quick]``
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import random
import statistics
import sys
import time

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ServiceProvider
from repro.log.distributed import LogConfig
from repro.log.sharded import cross_shard_root
from repro.metering import OpMeter
from repro.service.batcher import EpochBatcher
from repro.service.recovery import _EPOCH_METHODS

try:
    from reporting import emit, table
except ImportError:  # running as a module from the repo root
    from benchmarks.reporting import emit, table

# The shards=1 workload and its constants are the test suite's.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from unsharded_invariance import SEED_AMBIENT, invariance_counts, invariance_moved  # noqa: E402

SHARDS = 4
HSMS = 8
CLUSTER = 3

GATES = {"cpu_speedup": 1.5, "device_speedup": 1.5}

#: Hundreds-of-shards lane: S values, the (generous) lease timeout one lane
#: is held busy against, and the gate bounds derived from it.
SCALE_SHARDS = (64, 256)
SCALE_LEASE_TIMEOUT = 30.0
SCALE_IDLE_TICK_BOUND = 0.010  # seconds; real cost is microseconds
SCALE_BUSY_TICK_FRACTION = 0.05  # of SCALE_LEASE_TIMEOUT
SCALE_LATENCY_RATIO_BOUND = 8.0  # S=256 vs S=64 median busy-tick ratio
SCALE_ROOT_RATIO_BOUND = 8.0  # from-scratch vs incremental hash blocks

class SlowDevice:
    """An HSM whose epoch-protocol calls pay a fixed service latency.

    Models the serial-link device of the paper's deployment; the sleep
    releases the GIL, so waits overlap across devices exactly as real
    hardware would.  The delayed calls are the service's own list of the
    epoch rounds a device's FIFO serializes (``_EPOCH_METHODS``), so a round
    added there pays the link too.  (Offers stay free: they are an
    asynchronous enqueue.)
    """

    def __init__(self, device, delay: float) -> None:
        self._device = device
        self._delay = delay

    def __getattr__(self, name):
        attr = getattr(self._device, name)
        if name in _EPOCH_METHODS:
            def slow_call(*args, **kwargs):
                time.sleep(self._delay)
                return attr(*args, **kwargs)

            return slow_call
        return attr


def _params() -> SystemParams:
    return SystemParams.for_testing(num_hsms=HSMS, cluster_size=CLUSTER, audit_count=2)


def _deployment(shards: int) -> Deployment:
    return Deployment.create(
        dataclasses.replace(_params(), log_shards=shards), rng=random.Random(17)
    )


def _workload(round_no: int, size: int):
    return [
        (b"bench|r%d-%d|0" % (round_no, i), b"h%d-%d" % (round_no, i))
        for i in range(size)
    ]


def _run_cpu_mode(shards: int, rounds: int, batch: int) -> float:
    """Seconds of epoch work per round, in-process devices (pure CPU)."""
    dep = _deployment(shards)
    log = dep.provider.log
    for identifier, value in _workload(999, batch):  # warm round
        log.insert(identifier, value)
    log.run_update(dep.fleet.hsms)
    start = time.perf_counter()
    for round_no in range(rounds):
        for identifier, value in _workload(round_no, batch):
            log.insert(identifier, value)
        log.run_update(dep.fleet.hsms)
    return (time.perf_counter() - start) / rounds


def _run_device_mode(shards: int, rounds: int, batch: int, delay: float) -> float:
    """Seconds per round with per-call device latency, through the service
    epoch path (FIFO per device; one parallel lane per shard)."""
    dep = _deployment(shards)
    dep.fleet.hsms = [SlowDevice(hsm, delay) for hsm in dep.fleet.hsms]
    service = dep.recovery_service(tick_interval=3600.0)  # manual epochs only
    log = dep.provider.log
    service.pool.start()
    try:
        for identifier, value in _workload(999, batch):  # warm round
            log.insert(identifier, value)
        service.run_shard_epochs(log.shards_with_pending())
        start = time.perf_counter()
        for round_no in range(rounds):
            for identifier, value in _workload(round_no, batch):
                log.insert(identifier, value)
            outcomes = service.run_shard_epochs(log.shards_with_pending())
            failed = {k: e for k, e in outcomes.items() if e is not None}
            assert not failed, failed
        elapsed = (time.perf_counter() - start) / rounds
    finally:
        service.stop()
    assert not log.pending
    return elapsed


def _run_scale_lane(num_shards: int, waves: int, wave_size: int) -> dict:
    """Lease independence + root maintenance at S shards (HSM-free lanes).

    Builds a real sharded provider + batcher, but commits each lane's
    epoch with a bare ``prepare_update`` instead of a device fleet — the
    costs under test (lease bookkeeping, tick dispatch, cross-shard root
    maintenance) live entirely on the provider side.

    One session is served and never releases its lease, holding its shard's
    lane busy for the whole run.  The measured ticks then show (a) idle
    ticks returning in O(1) despite the straggler, and (b) other lanes
    committing at millisecond latency while the busy lane defers.
    """
    provider = ServiceProvider(LogConfig(audit_count=2, num_shards=num_shards))
    log = provider.log

    def lane_runner(shards):
        outcomes = {}
        for k in shards:
            try:
                log.shards[k].prepare_update(num_chunks=1)
                outcomes[k] = None
            except BaseException as exc:  # noqa: BLE001 - reported per lane
                outcomes[k] = exc
        return outcomes

    batcher = EpochBatcher(
        provider,
        lease_timeout=SCALE_LEASE_TIMEOUT,
        lane_runner=lane_runner,
    )

    # Serve a first wave, then release every lease but one: that session's
    # shard is the busy lane for the rest of the run.
    seed_users = [f"scale{num_shards}-seed-{i}" for i in range(8)]
    for username in seed_users:
        batcher.submit(username, 0, b"commit-seed")
    assert batcher.tick() == len(seed_users)
    for username in seed_users[1:]:
        batcher.release(username, 0)
    assert batcher.outstanding_leases() == 1
    (busy_shard,) = batcher.stats()["outstanding_leases_by_shard"]

    # Idle ticks: nothing submitted, nothing pending, one lease outstanding.
    # The old global drain would block each of these for lease_timeout.
    idle_samples = []
    for _ in range(50):
        start = time.perf_counter()
        assert batcher.tick() == 0
        idle_samples.append(time.perf_counter() - start)

    # Busy ticks: fresh sessions each wave; lanes other than the busy one
    # must commit without waiting on its lease.  Releases are issued for
    # the whole wave — for sessions deferred behind the busy lane the
    # release is the documented late/unknown no-op.
    busy_samples = []
    served_total = 0
    for wave in range(waves):
        wave_users = [
            f"scale{num_shards}-w{wave}-{i}" for i in range(wave_size)
        ]
        for username in wave_users:
            batcher.submit(username, 0, b"commit-wave")
        start = time.perf_counter()
        served = batcher.tick()
        busy_samples.append(time.perf_counter() - start)
        assert served >= 1
        served_total += served
        for username in wave_users:
            batcher.release(username, 0)
    assert batcher.outstanding_leases(busy_shard) == 1  # straggler untouched
    assert batcher.lease_timeouts == 0  # nobody waited it out

    # Root maintenance: dirty exactly one shard, then meter the incremental
    # re-read against a from-scratch recompute of the same value.
    clean_shard = (busy_shard + 1) % num_shards
    log.shards[clean_shard].insert(b"root-maint|probe|0", b"probe")
    log.shards[clean_shard].prepare_update(num_chunks=1)
    meter = OpMeter()
    with meter.attached():
        incremental_root = log.digest
    incremental_blocks = meter.snapshot().get("sha256_block", 0)
    meter = OpMeter()
    with meter.attached():
        scratch_root = cross_shard_root([s.digest for s in log.shards])
    scratch_blocks = meter.snapshot().get("sha256_block", 0)

    return {
        "num_shards": num_shards,
        "busy_shard": busy_shard,
        "idle_tick_seconds_median": statistics.median(idle_samples),
        "busy_tick_seconds_median": statistics.median(busy_samples),
        "busy_tick_seconds_max": max(busy_samples),
        "sessions_served": served_total,
        "root_incremental_sha256_blocks": incremental_blocks,
        "root_scratch_sha256_blocks": scratch_blocks,
        "root_identical": incremental_root == scratch_root,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: fewer rounds and a smaller device latency",
    )
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--batch", type=int, default=None, help="insertions per round")
    parser.add_argument(
        "--device-ms", type=float, default=None,
        help="simulated per-call device service latency (milliseconds)",
    )
    args = parser.parse_args(argv)
    rounds = args.rounds or (2 if args.quick else 4)
    batch = args.batch or (24 if args.quick else 32)
    delay = (args.device_ms or (10.0 if args.quick else 25.0)) / 1000.0

    # -- shards=1 must cost nothing: exact seed counts -----------------------
    ambient, device, digest = invariance_counts()
    invariance_ok = not invariance_moved(ambient, device, digest)

    rows = []
    metrics = {}
    for mode, runner, extra in (
        ("cpu", _run_cpu_mode, ()),
        ("device", _run_device_mode, (delay,)),
    ):
        base = runner(1, rounds, batch, *extra)
        sharded = runner(SHARDS, rounds, batch, *extra)
        speedup = base / sharded
        metrics[f"{mode}_base_seconds_per_round"] = base
        metrics[f"{mode}_sharded_seconds_per_round"] = sharded
        metrics[f"{mode}_base_insertions_per_sec"] = batch / base
        metrics[f"{mode}_sharded_insertions_per_sec"] = batch / sharded
        metrics[f"{mode}_speedup"] = speedup
        rows.append((mode, 1, batch, f"{base * 1000:.0f}", f"{batch / base:.0f}", ""))
        rows.append(
            (mode, SHARDS, batch, f"{sharded * 1000:.0f}",
             f"{batch / sharded:.0f}", f"{speedup:.2f}x")
        )

    # -- hundreds of shards: lease independence + root maintenance -----------
    scale_waves = 5 if args.quick else 8
    scale_results = [_run_scale_lane(s, scale_waves, 16) for s in SCALE_SHARDS]
    scale_failures = []
    for res in scale_results:
        s = res["num_shards"]
        for key in (
            "idle_tick_seconds_median",
            "busy_tick_seconds_median",
            "busy_tick_seconds_max",
            "root_incremental_sha256_blocks",
            "root_scratch_sha256_blocks",
            "root_identical",
        ):
            metrics[f"scale{s}_{key}"] = res[key]
        if res["idle_tick_seconds_median"] >= SCALE_IDLE_TICK_BOUND:
            scale_failures.append(f"scale{s}_idle_tick")
        if res["busy_tick_seconds_max"] >= (
            SCALE_LEASE_TIMEOUT * SCALE_BUSY_TICK_FRACTION
        ):
            scale_failures.append(f"scale{s}_busy_tick")
        if not res["root_identical"]:
            scale_failures.append(f"scale{s}_root_identical")
        if res["root_scratch_sha256_blocks"] < (
            SCALE_ROOT_RATIO_BOUND * res["root_incremental_sha256_blocks"]
        ):
            scale_failures.append(f"scale{s}_root_ratio")
        if res["root_incremental_sha256_blocks"] > 6 * math.log2(s) + 12:
            scale_failures.append(f"scale{s}_root_not_logS")
    latency_ratio = (
        scale_results[-1]["busy_tick_seconds_median"]
        / max(scale_results[0]["busy_tick_seconds_median"], 1e-9)
    )
    metrics["scale_busy_tick_latency_ratio"] = latency_ratio
    if latency_ratio > SCALE_LATENCY_RATIO_BOUND:
        scale_failures.append("scale_latency_ratio")

    lines = table(
        ("mode", "shards", "insertions", "ms/round", "ins/s", "speedup"),
        rows,
        (8, 8, 12, 10, 8, 9),
    )
    lines.append("")
    lines.append(
        f"committee certification: each of the {SHARDS} lanes is audited by "
        f"{HSMS // SHARDS} of {HSMS} devices; off-committee devices adopt "
        "quorum-signed transitions lazily"
    )
    lines.append(
        f"device mode simulates {delay * 1000:.0f} ms per epoch-protocol call "
        "(SoloKey-class hardware; paper Table 2)"
    )
    lines.append(
        "shards=1 invariance (exact seed op counts + digest): "
        + ("PASS" if invariance_ok else "FAIL")
    )
    lines.append("")
    for res in scale_results:
        s = res["num_shards"]
        lines.append(
            f"S={s}: one lane held busy on shard {res['busy_shard']}; idle tick "
            f"{res['idle_tick_seconds_median'] * 1e6:.0f} us, busy-lane tick "
            f"median {res['busy_tick_seconds_median'] * 1e3:.1f} ms (max "
            f"{res['busy_tick_seconds_max'] * 1e3:.1f} ms, lease_timeout "
            f"{SCALE_LEASE_TIMEOUT:.0f} s), root maintenance "
            f"{res['root_incremental_sha256_blocks']} vs "
            f"{res['root_scratch_sha256_blocks']} hash blocks from scratch, "
            "roots " + ("identical" if res["root_identical"] else "DIVERGED")
        )
    lines.append(
        f"busy-tick latency ratio S={SCALE_SHARDS[-1]}/S={SCALE_SHARDS[0]}: "
        f"{latency_ratio:.2f}x (gate <= {SCALE_LATENCY_RATIO_BOUND:.0f}x)"
    )

    failed_gates = [
        name for name, bound in GATES.items() if metrics[name] < bound
    ] + scale_failures
    lines.append(
        f"gates: cpu >= {GATES['cpu_speedup']}x, device >= "
        f"{GATES['device_speedup']}x, idle tick < "
        f"{SCALE_IDLE_TICK_BOUND * 1e3:.0f} ms, busy tick < "
        f"{SCALE_LEASE_TIMEOUT * SCALE_BUSY_TICK_FRACTION:.1f} s, root "
        f"incremental <= 6*log2(S)+12 blocks and >= "
        f"{SCALE_ROOT_RATIO_BOUND:.0f}x under from-scratch -> "
        + ("PASS" if not failed_gates and invariance_ok else "FAIL")
    )

    emit(
        "sharded_epochs",
        f"Sharded epoch lanes: {SHARDS} shards vs 1 (same workload)",
        lines,
        data={
            "results": [
                {
                    "mode": mode,
                    "shards": shards,
                    "insertions_per_round": ins,
                    "ms_per_round": float(ms),
                    "insertions_per_sec": float(rate),
                }
                for mode, shards, ins, ms, rate, _ in rows
            ],
            "metrics": dict(metrics, invariance_ok=invariance_ok),
            "scale": scale_results,
            "op_counts": {k: ambient.get(k, 0) for k in SEED_AMBIENT},
        },
    )

    if not invariance_ok:
        print("FAIL: shards=1 moved the seed's metered counts or digest", file=sys.stderr)
        return 1
    if failed_gates:
        print(f"FAIL: gates not met: {failed_gates}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
