#!/usr/bin/env python3
"""The recovery-service benchmark: one command, two ways to call it.

One pass — what the benchmark driver runs, in its own process::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is a *measured* pass: set up (twice, reporting the median),
run the workload's closed loop for ``S`` seconds with tracing off, check the
outputs, and print every end-to-end metric.  ``--trace 1`` is a *traced*
pass: one set-up under the outside-in tracer, a short untraced window and a
traced one on the same deployment (their ratio is the tracing overhead), the
*count* pass twice (it must repeat exactly), and every per-layer metric.
The last line of standard output is one JSON object.

The ledger — every workload, repetitions interleaved round-robin, pooled
percentiles, one JSON record (``compare.py`` diffs two of them)::

    python3 benchmarks/e2e/run.py [--seed 11] [--workload NAME] [--reps 3] [--out FILE]

Exit status is non-zero if any output was wrong or any gate failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(REPO / "src"))  # the program is built from this checkout's source

from repro.crypto.aes import Aes128  # noqa: E402
from repro.sim.workload import percentile  # noqa: E402

import hostref  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from countpass import SESSIONS as COUNT_SESSIONS, count_pass  # noqa: E402
from tracer import Tracer  # noqa: E402

#: (name, unit) of every end-to-end metric (direction and bound: BENCHMARK.json).  ``op`` is the workload's
#: operation: ``Client.recover`` on the ``recover_*`` workloads (call to
#: verified plaintext), ``Client.backup`` on ``backup_burst`` (call to
#: returned index).  The three timings are at the reference host speed —
#: each interval scaled by what ``hostref.HostProbe`` read during it; the
#: values as the clock gave them are in ``RAW``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s_at_ref", "1/s"),
    ("op_p50_ms_at_ref", "ms"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes_per_op", "B"),
)
#: As measured on this host during this window: printed and recorded, not
#: gated, because the host's own speed moves them by a quarter.
RAW: Tuple[Tuple[str, str], ...] = (
    ("setup_wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("host_speed", "ratio"),
)
CONDITIONS = ("closed loop, one core, timings at reference host speed; no message"
              " delay injected: latency is processor time only")
SETUPS = 2  # set-ups per measured pass; setup_s is their median
AES_BLOCKS = 2000
UNTRACED_SHARE = 1 / 3  # of a traced pass's window and user pool


@dataclass(frozen=True)
class Sizes:
    """What a pass runs at.  The defaults are the benchmark; ``SMOKE`` (4
    sessions or 10 backups on small key trees) checks the plumbing, and no
    timing in it means anything."""

    sessions: Optional[int] = None  # None: Workload.pool_rate x seconds
    max_punctures: Optional[int] = None  # None: the workload's own
    count_sessions: int = COUNT_SESSIONS
    setups: int = SETUPS

    @staticmethod
    def of(workload: wl.Workload, smoke: bool) -> "Sizes":
        if not smoke:
            return Sizes()
        return Sizes(sessions=10 if workload.op == "backup" else 4, max_punctures=4,
                     count_sessions=1, setups=1)


def _wire_bytes(service) -> int:
    stats = service.provider_channel.wire_stats()
    return stats["bytes_sent"] + stats["bytes_received"]


def _aes_us_per_block(probe: hostref.HostProbe) -> float:
    """``Aes128.encrypt_block`` timed outside the workload: wrapping a
    function called ~1,000 times per recovery would measure the wrapper."""
    cipher, block = Aes128(bytes(range(16))), bytes(16)
    start = time.perf_counter()
    for _ in range(AES_BLOCKS):
        block = cipher.encrypt_block(block)
    end = time.perf_counter()
    return (end - start) * probe.speed(start, end) / AES_BLOCKS * 1e6


def _gates(workload, rig, window) -> Tuple[List[str], List[Tuple[float, float]]]:
    """The correctness gates that follow a window (all outside it): what
    failed, and the (began, ended) of each restart-to-first-recovery."""
    problems = list(window.failures)
    restarts: List[Tuple[float, float]] = []
    if not window.done:
        problems.append("the window completed no operation")
    problems.extend(wl.check_service_counters(rig.service))
    if workload.op == "backup":
        problems.extend(wl.check_backups_readable(rig, window.done))
    elif window.done:
        problems.extend(wl.check_puncture_held(window.done[0]))
    if rig.reserved:
        restarts, restart_problems = wl.restart_and_recover(rig)
        problems.extend(restart_problems)
    return problems, restarts


def measured_pass(workload, seed: int, seconds: float, sizes: Sizes) -> Dict:
    """Tracing off: set up ``SETUPS`` times, run one window on the last."""
    ref_before = hostref.ref_ms()
    users = wl.pool_size(workload, seconds, sizes.sessions)
    setups: List[Tuple[float, float]] = []  # (as measured, at reference speed)
    rig = None
    with hostref.HostProbe() as probe:
        for _ in range(sizes.setups):
            if rig is not None:  # free the last fleet first: peak RSS is one set-up's
                rig.service.stop()
                rig = None
                gc.collect()
            rig = wl.set_up(workload, seed, users, sizes.max_punctures)
            wall = rig.setup_ended - rig.setup_began
            setups.append((wall, wall * probe.speed(rig.setup_began, rig.setup_ended)))
        wire_before = _wire_bytes(rig.service)
        window = wl.run_window(workload, rig.users, seconds)
    wire_bytes = _wire_bytes(rig.service) - wire_before
    problems, _ = _gates(workload, rig, window)
    rig.service.stop()

    latencies_ms_at_ref = window.latencies_ms(probe.speed)
    timed = len(latencies_ms_at_ref)
    values = {  # name -> (value, samples a timing rests on)
        "setup_s": (statistics.median(at_ref for _, at_ref in setups), len(setups)),
        "ops_per_s_at_ref": (window.ops_per_s(probe.speed), window.correct),
        "op_p50_ms_at_ref": (percentile(latencies_ms_at_ref, 0.5), timed),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None),
        "wire_bytes_per_op": (wire_bytes / max(1, window.correct), None),
        "setup_wall_s": (statistics.median(wall for wall, _ in setups), len(setups)),
        "ops_per_s": (window.ops_per_s(), window.correct),
        "op_p50_ms": (percentile(window.latencies_ms(), 0.5), timed),
        "host_speed": (probe.speed(window.start, window.closed), probe.samples),
    }

    def report(metrics: Tuple[Tuple[str, str], ...]) -> Dict:
        return {n: {"value": values[n][0], "unit": u, "samples": values[n][1]}
                for n, u in metrics}

    return {
        "metrics": report(END_TO_END),
        "raw": report(RAW),
        "attempted": window.attempted,
        "failed": len(window.failures),
        "problems": problems,
        "samples": window.correct,
        "latencies_ms_at_ref": latencies_ms_at_ref,
        "host_ref_ms": [ref_before, hostref.ref_ms()],
    }


def traced_pass(workload, seed: int, seconds: float, sizes: Sizes) -> Dict:
    """One set-up under the tracer, an untraced and a traced window, the
    gates (traced, so restart and replay show), then the count pass twice.
    Span timings are scaled to the reference host speed by one factor, the
    traced window's; the spans written to ``trace_<workload>.json`` are as
    the clock gave them, with that factor beside them."""
    ref_before = hostref.ref_ms()
    users = wl.pool_size(workload, seconds, sizes.sessions)
    untraced_users = max(1, round(users * UNTRACED_SHARE))
    tracer = Tracer()
    with hostref.HostProbe() as probe:
        tracer.install()
        rig = wl.set_up(workload, seed, users, sizes.max_punctures)
        restored = tracer.uninstall()
        plain = wl.run_window(workload, rig.users[:untraced_users], seconds * UNTRACED_SHARE)

        tracer.install()
        counters_before = tracer.counter_snapshot()
        stats_before = rig.service.stats()
        traced = wl.run_window(
            workload, rig.users[untraced_users:], seconds * (1 - UNTRACED_SHARE)
        )
        counters_after = tracer.counter_snapshot()
        stats_after = rig.service.stats()
        problems, restarts = _gates(workload, rig, traced)
        problems.extend(plain.failures)
        rig.service.stop()
        restored = tracer.uninstall() and restored
        aes_us_per_block = _aes_us_per_block(probe)
    if not restored:
        problems.append("a wrapped attribute was not restored to its original")

    count_args = (workload, seed, sizes.count_sessions,
                  sizes.max_punctures)
    counts = count_pass(*count_args)
    count_identical = json.dumps(counts, sort_keys=True) == json.dumps(
        count_pass(*count_args), sort_keys=True
    )
    if not count_identical:
        problems.append("the count pass did not repeat exactly")

    speed = probe.speed(traced.start, traced.finished)
    index = layers.SpanIndex(
        [(i, name, start * speed, end * speed, parent, session, thread)
         for i, name, start, end, parent, session, thread in tracer.spans],
        traced.start * speed,
        traced.finished * speed,
    )
    restarts_s = [(ended - began) * probe.speed(began, ended) for began, ended in restarts]
    values = layers.derive(
        index,
        workload.op,
        traced.correct,
        workload.num_hsms,
        {k: counters_after[k] - counters_before.get(k, 0) for k in counters_after},
        {k: stats_after[k] - stats_before[k]
         for k in ("epochs_run", "sessions_served", "lease_timeouts", "epoch_failures")},
        counts,
        {
            "aes_us_per_block": aes_us_per_block,
            "payload_bytes": wl.PAYLOAD_BYTES,
            "overhead_ratio": (
                plain.ops_per_s(probe.speed) / traced.ops_per_s(probe.speed)
                if traced.correct else 0.0
            ),
            "restart_first_recovery_s": statistics.median(restarts_s) if restarts_s else 0.0,
            "host_speed": speed,
            "host_ref_ms": statistics.mean((ref_before, hostref.ref_ms())),
        },
    )
    table, attributed = layers.breakdown(index, traced.correct)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace_{workload.name}.json", "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "window": [traced.start, traced.finished],
                "host_speed": speed,
                "fields": ["id", "name", "start", "end", "parent", "session", "thread"],
                "spans": tracer.spans,
            },
            handle,
        )
    return {
        "metrics": {
            n: {"value": values[n][0], "unit": u, "samples": values[n][1]}
            for n, u in layers.PER_LAYER
        },
        "attempted": plain.attempted + traced.attempted,
        "failed": len(plain.failures) + len(traced.failures),
        "problems": problems,
        "samples": traced.correct,
        "breakdown": table,
        "attributed_share": attributed,
        "restored": restored,
        "count_identical": count_identical,
        "counts": counts,
    }


def _print_metrics(title: str, metrics: Dict) -> None:
    """Every metric by name with its unit, and beside a timing its samples."""
    print(f"== {title} ==")
    for name, metric in metrics.items():
        count = f"  n={metric['samples']}" if metric.get("samples") is not None else ""
        print(f"{name:<52}{metric['value']:>16.4f} {metric['unit']}{count}")


def run_one(args: argparse.Namespace) -> int:
    """One pass in this process; the last line printed is the result."""
    workload = wl.BY_NAME[args.workload]
    if not args.smoke:  # smoke runs share the host with each other and time nothing
        hostref.pin_to_one_core()
    run = traced_pass if args.trace else measured_pass
    detail = run(workload, args.seed, args.seconds, Sizes.of(workload, args.smoke))
    detail.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    print(f"{workload.name}: {detail['samples']} operations timed; {CONDITIONS}")
    if workload.durable:
        print("(in-memory block store: flush cost is zero by construction)")
    _print_metrics(f"{workload.name} --trace {args.trace}", detail["metrics"])
    if "raw" in detail:
        _print_metrics("as measured (not gated)", detail["raw"])
    for line in detail.get("breakdown", ()):
        print(line)
    if "attributed_share" in detail:
        print(f"blocking path accounts for {detail['attributed_share']:.1%}"
              " of the mean operation wall")
    for problem in detail["problems"]:
        print(f"GATE FAILED: {problem}")
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    correct = not detail["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in detail["metrics"].items()
        },
    }))
    return 0 if correct else 1


# -- the ledger ---------------------------------------------------------------
def _spawn(workload: str, args: argparse.Namespace, trace: int, tag: str) -> Dict:
    """Run one pass in its own process (so peak RSS is the workload's own)."""
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"detail_{workload}_{tag}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--detail", str(detail_path)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if not detail_path.exists():
        raise SystemExit(f"{' '.join(command)} produced no result:\n{done.stdout}{done.stderr}")
    with open(detail_path) as handle:
        detail = json.load(handle)
    detail_path.unlink()
    return detail


def tail_percentile(samples: int) -> float:
    """p90 needs 100 samples; below that, the highest whole percentile that
    still has ten samples beyond it (never under the median)."""
    return 0.9 if samples >= 100 else max(0.5, math.floor((1 - 10 / samples) * 100) / 100)


def aggregate(reps: List[Dict], traced: Dict) -> Dict:
    """One workload's ledger entry.  ``op_p50_ms_at_ref`` is taken over the
    samples pooled across repetitions; the other end-to-end metrics are the
    median of the per-repetition values (kept beside it, for ``compare.py``).
    The latency tail and the raw values are printed and recorded but not
    gated: see the README's calibration section."""
    pooled = [ms for rep in reps for ms in rep["latencies_ms_at_ref"]]
    tail = tail_percentile(len(pooled)) if pooled else 0.9
    refs = [ms for rep in reps for ms in rep["host_ref_ms"]]
    ref_median = statistics.median(refs)
    end_to_end = {}
    for name, unit in END_TO_END:
        per_rep = [rep["metrics"][name]["value"] for rep in reps]
        value = (percentile(pooled, 0.5) if name == "op_p50_ms_at_ref"
                 else statistics.median(per_rep))
        samples = sum(rep["metrics"][name]["samples"] or 0 for rep in reps) or None
        end_to_end[name] = {"value": value, "unit": unit, "samples": samples, "per_rep": per_rep}
    return {
        "end_to_end": end_to_end,
        "op_tail_ms_at_ref": {"value": percentile(pooled, tail), "unit": "ms",
                              "percentile": tail, "samples": len(pooled)},
        "raw": {
            name: {"value": statistics.median(r["raw"][name]["value"] for r in reps),
                   "unit": unit, "per_rep": [r["raw"][name]["value"] for r in reps]}
            for name, unit in RAW
        },
        "failed_share": sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps),
        "problems": [p for r in reps + [traced] for p in r["problems"]],
        "disturbed": [
            any(abs(ms - ref_median) > hostref.DISTURBED_SHARE * ref_median
                for ms in rep["host_ref_ms"])
            for rep in reps
        ],
        "host_ref_ms": refs,
        "per_layer": traced["metrics"],
        "traced_samples": traced["samples"],
        **{key: traced[key] for key in
           ("breakdown", "attributed_share", "restored", "count_identical", "counts")},
    }


def run_ledger(args: argparse.Namespace) -> int:
    """Measured repetitions round-robin across workloads (A B C D A B C D:
    on a shared host single runs do not repeat within a tenth), then one
    traced pass each; print every metric and write the record."""
    names = [args.workload] if args.workload else [w.name for w in wl.WORKLOADS]
    reps: Dict[str, List[Dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:
            print(f"[measured {rep + 1}/{args.reps}] {name}", file=sys.stderr)
            reps[name].append(_spawn(name, args, 0, f"rep{rep}"))
    record = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
              "reps": args.reps, "smoke": args.smoke, "workloads": {}}
    for name in names:
        print(f"[traced] {name}", file=sys.stderr)
        entry = aggregate(reps[name], _spawn(name, args, 1, "traced"))
        record["workloads"][name] = entry
        tail = entry["op_tail_ms_at_ref"]
        print(f"{name}: {tail['samples']} operations timed in {args.reps} repetitions;"
              f" {CONDITIONS}")
        if wl.BY_NAME[name].durable:
            print("(in-memory block store: flush cost is zero by construction)")
        _print_metrics(f"{name}: end to end", entry["end_to_end"])
        _print_metrics("as measured (not gated; medians of repetitions)", entry["raw"])
        print(f"op_tail_ms_at_ref (pooled p{tail['percentile'] * 100:.0f}, not gated)"
              f" {tail['value']:.4f} ms  n={tail['samples']};"
              f" failed_share {entry['failed_share']:.4f};"
              f" disturbed repetitions {entry['disturbed']}")
        _print_metrics(f"{name}: per layer ({entry['traced_samples']} operations traced)",
                       entry["per_layer"])
        for line in entry["breakdown"]:
            print(line)
        for problem in entry["problems"]:
            print(f"GATE FAILED: {problem}")
    out = Path(args.out) if args.out else OUT_DIR / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"wrote {out}")
    return 1 if any(e["problems"] for e in record["workloads"].values()) else 0


def main(argv: Optional[List[str]] = None) -> int:
    with open(REPO / "BENCHMARK.json") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.BY_NAME))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="length of one measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one pass in this process (omit for the ledger)")
    parser.add_argument("--reps", type=int, default=3, help="ledger: measured repetitions")
    parser.add_argument("--out", help="ledger: where to write the record")
    parser.add_argument("--detail", help="one pass: also write samples and gates here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition: checks the plumbing only")
    args = parser.parse_args(argv)
    if args.smoke:
        args.reps = 1
    if args.trace is None:
        return run_ledger(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
