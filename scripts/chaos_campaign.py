#!/usr/bin/env python3
"""chaos_campaign: run the deterministic chaos scenario catalog.

Every scenario is executed at a fixed seed under the seeded scheduler and
entropy hijack, so a campaign run is exactly reproducible; the run emits
``benchmarks/out/BENCH_chaos_campaign.json`` (schema 1) with each
scenario's ``ChaosReport.as_dict()`` (digests, counters, invariant
violations — target: zero — and op counts), and any
violation additionally dumps a replay file that ``scripts/chaos_replay.py``
re-executes to the identical step.  Exits nonzero if any scenario records
a violation.

Usage::

    PYTHONPATH=src python scripts/chaos_campaign.py --quick       # CI fast lane
    PYTHONPATH=src python scripts/chaos_campaign.py               # full catalog
    PYTHONPATH=src python scripts/chaos_campaign.py --demo        # deliberate
        # fault: runs demo_log_tamper, writes its replay file, exits 0 iff
        # the violation fired and was captured (CI round-trips it)

Options:
    --quick            run the QUICK_SCENARIOS subset in .quick() form
    --scenarios a,b    run a named subset of the catalog
    --seed N           base seed (default 20260808)
    --out-dir DIR      where replay files go (default benchmarks/out)
    --demo             run the deliberately-violating demo scenario instead
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
for entry in (str(_SRC), str(_REPO / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.chaos import (  # noqa: E402
    DEMO_SCENARIO,
    QUICK_SCENARIOS,
    SCENARIOS,
    run_scenario,
    write_replay,
)
from repro.chaos.entropy import derive_seed  # noqa: E402

try:  # pragma: no cover - import shape depends on invocation directory
    from reporting import emit, table
except ImportError:  # pragma: no cover
    from benchmarks.reporting import emit, table

DEFAULT_SEED = 20260808


def run_campaign(args) -> int:
    """Run the selected scenarios; emit the BENCH record; return exit code."""
    if args.scenarios:
        names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            print(f"unknown scenarios: {', '.join(unknown)}", file=sys.stderr)
            print(f"catalog: {', '.join(SCENARIOS)}", file=sys.stderr)
            return 2
    elif args.quick:
        names = list(QUICK_SCENARIOS)
    else:
        names = list(SCENARIOS)

    os.makedirs(args.out_dir, exist_ok=True)
    rows, results, replays = [], [], []
    total_violations = 0
    for name in names:
        seed = derive_seed(args.seed, f"campaign|{name}")
        report = run_scenario(SCENARIOS[name], seed, quick=args.quick)
        total_violations += len(report.violations)
        if report.violations:
            replay_path = os.path.join(args.out_dir, f"chaos_replay_{name}.json")
            write_replay(report, replay_path, quick=args.quick)
            replays.append(replay_path)
            print(f"!! {name}: violation; replay file at {replay_path}",
                  file=sys.stderr)
        rows.append((
            name, report.steps, report.modeled_arrivals, report.live_sessions,
            report.counters.get("recovered", 0), len(report.violations),
            f"{report.wall_seconds:.1f}",
        ))
        results.append({**report.as_dict(), "quick": args.quick})

    lines = table(
        ["scenario", "steps", "modeled", "live", "ok", "viol", "wall(s)"],
        rows,
        [18, 7, 9, 6, 5, 6, 9],
    )
    lines.append("")
    lines.append(
        f"campaign: {len(names)} scenarios, {total_violations} invariant"
        f" violations (target 0); mode={'quick' if args.quick else 'full'}"
    )
    emit(
        "chaos_campaign",
        "Deterministic chaos campaign (scenario x seed reproducible)",
        lines,
        data={
            "metrics": {
                "scenarios": len(names),
                "invariant_violations": total_violations,
                "modeled_arrivals_total": sum(r["modeled_arrivals"] for r in results),
                "live_sessions_total": sum(r["live_sessions"] for r in results),
            },
            "results": results,
            "replay_files": replays,
        },
    )
    return 1 if total_violations else 0


def run_demo(args) -> int:
    """Run the deliberately-violating demo and capture its replay file."""
    seed = derive_seed(args.seed, "campaign|demo")
    report = run_scenario(DEMO_SCENARIO, seed)
    if not report.violations:
        print("demo scenario recorded no violation — the seeded fault or the"
              " digest-chain checker is broken", file=sys.stderr)
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "chaos_replay_demo.json")
    record = write_replay(report, path)
    print(f"demo violation: {record['invariant']} at step"
          f" {record['violation_step']}; replay file at {path}")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="chaos_campaign", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--quick", action="store_true",
                        help="run the quick subset in scaled-down form")
    parser.add_argument("--scenarios", default="",
                        help="comma-separated subset of the catalog")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base seed (default {DEFAULT_SEED})")
    parser.add_argument("--out-dir", default=str(_REPO / "benchmarks" / "out"),
                        help="directory for replay files")
    parser.add_argument("--demo", action="store_true",
                        help="run the deliberately-violating demo scenario")
    args = parser.parse_args(argv)
    if args.demo:
        return run_demo(args)
    return run_campaign(args)


if __name__ == "__main__":
    raise SystemExit(main())
