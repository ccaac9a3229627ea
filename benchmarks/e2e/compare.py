#!/usr/bin/env python3
"""Compare two ledger records: ``compare.py A.json B.json`` (A is the base).

For every workload x end-to-end metric, print base, new, the relative change
(a ratio of the base, which is printed beside it) and a verdict against the
bound in ``BENCHMARK.json``:

- ``worse``       the new value is worse than the base by more than the bound;
- ``unresolved``  it is not, but the repetitions of either record spread wider
                  than the bound (so "unchanged" cannot be claimed) — unless
                  every repetition of the new record beats every one of the base;
- ``ok``          otherwise.

The count pass and ``failed_share`` are compared exactly.  Exit status 1 if
any row is ``worse`` or the new record fails more operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: List[float]) -> float:
    """Range of the per-repetition values as a share of their median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def verdict(base: Dict, new: Dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    sign = 1 if better == "lower" else -1
    worse_by = sign * (new["value"] - base["value"]) / base["value"]
    if worse_by > bound:
        return "worse"
    if max(spread(base["per_rep"]), spread(new["per_rep"])) <= bound:
        return "ok"
    new_always_better = max(sign * v for v in new["per_rep"]) < min(
        sign * v for v in base["per_rep"]
    )
    return "ok" if new_always_better else "unresolved"


def compare(base: Dict, new: Dict, contract: Dict) -> int:
    """Print the comparison; return the number of ``worse`` rows."""
    worse = 0
    print(f"{'workload':<26}{'metric':<20}{'base':>12}{'new':>12}{'change':>9}"
          f"{'bound':>7}  verdict")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        old, cur = base["workloads"][name], new["workloads"][name]
        for metric in contract["end_to_end"]:
            a = old["end_to_end"][metric["name"]]
            b = cur["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            change = (b["value"] - a["value"]) / a["value"]
            print(f"{name:<26}{metric['name']:<20}{a['value']:>12.4f}{b['value']:>12.4f}"
                  f"{change:>+9.1%}{metric['bound']:>7.0%}  {result}"
                  f" (change is of base {a['value']:.4f} {a['unit']})")
        counts_equal = old["counts"] == cur["counts"]
        print(f"{name:<26}{'count pass':<20}{'equal' if counts_equal else 'DIFFERS':>24}")
        fails_more = cur["failed_share"] > old["failed_share"]
        worse += fails_more
        print(f"{name:<26}{'failed_share':<20}{old['failed_share']:>12.4f}"
              f"{cur['failed_share']:>12.4f}{'':>16}  {'worse' if fails_more else 'ok'}")
    return worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    with open(CONTRACT) as handle:
        contract = json.load(handle)
    return 1 if compare(records[0], records[1], contract) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
