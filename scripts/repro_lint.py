#!/usr/bin/env python3
"""repro_lint: the repo's static-analysis CLI (see docs/STATIC_ANALYSIS.md).

Runs the four lintkit passes — secret-hygiene taint, lock discipline,
metering discipline, and the docstring contract — over the given paths
and exits nonzero on any unsuppressed finding.  This is the CI fast-lane
gate::

    PYTHONPATH=src python scripts/repro_lint.py src/repro

Options:
    --json                 machine-readable report on stdout
    --passes a,b,c         run a subset (secrets,locks,metering,docs)
    --root DIR             repo root reported paths are relative to (default: cwd)
    --list-rules           print the rule catalog and exit
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Make `python scripts/repro_lint.py` work without PYTHONPATH: the package
# lives in <repo>/src, one level up from this script.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.lintkit import default_passes  # noqa: E402
from repro.lintkit.engine import (  # noqa: E402
    RULE_ALIASES,
    ScanContext,
    collect_files,
    run_passes,
)

_RULE_CATALOG = [
    ("secret-taint", "secret", "secret-named value flows into printable output"),
    ("unguarded-write", "unguarded", "_GUARDED_BY attribute written outside its lock"),
    ("unmetered-op", "unmetered", "crypto entry point skips metering.count"),
    ("docstring-missing", "docs", "public API without a docstring"),
    ("docstring-thin", "docs", "module docstring below the contract minimum"),
    ("bad-suppression", "-", "suppression comment with an empty justification"),
    ("parse-error", "-", "file does not parse"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to scan (default: src/repro)")
    parser.add_argument("--json", action="store_true", help="JSON report on stdout")
    parser.add_argument("--passes", default=None,
                        help="comma-separated pass names (default: all)")
    parser.add_argument("--root", default=".", metavar="DIR",
                        help="repo root reported paths are relative to (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, alias, blurb in _RULE_CATALOG:
            print(f"{rule:18s} alias={alias:10s} {blurb}")
        return 0

    root = Path(args.root).resolve()
    passes = default_passes()
    if args.passes:
        wanted = {name.strip() for name in args.passes.split(",") if name.strip()}
        known = {p.name for p in passes}
        unknown = wanted - known
        if unknown:
            parser.error(
                f"unknown pass(es): {', '.join(sorted(unknown))}"
                f" (available: {', '.join(sorted(known))})"
            )
        passes = [p for p in passes if p.name in wanted]

    files = collect_files(root, [Path(p) for p in args.paths])
    if not files:
        print("repro_lint: no Python files under the given paths", file=sys.stderr)
        return 2
    report = run_passes(ScanContext(files), passes)

    if args.json:
        print(report.to_json())
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"repro_lint: {len(report.findings)} finding(s),"
            f" {len(report.suppressed)} suppressed,"
            f" {report.files_scanned} file(s) scanned"
        )
        print(summary if report.findings else f"{summary} — clean")
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())


# Re-exported so tests can reference the catalog without re-parsing --help.
RULES = tuple(rule for rule, _, _ in _RULE_CATALOG)
ALIASES = RULE_ALIASES
