"""Plumbing check of the recovery-service benchmark (tier-1, no timing).

``run.py --smoke`` runs every workload once at tiny sizes with the traced
and count passes on.  The ledger must name every metric ``BENCHMARK.json``
lists, with its unit; the tracer must have put every wrapped attribute back;
the count pass must have repeated exactly; no gate may have failed.
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(HERE.parents[1] / "BENCHMARK.json") as _handle:
    CONTRACT = json.load(_handle)


def _smoke(workload: str, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle)["workloads"][workload]


def test_smoke_names_every_metric(tmp_path):
    # recover_wide is left out to stay under 20 s: it runs recover_narrow's
    # code on recover_sharded_durable's fleet.
    names = [w["name"] for w in CONTRACT["workloads"] if w["name"] != "recover_wide"]
    with ThreadPoolExecutor(max_workers=2) as pool:  # the host has two cores
        entries = list(pool.map(lambda n: _smoke(n, tmp_path / f"{n}.json"), names))
    for workload, entry in zip(names, entries):
        for kind in ("end_to_end", "per_layer"):
            listed = {m["name"]: m["unit"] for m in CONTRACT[kind]}
            emitted = {name: m["unit"] for name, m in entry[kind].items()}
            assert emitted == listed, (workload, kind)
            assert all(NAME.fullmatch(name) for name in emitted)
        assert entry["restored"], workload
        assert entry["count_identical"], workload
        assert entry["problems"] == [], workload
        assert entry["failed_share"] == 0, workload
