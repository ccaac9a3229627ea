"""Machine-readable benchmark output: the ``BENCH_<name>.json`` contract.

Every benchmark in this directory emits a human-readable table via
``reporting.emit`` — and, through this module, a JSON record at
``benchmarks/out/BENCH_<name>.json`` so the perf trajectory can be tracked
by tooling instead of eyeballs.

The contract below is documented in full, with a worked example and the
list of CI-gated benchmarks, in ``docs/BENCH_SCHEMA.md``.

JSON contract (``schema`` = 1):

```
{
  "schema": 1,
  "bench": "<name>",                  # the emit() name
  "title": "<human title>",
  "metrics": {"<label>": <number>},   # flat scalars: seconds, ops/sec, speedups
  "results": [{...}, ...],            # structured per-row records (bench-specific)
  "op_counts": {"ec_mult": 100, ...}, # ambient OpMeter counts, when metered
  "lines": ["...", ...]               # the rendered text table, verbatim
}
```

``metrics`` is the stable surface — the CI perf-smoke gates read their
labels.  ``results`` mirrors the text table row-for-row with raw
(unformatted) numbers.  Timing helpers :func:`timed` and
:func:`metered_timed` produce ready-to-embed records with op counts,
wall-clock seconds, and ops/sec.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, Optional

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
SCHEMA_VERSION = 1


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def write_json(name: str, title: str, payload: Optional[Dict] = None) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    ``payload`` keys join the record as-is (``metrics``/``results``/
    ``op_counts``/``lines`` per the contract above); ``schema``, ``bench``
    and ``title`` are stamped by this function.
    """
    record = {"schema": SCHEMA_VERSION, "bench": name, "title": title}
    record.update(_jsonable(payload or {}))
    # Stamped fields win over payload keys: the record's identity must match
    # the emit() call.
    record.update({"schema": SCHEMA_VERSION, "bench": name, "title": title})
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def timed(fn: Callable[[], object], min_seconds: float = 0.2, min_ops: int = 1) -> Dict:
    """Run ``fn`` until ``min_seconds`` of wall-clock has elapsed.

    Returns ``{"ops": N, "seconds": s, "ops_per_sec": rate}`` — the record
    shape ``results`` entries and ``metrics`` derive from.
    """
    ops = 0
    start = time.perf_counter()
    while True:
        fn()
        ops += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and ops >= min_ops:
            break
    return {"ops": ops, "seconds": elapsed, "ops_per_sec": ops / elapsed}


def metered_timed(fn: Callable[[], object], min_seconds: float = 0.2, min_ops: int = 1) -> Dict:
    """Like :func:`timed`, plus the ambient operation counts the run
    reported (``op_counts``), so the JSON record carries the paper's cost
    units next to host wall-clock."""
    from repro.metering import OpMeter

    meter = OpMeter()
    with meter.attached():
        record = timed(fn, min_seconds=min_seconds, min_ops=min_ops)
    record["op_counts"] = meter.snapshot()
    return record
