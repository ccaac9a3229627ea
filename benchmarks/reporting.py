"""Shared table emission for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and emits
its rows to stdout (visible with ``pytest -s``) and, so the reproduction
record survives pytest's output capturing, to a machine-readable
``benchmarks/out/BENCH_<name>.json`` (see ``_harness`` for the contract)
whose ``lines`` field is the table exactly as printed.  Benchmarks pass
structured numbers via ``data`` so the JSON carries raw values, not
formatted strings.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import _harness


def emit(name: str, title: str, lines: Iterable[str], data: Optional[dict] = None) -> None:
    body = list(lines)
    print("\n" + "\n".join([f"== {title} ==", *body]) + "\n")
    payload = dict(data or {})
    payload.setdefault("lines", body)
    _harness.write_json(name, title, payload)


def table(headers: Sequence[str], rows: Iterable[Sequence], widths: Sequence[int]) -> list:
    def fmt(cells):
        return "".join(str(c).rjust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers)]
    lines.extend(fmt(row) for row in rows)
    return lines
