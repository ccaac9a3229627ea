"""Shared table emission for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and emits
its rows to stdout (visible with ``pytest -s``) and, so the reproduction
record survives pytest's output capturing, to a machine-readable
``benchmarks/out/BENCH_<name>.json`` (see ``_harness`` for the contract)
whose ``lines`` field is the table exactly as printed.  Benchmarks pass
structured numbers via ``data`` so the JSON carries raw values, not
formatted strings; a table of rows goes through ``emit_rows``, which
renders the text from the same dicts it records as ``results``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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


def emit_rows(
    name: str,
    title: str,
    columns: Sequence[Tuple[str, int, Callable[[dict], object]]],
    rows: List[dict],
    notes: Sequence[str] = (),
    metrics: Optional[dict] = None,
) -> None:
    """Emit one table whose rows are spelled once: each row dict is a
    ``results`` record, and a column ``(header, width, cell)`` renders it
    with ``cell(row)``.  ``notes`` follow the table after a blank line."""
    lines = table(
        [header for header, _, _ in columns],
        ([cell(row) for _, _, cell in columns] for row in rows),
        [width for _, width, _ in columns],
    )
    if notes:
        lines += ["", *notes]
    data = {"results": rows}
    if metrics is not None:
        data["metrics"] = metrics
    emit(name, title, lines, data=data)
