"""Wire-schema consistency pass: the two format tables are well-formed.

``core/wire.py`` spells each provider op once, as a row of ``PROVIDER_OPS``;
request schemas, endpoint dispatch and every channel and facade method are
derived from the rows at import, so there is no per-op code to cross-check.
``storage/journal.py`` spells each record's layout once, as a row of
``RECORD_CODECS``.  What a table cannot derive about itself is checked
here, statically:

1. every op row is the literal ``ProviderOp(<tag>, "<method>", ((<field>,
   <kind>), ...), PROV_REPLY_<KIND>[, <defaults>])``; rows are unique by
   tag and by method;
2. every field kind a row or a reply schema uses has a codec
   (``FIELD_CODECS``) and a hypothesis strategy (``_FIELD_STRATEGIES`` in
   ``tests/test_wire_properties.py``), so the fuzz suite actually
   generates the frame;
3. ``PROV_REPLY_*`` / ``PROV_ERR_*`` values are unique, every reply kind
   has a body schema in ``PROVIDER_REPLY_SCHEMAS`` and every error status
   is listed in ``_PROVIDER_ERROR_STATUSES``;
4. every op row has a line in the ARCHITECTURE.md frame catalog that starts
   with its tag and its method;
5. the journal's ``K_*`` record kinds are unique, each has a row in
   ``RECORD_CODECS`` (whose keys are all ``K_*`` names) and a line in the
   ARCHITECTURE.md record catalog starting with its value and its name.

Findings are anchored in ``wire.py`` / ``journal.py`` where the row, tag or
kind is declared.  Rule id: ``wire-schema`` (suppression alias ``wire``).
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Callable, Dict, Iterable, List, Tuple

from repro.lintkit.engine import Finding, LintPass, ScanContext

_WIRE = "src/repro/core/wire.py"
_JOURNAL = "src/repro/storage/journal.py"
_TESTS = "tests/test_wire_properties.py"
_DOCS = "docs/ARCHITECTURE.md"


class WireSchemaPass(LintPass):
    """Checks the op and record tables against their codecs, tests, and docs."""

    name = "wire"
    rules = ("wire-schema",)

    def run(self, ctx: ScanContext) -> List[Finding]:
        wire = ctx.load(_WIRE)
        if wire is None or wire.tree is None:
            return []  # nothing to check in this tree (e.g. fixture scans)
        findings: List[Finding] = []

        def report(message: str, line: int = 1, rel: str = wire.rel) -> None:
            findings.append(Finding(rel, line, "wire-schema", message))

        assigned = _assignments(wire.tree)
        kinds: Dict[str, int] = {}  # field kind -> first line that uses it

        # 1. literal rows, unique by tag and by method
        rows = []  # (tag, method, line)
        table = assigned.get("PROVIDER_OPS")
        if not isinstance(table, (ast.Tuple, ast.List)):
            report("PROVIDER_OPS table not found or not a tuple literal")
        for call in getattr(table, "elts", ()):
            try:
                columns = list(call.args)
                columns.pop(3).id  # the reply kind: the one column that is a name
                tag, method, request, *_defaults = ast.literal_eval(
                    ast.Tuple(columns, ast.Load())
                )
                hash((tag, method))  # both are dict keys below
                for _field, kind in request:
                    kinds.setdefault(kind, call.lineno)
            except (AttributeError, IndexError, TypeError, ValueError):
                report(
                    "PROVIDER_OPS row is not a literal ProviderOp(tag, method,"
                    " ((field, kind), ...), PROV_REPLY_<KIND>[, defaults])",
                    call.lineno,
                )
                continue
            rows.append((tag, method, call.lineno))
        _unique(report, "op", "tag value", rows)
        _unique(report, "op tag", "method", [(m, t, line) for t, m, line in rows])

        # 3. reply kinds and error statuses: unique, and listed where decoders look
        schemas = _items(assigned.get("PROVIDER_REPLY_SCHEMAS"))
        for key, body in schemas:
            try:
                for _field, kind in ast.literal_eval(body):
                    kinds.setdefault(kind, key.lineno)
            except (TypeError, ValueError):
                report("PROVIDER_REPLY_SCHEMAS entry is not literal", key.lineno)
        statuses = getattr(assigned.get("_PROVIDER_ERROR_STATUSES"), "elts", ())
        for label, prefix, listed, complaint in (
            ("reply kind", "PROV_REPLY_", [key for key, _ in schemas],
             "has no body schema in PROVIDER_REPLY_SCHEMAS"),
            ("error status", "PROV_ERR_", statuses,
             "is missing from _PROVIDER_ERROR_STATUSES (decoders will reject it)"),
        ):
            declared = _constants(assigned, prefix)
            _unique(report, label, "tag value", declared)
            names = {node.id for node in listed if isinstance(node, ast.Name)}
            for _value, name, line in declared:
                if name not in names:
                    report(f"{label} {name} {complaint}", line)

        # 2. every field kind has a codec and a fuzz strategy
        tests = ctx.load(_TESTS)
        codecs = {
            "FIELD_CODECS": assigned.get("FIELD_CODECS"),
            f"_FIELD_STRATEGIES ({_TESTS})": (
                None if tests is None or tests.tree is None
                else _assignments(tests.tree).get("_FIELD_STRATEGIES")
            ),
        }
        for name, node in codecs.items():
            have = {key.value for key, _ in _items(node) if isinstance(key, ast.Constant)}
            for kind, line in sorted(kinds.items()):
                if kind not in have:
                    report(f"field kind '{kind}' has no entry in {name}", line)

        # 4. every row is in the documented frame catalog: | tag | `method` | ...
        docs = ctx.root / _DOCS
        catalog = docs.read_text().splitlines() if docs.is_file() else []
        for tag, method, line in rows:
            cells = re.compile(rf"\s*\|\s*{tag}\s*\|\s*`{re.escape(str(method))}`\s*\|")
            if not any(cells.match(row) for row in catalog):
                report(f"op {tag} ({method}) has no catalog row in {_DOCS}", line)

        # 5. the journal's record kinds, their layout table and their catalog
        journal = ctx.load(_JOURNAL)
        if journal is not None and journal.tree is not None:
            report = functools.partial(report, rel=journal.rel)
            declared = _assignments(journal.tree)
            record_kinds = _constants(declared, "K_")
            _unique(report, "record kind", "value", record_kinds)
            layouts = {getattr(key, "id", None): key.lineno
                       for key, _ in _items(declared.get("RECORD_CODECS"))}
            for name, line in layouts.items():
                if name not in declared or not name.startswith("K_"):
                    report("RECORD_CODECS key is not a declared K_* record kind", line)
            for value, name, line in record_kinds:
                if name not in layouts:
                    report(f"record kind {name} has no layout in RECORD_CODECS", line)
                cells = re.compile(rf"\s*\|\s*{value}\s*\|\s*`{name[2:]}`\s*\|")
                if not any(cells.match(row) for row in catalog):
                    report(f"record kind {name} has no catalog row in {_DOCS}", line)
        return sorted(set(findings))


def _assignments(tree: ast.Module) -> Dict[str, ast.expr]:
    """Module-level ``NAME = value`` / ``NAME: T = value`` -> value node."""
    found: Dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and node.value is not None:
            found[node.target.id] = node.value
    return found


def _items(node) -> List[Tuple[ast.expr, ast.expr]]:
    """(key, value) node pairs of a dict literal — none if it is not one, so
    everything that should have been in it is reported missing."""
    return list(zip(node.keys, node.values)) if isinstance(node, ast.Dict) else []


def _constants(assigned: Dict[str, ast.expr], prefix: str) -> List[tuple]:
    """``(value, name, line)`` of the constants named ``prefix*``."""
    return [
        (node.value, name, node.lineno)
        for name, node in assigned.items()
        if name.startswith(prefix) and isinstance(node, ast.Constant)
    ]


def _unique(report: Callable, label: str, what: str, entries: Iterable[tuple]) -> None:
    """No two ``(value, name, line)`` entries may share a value."""
    taken: Dict[object, object] = {}
    for value, name, line in entries:
        if value in taken:
            report(
                f"{label} {name} reuses {what} {value} (already taken by {taken[value]})",
                line,
            )
        taken.setdefault(value, name)
