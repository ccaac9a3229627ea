"""Lock-discipline pass: guarded attributes are only written under their lock.

PR 4 gave every stateful class in ``service/`` and ``log/`` a prose
thread-safety contract.  This pass makes those contracts machine-checked:
a class declares them as data, e.g. ::

    class EpochBatcher:
        _GUARDED_BY = {
            "_waiters": ("_lock", "_drained"),
            "epochs_run": ("_lock", "_drained"),
        }

and every *write* to a declared attribute (``self.attr = ...``,
``self.attr += ...``, ``self.attr[k] = ...``, or a mutating method call
like ``self.attr.append(...)``) must happen lexically inside a
``with self.<lock>:`` block naming one of the declared locks — or inside
``__init__``, where the object is not yet shared.  A write that holds the
lock by *calling convention* (the caller took it) carries a def-level
``# lint: unguarded[reason]`` suppression instead; the reason is the
documentation.

The analysis is lexical and intra-method on purpose: it cannot prove the
absence of races, but it pins every guarded write to either a visible
``with`` block or a written justification.  Rule id: ``unguarded-write``
(suppression alias ``unguarded``).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.lintkit.engine import Finding, LintPass, ScanContext

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "refresh",
        "remove",
        "setdefault",
        "update",
    }
)


class LockDisciplinePass(LintPass):
    """Checks writes to ``_GUARDED_BY``-declared attributes."""

    name = "locks"
    rules = ("unguarded-write",)

    def run(self, ctx: ScanContext) -> List[Finding]:
        findings: List[Finding] = []
        for source in ctx.files:
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    contracts = _guarded_by(node)
                    if contracts:
                        findings.extend(_check_class(source.rel, node, contracts))
        return sorted(set(findings))


def _guarded_by(cls: ast.ClassDef) -> Dict[str, FrozenSet[str]]:
    """Parse the class's ``_GUARDED_BY`` literal, if present."""
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "_GUARDED_BY"
            and isinstance(stmt.value, ast.Dict)
        ):
            contracts: Dict[str, FrozenSet[str]] = {}
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    continue
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    locks = frozenset({value.value})
                elif isinstance(value, (ast.Tuple, ast.List)):
                    locks = frozenset(
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    )
                else:
                    continue
                contracts[key.value] = locks
            return contracts
    return {}


def _check_class(
    rel: str, cls: ast.ClassDef, contracts: Dict[str, FrozenSet[str]]
) -> List[Finding]:
    findings: List[Finding] = []
    for member in cls.body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if member.name == "__init__":
            continue  # construction happens-before sharing
        _walk_method(rel, cls.name, member.body, contracts, frozenset(), findings)
    return findings


def _held_locks(stmt: ast.With) -> Set[str]:
    """Lock attribute names taken by a ``with self.X [, self.Y]:`` statement."""
    held: Set[str] = set()
    for item in stmt.items:
        expr = item.context_expr
        # Accept both `with self._lock:` and `with self._lock.acquire_ctx():`
        if isinstance(expr, ast.Call):
            expr = expr.func
        while isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                held.add(expr.attr)
                break
            expr = expr.value
    return held


def _walk_method(
    rel: str,
    cls_name: str,
    body: List[ast.stmt],
    contracts: Dict[str, FrozenSet[str]],
    held: FrozenSet[str],
    findings: List[Finding],
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.With):
            inner = held | _held_locks(stmt)
            _walk_method(rel, cls_name, stmt.body, contracts, frozenset(inner), findings)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function runs later, possibly without the lock:
            # analyze it with no locks held (suppress if intentional).
            _walk_method(rel, cls_name, stmt.body, contracts, frozenset(), findings)
            continue
        _check_statement_writes(rel, cls_name, stmt, contracts, held, findings)
        for child_body in _nested_bodies(stmt):
            _walk_method(rel, cls_name, child_body, contracts, held, findings)


def _nested_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    bodies = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def _check_statement_writes(
    rel: str,
    cls_name: str,
    stmt: ast.stmt,
    contracts: Dict[str, FrozenSet[str]],
    held: FrozenSet[str],
    findings: List[Finding],
) -> None:
    writes: List[Tuple[str, int, str]] = []  # (attr, line, how)
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            writes.extend(_attr_writes(target))
    # Mutating calls in this statement's own expressions (nested statement
    # bodies are handled by the recursive walk, which tracks their locks).
    for node in _own_expressions(stmt):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                receiver = node.func.value
                if (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                ):
                    writes.append(
                        (receiver.attr, node.lineno, f".{node.func.attr}(...)")
                    )
    for attr, line, how in writes:
        locks = contracts.get(attr)
        if locks is None:
            continue
        if held & locks:
            continue
        wanted = " or ".join(f"self.{lock}" for lock in sorted(locks))
        findings.append(
            Finding(
                path=rel,
                line=line,
                rule="unguarded-write",
                message=(
                    f"{cls_name}.{attr} written via {how} outside"
                    f" `with {wanted}` (declared in _GUARDED_BY)"
                ),
            )
        )


def _own_expressions(stmt: ast.stmt):
    """Every expression node belonging to ``stmt`` itself (its header and
    value fields), excluding nested statement bodies."""
    for _, value in ast.iter_fields(stmt):
        exprs = value if isinstance(value, list) else [value]
        for item in exprs:
            if isinstance(item, ast.expr):
                yield from ast.walk(item)


def _attr_writes(target: ast.expr) -> List[Tuple[str, int, str]]:
    """Attribute names written by an assignment target on ``self``."""
    if isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return [(target.attr, target.lineno, "assignment")]
        return []
    if isinstance(target, ast.Subscript):
        inner = target.value
        if (
            isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
        ):
            return [(inner.attr, target.lineno, "item assignment")]
        return []
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[Tuple[str, int, str]] = []
        for elt in target.elts:
            out.extend(_attr_writes(elt))
        return out
    if isinstance(target, ast.Starred):
        return _attr_writes(target.value)
    return []
