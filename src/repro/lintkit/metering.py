"""Metering-discipline pass: crypto hot paths must report to the op meter.

The op-count invariance tests (PR 3) assert *byte-identical* operation
counts across fast paths — which only means anything if every entry point
that performs curve or field heavy lifting actually calls
``metering.count``.  This pass keeps that discipline from rotting:

- a configured set of *engine primitives* does the raw work
  (``_jac_mult``, ``_chain``, ``_add_each``, ``_comb_mult``,
  ``_multi_mult_jac``, ``_build_comb``, ``_build_windows``,
  ``batch_inverse_mod``);
- any *private* function that calls an engine becomes an engine itself
  (taken to a fixpoint), mirroring how the real helpers layer
  (``_mult_jac`` -> ``_multi_mult_jac`` -> ``_chain`` and
  ``_build_windows``), so every public entry that reaches the chain —
  ``__mul__``, ``multi_mult``, ``mult_each``, ``generator_mult_each``,
  ``schnorr_verify`` — has to meter;
- every *public* function or method (dunders included) that is an engine
  or calls one directly must contain a ``metering.count(...)`` call, or
  carry a def-level ``# lint: unmetered[reason]`` suppression explaining
  which metered op already prices the work.

Public functions that only call other *public* metered functions are
exempt — the callee reports the op, and double-counting would break the
exact-snapshot tests.  Rule id: ``unmetered-op`` (alias ``unmetered``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.lintkit.engine import Finding, LintPass, ScanContext, call_name

_DEFAULT_MODULES = ("src/repro/crypto/ec.py", "src/repro/crypto/field.py")
_DEFAULT_ENGINES = frozenset(
    {
        "_jac_mult",
        "_chain",
        "_add_each",
        "_comb_mult",
        "_multi_mult_jac",
        "_build_comb",
        "_build_windows",
        "batch_inverse_mod",
    }
)


class _Func:
    __slots__ = ("qualname", "name", "line", "rel", "calls", "meters")

    def __init__(self, qualname: str, name: str, line: int, rel: str) -> None:
        self.qualname = qualname
        self.name = name
        self.line = line
        self.rel = rel
        self.calls: Set[str] = set()
        self.meters = False


def _is_public(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True  # dunders are API surface (__mul__ is the hot path)
    return not name.startswith("_")


class MeteringPass(LintPass):
    """Flags unmetered public entry points into the crypto engines."""

    name = "metering"
    rules = ("unmetered-op",)

    def __init__(
        self,
        modules: Optional[Sequence[str]] = None,
        engines: Optional[Sequence[str]] = None,
    ) -> None:
        """``modules`` are repo-relative files to analyze together (the
        fixpoint spans them); ``engines`` seeds the primitive set."""
        self._modules = tuple(_DEFAULT_MODULES if modules is None else modules)
        self._engines = frozenset(_DEFAULT_ENGINES if engines is None else engines)

    def run(self, ctx: ScanContext) -> List[Finding]:
        funcs: List[_Func] = []
        scanned_any = False
        for rel in self._modules:
            source = ctx.get(rel)
            if source is None or source.tree is None:
                continue
            scanned_any = True
            funcs.extend(_harvest(source.tree, rel))
        if not scanned_any:
            return []
        engines = self._fixpoint(funcs)
        findings = []
        for func in funcs:
            if not _is_public(func.name):
                continue
            touches = func.name in engines or bool(func.calls & engines)
            if touches and not func.meters:
                reached = sorted((func.calls & engines) | (
                    {func.name} if func.name in engines else set()
                ))
                findings.append(
                    Finding(
                        path=func.rel,
                        line=func.line,
                        rule="unmetered-op",
                        message=(
                            f"public entry `{func.qualname}` reaches engine"
                            f" primitive(s) {', '.join(reached)} without a"
                            " metering.count(...) call"
                        ),
                    )
                )
        return sorted(set(findings))

    def _fixpoint(self, funcs: List[_Func]) -> Set[str]:
        """Grow the engine set through private helpers until stable."""
        engines = set(self._engines)
        private = [f for f in funcs if not _is_public(f.name)]
        changed = True
        while changed:
            changed = False
            for func in private:
                if func.name not in engines and func.calls & engines:
                    engines.add(func.name)
                    changed = True
        return engines


def _harvest(tree: ast.Module, rel: str) -> List[_Func]:
    """Every function/method in the module with its call and meter facts."""
    out: List[_Func] = []

    def visit(nodes, prefix: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                func = _Func(qual, node.name, node.lineno, rel)
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call):
                        callee = call_name(inner)
                        if callee == "count":
                            func.meters = True
                        elif callee:
                            func.calls.add(callee)
                out.append(func)
                # Nested defs are analyzed as part of their parent (the
                # walk above already saw their calls); no separate entry.
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{node.name}.")

    visit(tree.body, "")
    return out
