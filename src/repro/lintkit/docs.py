"""Docstring pass: the documented packages keep their documentation contract.

Run it alone with ``scripts/repro_lint.py --passes docs``.  The contract:

- every module carries a module docstring of at least ``MIN_MODULE``
  characters — long enough to state the module's role and its
  thread-safety contract;
- every public class, function, and method has a docstring (one line is
  fine); ``_private`` names, dunders, and property ``setter``/``deleter``
  halves are exempt.

Scope defaults to the packages whose docstrings PR 4 promised —
``service/``, ``log/``, and ``core/wire.py`` (with the codec layer under
it, ``core/codec.py``) — plus the durability layer ``storage/``.  Rule
ids: ``docstring-missing`` and ``docstring-thin`` (suppression alias
``docs``).
"""

from __future__ import annotations

import ast
from typing import List

from repro.lintkit.engine import Finding, LintPass, ScanContext

MIN_MODULE = 120  # characters — a one-liner is not a module contract

#: Repo-relative path prefixes the pass scans: the documented surface.
_DEFAULT_SCOPES = (
    "src/repro/service/",
    "src/repro/log/",
    "src/repro/core/wire.py",
    "src/repro/core/codec.py",
    "src/repro/storage/",
    "src/repro/chaos/",
    "src/repro/sim/faults.py",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _decorator_names(node: ast.AST):
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            yield target.attr
        elif isinstance(target, ast.Name):
            yield target.id


class DocstringPass(LintPass):
    """Flags missing/thin docstrings in the documented packages."""

    name = "docs"
    rules = ("docstring-missing", "docstring-thin")

    def run(self, ctx: ScanContext) -> List[Finding]:
        findings: List[Finding] = []
        for source in ctx.files:
            if source.tree is None:
                continue
            if not source.rel.startswith(_DEFAULT_SCOPES):
                continue
            findings.extend(self._check_module(source.rel, source.tree))
        return sorted(set(findings))

    def _check_module(self, rel: str, tree: ast.Module) -> List[Finding]:
        findings: List[Finding] = []
        module_doc = ast.get_docstring(tree)
        if module_doc is None:
            findings.append(Finding(
                path=rel, line=1, rule="docstring-missing",
                message="missing module docstring",
            ))
        elif len(module_doc) < MIN_MODULE:
            findings.append(Finding(
                path=rel, line=1, rule="docstring-thin",
                message=(
                    f"module docstring too thin ({len(module_doc)} chars; state"
                    f" the module's role and thread-safety contract, >= {MIN_MODULE})"
                ),
            ))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _is_public(node.name):
                self._check_callable(rel, node, node.name, findings)
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                if ast.get_docstring(node) is None:
                    findings.append(Finding(
                        path=rel, line=node.lineno, rule="docstring-missing",
                        message=f"missing docstring on class `{node.name}`",
                    ))
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and _is_public(member.name):
                        self._check_callable(
                            rel, member, f"{node.name}.{member.name}", findings
                        )
        return findings

    @staticmethod
    def _check_callable(rel: str, node, qualname: str, findings: List[Finding]) -> None:
        decorators = set(_decorator_names(node))
        if "setter" in decorators or "deleter" in decorators or "overload" in decorators:
            return  # the getter/implementation carries the docstring
        if ast.get_docstring(node) is None:
            findings.append(Finding(
                path=rel, line=node.lineno, rule="docstring-missing",
                message=f"missing docstring on `{qualname}`",
            ))
