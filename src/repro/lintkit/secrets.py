"""Secret-hygiene taint pass: secret-named values must never become text.

The paper's threat model lets the adversary read everything the service
prints — logs, exception messages, ``repr`` output all cross the trust
boundary.  This pass enforces the repo's redaction rule: a value whose
name marks it as key material (``pin``, ``sk``, ``seed``, ``share``,
``secret``, ...) may be hashed, encrypted, or length-measured, but may
never flow *as itself* into an f-string, ``str()``/``repr()``/``print()``,
a logging call, or an exception constructor.

The analysis is name-based and function-local, tuned for this codebase:

- an identifier is *tainted* when any of its words is in the secret
  registry and none is a sanitizer word (``share_ciphertext`` is fine —
  ciphertexts are public; ``pin_length`` is fine — lengths leak nothing);
- plain assignment propagates taint (``x = pin`` taints ``x``);
- any function call launders its result (``sha256(pin)``, ``len(shares)``)
  — *except* the sink calls themselves, which are exactly what we flag.

Scope: ``core/``, ``crypto/``, and ``hsm/`` — the layers that hold key
material.  Rule id: ``secret-taint`` (suppression alias ``secret``).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.lintkit.engine import Finding, LintPass, ScanContext, identifier_segments

#: Identifier words that mark a value as secret key material.
SECRET_SEGMENTS = frozenset(
    {
        "pin",
        "sk",
        "seed",
        "secret",
        "share",
        "shares",
        "priv",
        "privkey",
        "password",
        "passphrase",
        "plaintext",
    }
)

#: Words that mark a derived value as safe to print: ciphertexts, public
#: keys, digests, commitments, and plain metadata (lengths, counts, ids).
SANITIZER_SEGMENTS = frozenset(
    {
        "ct",
        "cts",
        "ciphertext",
        "ciphertexts",
        "enc",
        "encrypted",
        "pk",
        "pub",
        "public",
        "pubkey",
        "pubkeys",
        "commitment",
        "commitments",
        "hash",
        "hashed",
        "digest",
        "digests",
        "proof",
        "proofs",
        "count",
        "counts",
        "num",
        "len",
        "length",
        "lengths",
        "size",
        "sizes",
        "index",
        "indexes",
        "indices",
        "id",
        "ids",
        "identifier",
        "identifiers",
        "kind",
        "status",
        "phase",
        "label",
        "name",
        "names",
        "version",
        "holder",
        "error",
    }
)

_PRINTING_BUILTINS = frozenset({"str", "repr", "print", "ascii", "format"})
_LOGGING_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)

#: Repo-relative path prefixes the pass scans.
_DEFAULT_SCOPES = ("src/repro/core/", "src/repro/crypto/", "src/repro/hsm/")


def name_is_tainted(name: str) -> bool:
    """Is ``name`` secret-flavoured and not explicitly sanitized?"""
    segments = identifier_segments(name)
    if not any(seg in SECRET_SEGMENTS for seg in segments):
        return False
    return not any(seg in SANITIZER_SEGMENTS for seg in segments)


class SecretTaintPass(LintPass):
    """Flags secret-named values reaching printable sinks."""

    name = "secrets"
    rules = ("secret-taint",)

    def run(self, ctx: ScanContext) -> List[Finding]:
        findings: List[Finding] = []
        for source in ctx.files:
            if source.tree is None:
                continue
            if not source.rel.startswith(_DEFAULT_SCOPES):
                continue
            for func in _functions(source.tree):
                findings.extend(self._check_function(source.rel, func))
        return findings

    # -- per-function analysis -------------------------------------------------
    def _check_function(self, rel: str, func: ast.AST) -> List[Finding]:
        tainted = _seed_taint(func)
        findings: List[Finding] = []
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign):
                _propagate(stmt, tainted)
            elif isinstance(stmt, ast.JoinedStr):
                for part in stmt.values:
                    if isinstance(part, ast.FormattedValue):
                        findings.extend(
                            _flag(rel, part.value, tainted, "an f-string")
                        )
            elif isinstance(stmt, ast.Call):
                findings.extend(self._check_call(rel, stmt, tainted))
            elif isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call):
                for arg in stmt.exc.args:
                    findings.extend(
                        _flag(rel, arg, tainted, "an exception message")
                    )
        return sorted(set(findings))

    def _check_call(
        self, rel: str, node: ast.Call, tainted: Set[str]
    ) -> Iterable[Finding]:
        if isinstance(node.func, ast.Name) and node.func.id in _PRINTING_BUILTINS:
            sink = f"`{node.func.id}()`"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LOGGING_METHODS
        ):
            sink = f"a log call (`.{node.func.attr}`)"
        else:
            return []
        found: List[Finding] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            found.extend(_flag(rel, arg, tainted, sink))
        return found


def _functions(tree: ast.Module) -> Iterable[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _seed_taint(func: ast.AST) -> Set[str]:
    """Parameters of ``func`` that are tainted by name."""
    tainted: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in every:
            if name_is_tainted(arg.arg):
                tainted.add(arg.arg)
    return tainted


def _propagate(stmt: ast.Assign, tainted: Set[str]) -> None:
    """``x = <tainted name>`` taints ``x`` (calls launder, literals clear)."""
    source_tainted = _expr_is_tainted_name(stmt.value, tainted)
    for target in stmt.targets:
        if isinstance(target, ast.Name):
            if source_tainted:
                tainted.add(target.id)
            else:
                tainted.discard(target.id)


def _expr_is_tainted_name(node: ast.expr, tainted: Set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in tainted or name_is_tainted(node.id)
    if isinstance(node, ast.Attribute):
        return name_is_tainted(node.attr)
    return False


def _flag(
    rel: str, expr: ast.expr, tainted: Set[str], sink: str
) -> List[Finding]:
    """Tainted names inside ``expr`` that are not laundered by a call."""
    findings = []
    for name, line in _exposed_names(expr):
        if name in tainted or name_is_tainted(name):
            findings.append(
                Finding(
                    path=rel,
                    line=line,
                    rule="secret-taint",
                    message=(
                        f"secret-named value `{name}` flows into {sink};"
                        " redact it (log a length or digest instead)"
                    ),
                )
            )
    return findings


def _exposed_names(expr: ast.expr):
    """(name, line) pairs reachable without crossing a laundering call."""
    if isinstance(expr, ast.Name):
        yield expr.id, expr.lineno
        return
    if isinstance(expr, ast.Attribute):
        yield expr.attr, expr.lineno
        return
    if isinstance(expr, ast.Call):
        # Calls launder their arguments — unless the call is itself a
        # printing sink, which the caller checks separately via _check_call.
        return
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            yield from _exposed_names(child)
