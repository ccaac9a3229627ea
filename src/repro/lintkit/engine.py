"""The lintkit core: findings, suppressions, and the pass runner.

Everything here is pass-agnostic.  A *pass* is any object with a ``name``
and a ``run(ctx) -> List[Finding]`` method; the runner parses every file
once, hands all passes the same :class:`ScanContext`, applies suppression
comments, and returns a deterministic, sorted :class:`Report`.

Suppression syntax — one rule per comment, justification required::

    self.counter += 1  # lint: unguarded[caller holds _lock, see tick()]

The comment may sit on the flagged line itself, or on a ``def`` line (or
the line directly above it) to suppress that rule for the whole function.
An empty justification is itself reported (rule ``bad-suppression``) and
the suppression is ignored: the written reason is the audit trail.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``# lint: <rule>[why this is safe]`` — rule is an id or alias.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*([A-Za-z0-9_-]+)\s*\[([^\]]*)\]")

#: Short aliases accepted in suppression comments, per pass.
RULE_ALIASES: Dict[str, Tuple[str, ...]] = {
    "secret": ("secret-taint",),
    "unguarded": ("unguarded-write",),
    "wire": ("wire-schema",),
    "unmetered": ("unmetered-op",),
    "docs": ("docstring-missing", "docstring-thin"),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a repo-relative ``path:line``."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """Human-readable one-liner (the CLI's default output format)."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-output shape."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# lint: rule[reason]`` comment."""

    line: int
    rule: str
    reason: str

    def matches(self, finding_rule: str) -> bool:
        """Does this suppression cover ``finding_rule`` (id or alias)?"""
        if self.rule == finding_rule:
            return True
        return finding_rule in RULE_ALIASES.get(self.rule, ())


class SourceFile:
    """One parsed Python file: source text, AST, and suppression comments."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.parse_error: Optional[str] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = f"syntax error: {exc.msg} (line {exc.lineno})"
        self.suppressions = _parse_suppressions(text) if self.tree is not None else []
        self._def_lines: Optional[Dict[int, Tuple[int, int]]] = None

    def def_ranges(self) -> Dict[int, Tuple[int, int]]:
        """Map of ``def`` header line -> (first, last) body line, lazily built."""
        if self._def_lines is None:
            ranges: Dict[int, Tuple[int, int]] = {}
            if self.tree is not None:
                for node in ast.walk(self.tree):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        end = getattr(node, "end_lineno", node.lineno) or node.lineno
                        ranges[node.lineno] = (node.lineno, end)
            self._def_lines = ranges
        return self._def_lines


def _parse_suppressions(text: str) -> List[Suppression]:
    """Extract suppressions from real comment tokens only (not strings)."""
    found: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                found.append(
                    Suppression(
                        line=tok.start[0],
                        rule=match.group(1),
                        reason=match.group(2).strip(),
                    )
                )
    except tokenize.TokenError:  # pragma: no cover - parse already succeeded
        pass
    return found


class ScanContext:
    """Everything a pass may look at: the parsed files plus the repo root.

    ``root`` anchors cross-file checks (the wire-schema pass loads its
    companion files relative to it) and makes reported paths repo-relative
    and OS-independent.
    """

    def __init__(self, root: Path, files: Sequence[SourceFile]) -> None:
        self.root = Path(root)
        self.files = sorted(files, key=lambda f: f.rel)
        self._by_rel = {f.rel: f for f in self.files}

    def get(self, rel: str) -> Optional[SourceFile]:
        """The scanned file at repo-relative ``rel``, if it was scanned."""
        return self._by_rel.get(rel)

    def load(self, rel: str) -> Optional[SourceFile]:
        """Like :meth:`get`, but falls back to reading from disk under root."""
        scanned = self.get(rel)
        if scanned is not None:
            return scanned
        path = self.root / rel
        if not path.is_file():
            return None
        return SourceFile(path, rel, path.read_text())


class LintPass:
    """Base class for analysis passes (purely for shared plumbing).

    Subclasses set ``name`` (the pass id used in ``--passes``) and
    ``rules`` (the finding rule ids they may emit) and implement
    :meth:`run`.
    """

    name = "abstract"
    rules: Tuple[str, ...] = ()

    def run(self, ctx: ScanContext) -> List[Finding]:
        """Return every violation this pass sees in ``ctx`` (unsuppressed)."""
        raise NotImplementedError


@dataclass
class Report:
    """The runner's outcome: active findings plus suppression bookkeeping."""

    findings: List[Finding]
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing unsuppressed remains."""
        return not self.findings

    def to_json(self) -> str:
        """Deterministic JSON document for tooling/CI artifacts."""
        return json.dumps(
            {
                "findings": [f.as_dict() for f in self.findings],
                "suppressed": len(self.suppressed),
                "files_scanned": self.files_scanned,
            },
            indent=2,
            sort_keys=True,
        )


def collect_files(root: Path, paths: Sequence[Path]) -> List[SourceFile]:
    """Parse every ``*.py`` under ``paths`` (files or directories), sorted."""
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in candidates:
            resolved = file.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(file)
    files = []
    for file in ordered:
        try:
            rel = file.resolve().relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            rel = file.as_posix()
        files.append(SourceFile(file, rel, file.read_text()))
    return files


def _apply_suppressions(
    ctx: ScanContext, raw: Iterable[Finding]
) -> Tuple[List[Finding], List[Tuple[Finding, Suppression]], List[Finding]]:
    """Split raw findings into (active, suppressed) and flag bad comments."""
    active: List[Finding] = []
    suppressed: List[Tuple[Finding, Suppression]] = []
    bad: List[Finding] = []
    bad_seen: Set[Tuple[str, int]] = set()
    for finding in raw:
        source = ctx.get(finding.path)
        covering = None
        if source is not None:
            covering = _covering_suppression(source, finding)
        if covering is None:
            active.append(finding)
        elif not covering.reason:
            # An unjustified suppression never silences anything; report
            # both the original finding and the empty-reason comment.
            key = (finding.path, covering.line)
            if key not in bad_seen:
                bad_seen.add(key)
                bad.append(
                    Finding(
                        path=finding.path,
                        line=covering.line,
                        rule="bad-suppression",
                        message=(
                            f"suppression of `{covering.rule}` has no justification"
                            " — write why the finding is safe inside the brackets"
                        ),
                    )
                )
            active.append(finding)
        else:
            suppressed.append((finding, covering))
    return active, suppressed, bad


def _covering_suppression(source: SourceFile, finding: Finding) -> Optional[Suppression]:
    ranges = source.def_ranges()
    for sup in source.suppressions:
        if not sup.matches(finding.rule):
            continue
        if sup.line == finding.line:
            return sup
        # Def-level: the comment sits on (or directly above) a `def` whose
        # body contains the finding — suppresses the rule function-wide.
        for def_line in (sup.line, sup.line + 1):
            span = ranges.get(def_line)
            if span and span[0] <= finding.line <= span[1]:
                return sup
    return None


def run_passes(ctx: ScanContext, passes: Sequence[LintPass]) -> Report:
    """Run ``passes`` over ``ctx``; return a sorted, suppression-applied report."""
    raw: List[Finding] = []
    for source in ctx.files:
        if source.parse_error:
            raw.append(
                Finding(path=source.rel, line=1, rule="parse-error", message=source.parse_error)
            )
    for lint_pass in passes:
        raw.extend(lint_pass.run(ctx))
    raw = sorted(set(raw))
    active, suppressed, bad = _apply_suppressions(ctx, raw)
    active = sorted(set(active) | set(bad))
    return Report(findings=active, suppressed=suppressed, files_scanned=len(ctx.files))


# -- shared AST helpers (used by several passes) -------------------------------
def identifier_segments(name: str) -> List[str]:
    """Split ``snake_case`` / ``camelCase`` identifiers into lowercase words."""
    pieces = re.split(r"[_\W]+", name)
    words: List[str] = []
    for piece in pieces:
        words.extend(re.findall(r"[A-Za-z][a-z0-9]*|[A-Z]+(?![a-z])", piece))
    return [w.lower() for w in words if w]


def call_name(node: ast.Call) -> Optional[str]:
    """The bare callee name of a call: ``foo(...)`` and ``x.foo(...)`` -> foo."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None
