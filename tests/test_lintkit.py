"""repro.lintkit test suite: each pass must catch its seeded violation.

Every pass gets a good/bad fixture pair written into a temporary repo
tree: the bad snippet contains exactly the violation the rule exists for
(secret through an assignment and an f-string, an unguarded write, an
orphan wire tag, an unmetered multiply, an undocumented module), the good
snippet is the compliant version.  On top of that, the engine mechanics —
suppressions, justification requirement, deterministic ordering — are
covered directly, and a smoke test runs the real CLI over
``src/repro`` and requires a clean exit, which is the CI gate's contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lintkit import default_passes
from repro.lintkit.docs import DocstringPass
from repro.lintkit.engine import (
    ScanContext,
    collect_files,
    run_passes,
)
from repro.lintkit.locks import LockDisciplinePass
from repro.lintkit.metering import MeteringPass
from repro.lintkit.secrets import SecretTaintPass
from repro.lintkit.wireschema import WireSchemaPass

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_ctx(tmp_path: Path, files: dict) -> ScanContext:
    """Write ``{relpath: source}`` under ``tmp_path`` and parse it all."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    sources = collect_files(
        tmp_path, [tmp_path / rel for rel in sorted(files) if rel.endswith(".py")]
    )
    return ScanContext(tmp_path, sources)


# ---------------------------------------------------------------------------
# secret-hygiene taint
# ---------------------------------------------------------------------------
BAD_TAINT = '''
def fail(pin: str):
    alias = pin
    raise ValueError(f"rejected pin {alias}")
'''

GOOD_TAINT = '''
def fail(pin: str, share_ciphertext: bytes):
    pin_length = len(pin)
    raise ValueError(f"rejected pin of {pin_length} digits,"
                     f" ct {len(share_ciphertext)} bytes")
'''


def test_secret_taint_catches_assignment_and_fstring(tmp_path):
    ctx = make_ctx(tmp_path, {"src/repro/crypto/bad.py": BAD_TAINT})
    report = run_passes(ctx, [SecretTaintPass()])
    rules = {f.rule for f in report.findings}
    assert rules == {"secret-taint"}
    # The alias (taint through assignment) is flagged at the f-string sink
    # and again as the exception argument.
    messages = " ".join(f.message for f in report.findings)
    assert "`alias`" in messages
    assert "f-string" in messages
    assert "exception message" in messages


def test_secret_taint_accepts_sanitized_names(tmp_path):
    ctx = make_ctx(tmp_path, {"src/repro/crypto/good.py": GOOD_TAINT})
    report = run_passes(ctx, [SecretTaintPass()])
    assert report.clean, [f.render() for f in report.findings]


def test_secret_taint_flags_str_and_log_sinks(tmp_path):
    source = (
        "def leak(hsm_seed, logger, user_share):\n"
        "    logger.warning('got', user_share)\n"
        "    return str(hsm_seed)\n"
    )
    ctx = make_ctx(tmp_path, {"src/repro/hsm/leaky.py": source})
    report = run_passes(ctx, [SecretTaintPass()])
    sinks = " ".join(f.message for f in report.findings)
    assert "`str()`" in sinks and "log call" in sinks


def test_secret_taint_scope_excludes_other_layers(tmp_path):
    ctx = make_ctx(tmp_path, {"src/repro/service/elsewhere.py": BAD_TAINT})
    report = run_passes(ctx, [SecretTaintPass()])
    assert report.clean  # service/ is outside the secret-material scope


# ---------------------------------------------------------------------------
# lock discipline
# ---------------------------------------------------------------------------
BAD_LOCK = '''
import threading

class Counter:
    """Doc."""

    _GUARDED_BY = {"total": "_lock", "_items": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self._items = []

    def bump(self):
        self.total += 1          # unguarded write
        self._items.append(1)    # unguarded mutation
'''

GOOD_LOCK = BAD_LOCK.replace(
    "    def bump(self):\n"
    "        self.total += 1          # unguarded write\n"
    "        self._items.append(1)    # unguarded mutation\n",
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self.total += 1\n"
    "            self._items.append(1)\n",
)


def test_lock_discipline_catches_unguarded_write(tmp_path):
    ctx = make_ctx(tmp_path, {"src/repro/service/counter.py": BAD_LOCK})
    report = run_passes(ctx, [LockDisciplinePass()])
    assert {f.rule for f in report.findings} == {"unguarded-write"}
    assert len(report.findings) == 2  # the assignment and the .append
    assert all("with self._lock" in f.message for f in report.findings)


def test_lock_discipline_accepts_with_block_and_init(tmp_path):
    ctx = make_ctx(tmp_path, {"src/repro/service/counter.py": GOOD_LOCK})
    report = run_passes(ctx, [LockDisciplinePass()])
    assert report.clean, [f.render() for f in report.findings]


def test_lock_discipline_def_level_suppression(tmp_path):
    suppressed = BAD_LOCK.replace(
        "    def bump(self):",
        "    # lint: unguarded[caller serializes access in the fixture]\n"
        "    def bump(self):",
    )
    ctx = make_ctx(tmp_path, {"src/repro/service/counter.py": suppressed})
    report = run_passes(ctx, [LockDisciplinePass()])
    assert report.clean
    assert len(report.suppressed) == 2


def test_lock_discipline_requires_justification(tmp_path):
    unjustified = BAD_LOCK.replace(
        "        self.total += 1          # unguarded write",
        "        self.total += 1  # lint: unguarded[]",
    )
    ctx = make_ctx(tmp_path, {"src/repro/service/counter.py": unjustified})
    report = run_passes(ctx, [LockDisciplinePass()])
    rules = {f.rule for f in report.findings}
    # The original finding survives AND the empty reason is itself flagged.
    assert "unguarded-write" in rules and "bad-suppression" in rules


# ---------------------------------------------------------------------------
# wire-schema consistency
# ---------------------------------------------------------------------------
WIRE_OK = '''
"""Mini wire module."""
PROV_REPLY_PONG = 1
PROV_ERR_REFUSED = 1
_PROVIDER_ERROR_STATUSES = (PROV_ERR_REFUSED,)

FIELD_CODECS = {"text": None}

PROVIDER_OPS = (
    ProviderOp(1, "ping", (("name", "text"),), PROV_REPLY_PONG),
)
PROVIDER_REPLY_SCHEMAS = {PROV_REPLY_PONG: (("name", "text"),)}
'''

TESTS_OK = '''
"""Mini strategies module."""
_FIELD_STRATEGIES = {"text": None}
'''

JOURNAL_OK = '''
"""Mini journal module."""
K_NOTE = 1
K_MARK = 2

RECORD_CODECS = {K_NOTE: None, K_MARK: None}
'''

DOCS_OK = (
    "| 1 | `ping` | name | `PONG` |\n"
    "| 1 | `NOTE` | text |\n"
    "| 2 | `MARK` | |\n"
)

_WIRE_LAYOUT = {
    "src/repro/core/wire.py": WIRE_OK,
    "src/repro/storage/journal.py": JOURNAL_OK,
    "tests/test_wire_properties.py": TESTS_OK,
    "docs/ARCHITECTURE.md": DOCS_OK,
}
_PING_ROW = '    ProviderOp(1, "ping", (("name", "text"),), PROV_REPLY_PONG),\n'


def _wire_findings(tmp_path, wire_source, docs=DOCS_OK, journal_source=JOURNAL_OK):
    files = dict(_WIRE_LAYOUT)
    files["src/repro/core/wire.py"] = wire_source
    files["src/repro/storage/journal.py"] = journal_source
    files["docs/ARCHITECTURE.md"] = docs
    report = run_passes(make_ctx(tmp_path, files), [WireSchemaPass()])
    assert {f.rule for f in report.findings} <= {"wire-schema"}
    return " ".join(f.message for f in report.findings)


def test_wire_schema_accepts_complete_catalog(tmp_path):
    assert _wire_findings(tmp_path, WIRE_OK) == ""


def test_wire_schema_catches_orphan_tag(tmp_path):
    # A second row with a fresh tag and method, but no docs line.
    orphan = WIRE_OK.replace(
        _PING_ROW,
        _PING_ROW + '    ProviderOp(2, "orphan", (("name", "text"),), PROV_REPLY_PONG),\n',
    )
    assert orphan != WIRE_OK
    messages = _wire_findings(tmp_path, orphan)
    assert "op 2 (orphan) has no catalog row" in messages
    assert "ping" not in messages
    # The docs line must carry the row's tag as well as its method.
    messages = _wire_findings(tmp_path, orphan, DOCS_OK + "| 3 | `orphan` | name | `PONG` |\n")
    assert "op 2 (orphan) has no catalog row" in messages


def test_wire_schema_catches_duplicate_value_and_missing_strategy(tmp_path):
    messages = _wire_findings(
        tmp_path,
        WIRE_OK.replace(
            _PING_ROW,
            _PING_ROW + '    ProviderOp(1, "ping2", (("payload", "blob"),), PROV_REPLY_PONG),\n',
        ),
        DOCS_OK + "| 1 | `ping2` | payload | `PONG` |\n",
    )
    assert "op ping2 reuses tag value 1 (already taken by ping)" in messages
    assert "'blob' has no entry in _FIELD_STRATEGIES" in messages
    assert "'blob' has no entry in FIELD_CODECS" in messages


@pytest.mark.parametrize(
    "old, new, expected",
    [
        (  # the same provider method behind two tags
            _PING_ROW,
            _PING_ROW + '    ProviderOp(2, "ping", (("name", "text"),), PROV_REPLY_PONG),\n',
            "op tag 2 reuses method ping (already taken by 1)",
        ),
        (  # a row built from names instead of literals
            '(("name", "text"),), PROV_REPLY_PONG',
            "(_NAME,), PROV_REPLY_PONG",
            "row is not a literal ProviderOp",
        ),
        (
            "PROV_REPLY_PONG = 1\n",
            "PROV_REPLY_PONG = 1\nPROV_REPLY_PANG = 2\n",
            "reply kind PROV_REPLY_PANG has no body schema",
        ),
        (
            "PROV_REPLY_PONG = 1\n",
            "PROV_REPLY_PONG = 1\nPROV_REPLY_PANG = 1\n",
            "reply kind PROV_REPLY_PANG reuses tag value 1",
        ),
        (
            "PROV_ERR_REFUSED = 1\n",
            "PROV_ERR_REFUSED = 1\nPROV_ERR_LOST = 2\n",
            "error status PROV_ERR_LOST is missing from _PROVIDER_ERROR_STATUSES",
        ),
        (  # a reply schema's field kinds need codecs too
            'PROV_REPLY_PONG: (("name", "text"),)',
            'PROV_REPLY_PONG: (("name", "u64"),)',
            "'u64' has no entry in FIELD_CODECS",
        ),
    ],
)
def test_wire_schema_reports_each_table_defect(tmp_path, old, new, expected):
    assert old in WIRE_OK
    assert expected in _wire_findings(tmp_path, WIRE_OK.replace(old, new))


@pytest.mark.parametrize(
    "old, new, docs, expected",
    [
        (  # a declared kind the layout table does not spell
            "{K_NOTE: None, K_MARK: None}", "{K_NOTE: None}", DOCS_OK,
            "record kind K_MARK has no layout in RECORD_CODECS",
        ),
        (  # a kind with no line in the record catalog
            "K_MARK = 2", "K_MARK = 2", DOCS_OK.replace("| 2 | `MARK` | |\n", ""),
            "record kind K_MARK has no catalog row",
        ),
        (  # the catalog line must carry the kind's value as well as its name
            "K_MARK = 2", "K_MARK = 3", DOCS_OK,
            "record kind K_MARK has no catalog row",
        ),
        (
            "K_MARK = 2", "K_MARK = 1", DOCS_OK,
            "record kind K_MARK reuses value 1 (already taken by K_NOTE)",
        ),
        (  # a row keyed by something that is not a declared kind
            "K_MARK: None}", "K_MARK: None, 7: None}", DOCS_OK,
            "RECORD_CODECS key is not a declared K_* record kind",
        ),
    ],
)
def test_wire_schema_reports_each_record_table_defect(tmp_path, old, new, docs, expected):
    assert old in JOURNAL_OK
    messages = _wire_findings(tmp_path, WIRE_OK, docs, JOURNAL_OK.replace(old, new))
    assert expected in messages
    assert "K_NOTE has no" not in messages and "ping" not in messages


# ---------------------------------------------------------------------------
# metering discipline
# ---------------------------------------------------------------------------
BAD_METER = '''
"""Mini curve module."""
from repro import metering


def _raw_mult(point, scalar):
    return point


def _helper(point, scalar):
    return _raw_mult(point, scalar)


def mult(point, scalar):
    return _helper(point, scalar)
'''

GOOD_METER = BAD_METER.replace(
    "def mult(point, scalar):\n    return _helper(point, scalar)",
    "def mult(point, scalar):\n"
    '    metering.count("ec_mult")\n'
    "    return _helper(point, scalar)",
)


def _meter_pass():
    return MeteringPass(modules=("src/repro/crypto/mini.py",), engines=("_raw_mult",))


def test_metering_catches_unmetered_public_entry(tmp_path):
    ctx = make_ctx(tmp_path, {"src/repro/crypto/mini.py": BAD_METER})
    report = run_passes(ctx, [_meter_pass()])
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.rule == "unmetered-op"
    # The fixpoint walked mult -> _helper -> _raw_mult through the private
    # helper; the message names the propagated engine.
    assert "`mult`" in finding.message and "_helper" in finding.message


def test_metering_accepts_counted_entry(tmp_path):
    ctx = make_ctx(tmp_path, {"src/repro/crypto/mini.py": GOOD_METER})
    report = run_passes(ctx, [_meter_pass()])
    assert report.clean, [f.render() for f in report.findings]


COMB_CALLER = '''
"""Mini curve module: a public entry straight onto the comb evaluator."""
from repro import metering


def _comb_mult(terms):
    return terms


def comb_product(scalar, table):
    return _comb_mult([(scalar, table)])


def metered_comb_product(scalar, table):
    metering.count("ec_mult")
    return _comb_mult([(scalar, table)])


def build_table(x, y):
    return _build_comb(x, y)
'''


def test_metering_default_engines_cover_the_comb(tmp_path):
    """The comb evaluator and builder are seeded engines: an unmetered
    public caller of either is flagged, a metered one is not."""
    ctx = make_ctx(tmp_path, {"src/repro/crypto/mini.py": COMB_CALLER})
    report = run_passes(ctx, [MeteringPass(modules=("src/repro/crypto/mini.py",))])
    flagged = sorted(f.message.split("`")[1] for f in report.findings)
    assert flagged == ["build_table", "comb_product"]
    assert {f.rule for f in report.findings} == {"unmetered-op"}


def test_metering_real_modules_contract():
    """The real ec.py/field.py scan only relies on in-file suppressions."""
    files = collect_files(
        REPO_ROOT,
        [REPO_ROOT / "src/repro/crypto/ec.py", REPO_ROOT / "src/repro/crypto/field.py"],
    )
    ctx = ScanContext(REPO_ROOT, files)
    report = run_passes(ctx, [MeteringPass()])
    assert report.clean, [f.render() for f in report.findings]
    # field.py's batch-inversion trio is justified, not silently ignored.
    suppressed = {f.message.split("`")[1] for f, _ in report.suppressed}
    assert "batch_inverse_mod" in suppressed
    assert all(sup.reason for _, sup in report.suppressed)


# ---------------------------------------------------------------------------
# docstring contract
# ---------------------------------------------------------------------------
def test_docstring_pass_flags_thin_module_and_bare_function(tmp_path):
    source = '"""Too thin."""\n\n\ndef public_thing():\n    return 1\n'
    ctx = make_ctx(tmp_path, {"src/repro/service/mod.py": source})
    report = run_passes(ctx, [DocstringPass()])
    rules = sorted(f.rule for f in report.findings)
    assert rules == ["docstring-missing", "docstring-thin"]


def test_docstring_pass_out_of_scope_file_ignored(tmp_path):
    source = "def undocumented():\n    return 1\n"
    ctx = make_ctx(tmp_path, {"src/repro/crypto/mod.py": source})
    report = run_passes(ctx, [DocstringPass()])
    assert report.clean


# ---------------------------------------------------------------------------
# engine mechanics: determinism, line-level suppression
# ---------------------------------------------------------------------------
def test_findings_are_deterministic_and_sorted(tmp_path):
    files = {
        "src/repro/crypto/b.py": BAD_TAINT,
        "src/repro/crypto/a.py": BAD_TAINT,
    }
    ctx = make_ctx(tmp_path, files)
    first = run_passes(ctx, [SecretTaintPass()])
    second = run_passes(ctx, [SecretTaintPass()])
    assert [f.render() for f in first.findings] == [f.render() for f in second.findings]
    assert first.findings == sorted(first.findings)
    assert first.findings[0].path.endswith("a.py")


def test_line_level_suppression_with_reason(tmp_path):
    source = BAD_TAINT.replace(
        '    raise ValueError(f"rejected pin {alias}")',
        '    raise ValueError(f"rejected pin {alias}")'
        "  # lint: secret[fixture: demonstrating a justified suppression]",
    )
    ctx = make_ctx(tmp_path, {"src/repro/crypto/bad.py": source})
    report = run_passes(ctx, [SecretTaintPass()])
    assert report.clean
    assert report.suppressed and all(sup.reason for _, sup in report.suppressed)


def test_suppression_comments_in_strings_are_ignored(tmp_path):
    source = 'DOC = "# lint: secret[not a real comment]"\n' + BAD_TAINT
    ctx = make_ctx(tmp_path, {"src/repro/crypto/bad.py": source})
    report = run_passes(ctx, [SecretTaintPass()])
    assert report.findings  # the string literal suppresses nothing


# ---------------------------------------------------------------------------
# CLI + full-repo gate
# ---------------------------------------------------------------------------
def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "repro_lint.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_cli_full_repo_is_clean():
    """The acceptance gate: zero unsuppressed findings over src/repro."""
    result = _run_cli("src/repro")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_json_output_is_parseable():
    result = _run_cli("src/repro", "--json")
    assert result.returncode == 0, result.stdout + result.stderr
    doc = json.loads(result.stdout)
    assert doc["findings"] == []
    assert doc["suppressed"] > 0  # the justified field.py/batcher suppressions


def test_cli_fails_on_seeded_violation(tmp_path):
    bad = tmp_path / "src" / "repro" / "crypto" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(BAD_TAINT)
    result = _run_cli(
        "src/repro", "--root", str(tmp_path), cwd=tmp_path
    )
    assert result.returncode == 1
    assert "secret-taint" in result.stdout


def test_cli_rejects_unknown_pass():
    result = _run_cli("src/repro", "--passes", "nonsense")
    assert result.returncode == 2


def test_no_sharded_unsharded_probe_in_src():
    """One log interface: ``num_shards``, ``shards`` and ``has_pending``
    are real members of both logs, ``shard``/``num_shards`` real fields of
    rounds and transitions — so nothing under ``src/repro`` may fork on
    them with a ``getattr``/``hasattr`` probe.  And one placement
    arithmetic: ``% num_shards`` is written in ``on_committee`` (device →
    committee) and ``shard_of`` (identifier → lane) and nowhere else."""
    import ast

    probed = {"num_shards", "shard", "shards", "has_pending"}
    placement = ("on_committee", "shard_of")
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in placement
        ]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in probed
            ) or (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and "num_shards"
                in (getattr(node.right, "id", None), getattr(node.right, "attr", None))
                and not any(node.lineno in span for span in allowed)
            ):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert offenders == []


def test_no_reach_into_another_stores_dict_in_src():
    """A block has one owner: ``._blocks`` is ``storage/blockstore.py``'s
    private dict, and nothing else under ``src/repro`` may read or copy it
    (a second copy of a store's bytes is how a second owner grows back)."""
    import ast

    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if path.relative_to(REPO_ROOT / "src" / "repro").as_posix() == "storage/blockstore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_blocks":
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert offenders == []


def test_every_src_module_is_reached_from_an_entry_point():
    """Code that nothing runs goes: every module under ``src/repro`` must be
    in the static import closure of the entry points — ``repro.cli``,
    ``benchmarks/``, ``examples/`` and ``scripts/`` — following ``repro``
    imports (all absolute in this repo) and the helper files the entry
    points import by bare name (``_harness``, ``reference_comb`` ...).
    The one exemption is ``repro.adversary.games``: Appendix A's
    Experiments 2 and 4, which only tests run."""
    import ast

    exempt = {"repro.adversary.games"}
    src = REPO_ROOT / "src"
    modules = {}
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    helpers = {
        path.stem: path
        for directory in ("benchmarks", "benchmarks/e2e", "scripts", "examples", "tests")
        for path in (REPO_ROOT / directory).glob("*.py")
    }

    def imported(path):
        """Every dotted name an import in ``path`` may load."""
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
                yield from (f"{node.module}.{alias.name}" for alias in node.names)

    roots = [modules["repro.cli"]] + [
        path
        for directory in ("benchmarks", "examples", "scripts")
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    ]
    reached, seen, queue = {"repro.cli"}, set(), list(roots)
    while queue:
        path = queue.pop()
        if path in seen:
            continue
        seen.add(path)
        for target in imported(path):
            if target in modules:
                parts = target.split(".")
                for depth in range(1, len(parts) + 1):  # a submodule runs its packages too
                    reached.add(".".join(parts[:depth]))
                    queue.append(modules[".".join(parts[:depth])])
            elif target in helpers:
                queue.append(helpers[target])
    assert sorted(set(modules) - reached - exempt) == []


def test_every_src_name_is_referenced():
    """Code that nothing calls goes, one name at a time: every ``def`` and
    ``class`` name under ``src/repro`` (dunders exempt) must occur as a
    word somewhere in the repo's Python outside its own definitions —
    a call, an import, a ``getattr`` string or a docstring reference."""
    import ast
    import re
    from collections import Counter

    word = re.compile(r"\w+")
    src = REPO_ROOT / "src" / "repro"
    occurrences, own, defined = Counter(), Counter(), {}
    for path in sorted(REPO_ROOT.rglob("*.py")):
        if any(part.startswith(".") for part in path.relative_to(REPO_ROOT).parts):
            continue
        text = path.read_text()
        occurrences.update(word.findall(text))
        spans = {}
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans.setdefault(node.name, set()).update(range(start, node.end_lineno + 1))
            if src in path.parents:
                defined.setdefault(node.name, f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
        lines = text.splitlines()
        for name, covered in spans.items():
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            own[name] += sum(len(pattern.findall(lines[n - 1])) for n in covered)
    orphans = sorted(
        f"{where} {name}" for name, where in defined.items() if occurrences[name] <= own[name]
    )
    assert orphans == []


def test_no_getattr_passthrough_in_service():
    """The objects on the service's boundaries enumerate what crosses them
    (``wire.PROVIDER_OPS``, ``_EPOCH_METHODS`` + ``_DIRECT_NAMES``): nothing
    under ``src/repro/service`` may forward whatever it is asked through
    ``__getattr__``."""
    import ast

    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "service").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert offenders == []


def test_default_passes_cover_all_five_surfaces():
    names = [p.name for p in default_passes()]
    assert names == ["secrets", "locks", "wire", "metering", "docs"]
