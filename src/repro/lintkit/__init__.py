"""repro.lintkit: zero-dependency AST static analysis for this repo's contracts.

The paper's security argument rests on a handful of *narrow interfaces*:
secrets (PINs, Shamir shares, HSM seeds) never leave the crypto/HSM layer
in printable form, shared mutable state in the serving layer is only
touched under its declared lock, and the crypto hot paths report every
operation to the op meter so the byte-identical cost invariant holds.  Runtime tests
exercise those contracts; ``lintkit`` proves code *stays inside them* by
walking the AST — no third-party linter, no plugins, importable anywhere
the repo runs.

Layout: :mod:`repro.lintkit.engine` holds the reusable pieces (finding
model, suppression comments, pass protocol, the runner);
one module per analysis pass lives alongside it.  ``scripts/repro_lint.py``
is the CLI; ``docs/STATIC_ANALYSIS.md`` is the rule catalog.
"""

from repro.lintkit.engine import (
    Finding,
    LintPass,
    Report,
    ScanContext,
    SourceFile,
    Suppression,
    run_passes,
)
from repro.lintkit.docs import DocstringPass
from repro.lintkit.locks import LockDisciplinePass
from repro.lintkit.metering import MeteringPass
from repro.lintkit.secrets import SecretTaintPass


def default_passes():
    """The four passes the CI gate runs, in their canonical order."""
    return [
        SecretTaintPass(),
        LockDisciplinePass(),
        MeteringPass(),
        DocstringPass(),
    ]


__all__ = [
    "Finding",
    "LintPass",
    "Report",
    "ScanContext",
    "SourceFile",
    "Suppression",
    "run_passes",
    "default_passes",
    "DocstringPass",
    "LockDisciplinePass",
    "MeteringPass",
    "SecretTaintPass",
]
