"""Every example script must run clean end to end.

Examples are part of the public contract (they are the README's tour), so
the suite executes each one in-process and checks for failures.
"""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

ALL_EXAMPLES = [
    "quickstart.py",
    "device_lifecycle.py",
    "attack_and_audit.py",
    "capacity_planning.py",
    "transparency_extensions.py",
]


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_runs(script, capsys):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, script))
    assert os.path.exists(path), f"missing example {script}"
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates what it does
    assert "!!" not in out  # examples flag unexpected outcomes with '!!'


def test_examples_directory_is_complete():
    """Every .py file in examples/ is exercised by this test module."""
    present = {f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")}
    assert present == set(ALL_EXAMPLES)


def test_package_docstring_quickstart_runs():
    """The ``Quickstart::`` block of ``repro``'s docstring is the first
    code a reader copies: it must run against the current API."""
    import textwrap

    import repro

    block = repro.__doc__.split("Quickstart::", 1)[1]
    exec(compile(textwrap.dedent(block), "repro.__doc__", "exec"), {})
