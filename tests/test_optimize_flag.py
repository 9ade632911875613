"""The package keeps every check under ``python -O``."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import mipcert

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(mipcert.__file__).resolve().parent
PYTEST_ARGS = ("-q", "-p", "no:cacheprovider")


def test_no_assert_statement_in_the_package() -> None:
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_acceptance_suite_passes_under_python_o() -> None:
    # The acceptance criteria, the soundness oracle and the tightener, which
    # holds trusted-core code, in one subprocess.
    suites = ("tests/test_acceptance.py", "tests/test_soundness.py", "tests/test_tighten.py")
    completed = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", *PYTEST_ARGS, *suites],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
