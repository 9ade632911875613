"""Mutation gate over the trusted core: every listed fault must fail a test.

Each mutant is one exact edit to a module of ``src/mipcert``, and each makes
the checker accept something false. The edit must match exactly once, so a
refactor that moves the code fails here loudly instead of testing nothing;
such a refactor rewrites the mutant to the same fault in the new code. The
test copies the package, applies the edit and runs the named tests on the copy
in one subprocess with ``-x``. They are named by class or node id, not by file,
so that a kill costs little more than starting pytest. A surviving mutant is a
gap in those tests: add a test that kills it, and never drop or weaken the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mipcert

PACKAGE = Path(mipcert.__file__).resolve().parent
ROOT = PACKAGE.parent.parent

#: (name, module, old text, new text, the test classes or node ids expected to kill it)
MUTANTS = [
    (
        "sign-rule-same-sense-row",  # a >=-row may enter a >= combination negatively
        "model.py",
        "return sign >= 0 if row_sense is target",
        "return True if row_sense is target",
        ("tests/test_model.py::TestLinearCombine",),
    ),
    (
        "sign-rule-opposite-sense-row",  # a <=-row may enter a >= combination positively
        "model.py",
        "if row_sense is target else sign <= 0",
        "if row_sense is target else True",
        ("tests/test_model.py::TestLinearCombine",),
    ),
    (
        "dominates-ge-rhs-direction",  # a >=-row dominates a stronger >=-row
        "model.py",
        "stronger.rhs >= weaker.rhs",
        "stronger.rhs <= weaker.rhs",
        ("tests/test_model.py::TestAbsurdAndDomination",),
    ),
    (
        "dominates-le-rhs-direction",  # a <=-row dominates a stronger <=-row
        "model.py",
        "stronger.rhs <= weaker.rhs",
        "stronger.rhs >= weaker.rhs",
        ("tests/test_model.py::TestAbsurdAndDomination",),
    ),
    (
        "dominates-absurd-fall-through",  # any empty-lhs row, 0 >= 0 too, dominates all
        "model.py",
        "    return is_absurd(stronger)\n",
        "    return not stronger.lhs.entries\n",
        ("tests/test_model.py::TestAbsurdAndDomination",),
    ),
    (
        "is-absurd-ge-rhs",  # 0 >= 0 is taken for an absurdity
        "model.py",
        "return constraint.rhs > 0",
        "return constraint.rhs >= 0",
        ("tests/test_model.py::TestAbsurdAndDomination",),
    ),
    (
        "evicted-row-lookup",  # rows past their last use stay live, so citing them passes
        "checker.py",
        "            del rows[victim]\n            sets.pop(victim, None)\n",
        "            pass\n",
        ("tests/test_checker.py::TestEviction",),
    ),
    (
        "range-goal-test",  # a row on the objective proves the bound whatever its rhs
        "checker.py",
        ") and dominates(constraint, goal_row)",
        ") or dominates(constraint, goal_row)",
        ("tests/test_checker.py::TestGoalSemantics",),
    ),
    (
        "assumption-union-keeps-first-set",  # a row dependent on a second assumption loses it
        "checker.py",
        "return frozenset().union(*cited)",
        "return cited[0]",
        ("tests/test_checker.py::TestGoldens",),
    ),
    (
        "rounding-direction",  # a >=-row's rhs rounds down, so 2x >= 1 gives x >= 0
        "model.py",
        "rational_ceil(constraint.rhs)",
        "rational_floor(constraint.rhs)",
        ("tests/test_model.py::TestRounding",),
    ),
    (
        "rounding-integral-coefficients",  # 2x + y/2 >= 1 rounds as if y's were integral
        "model.py",
        "if not is_integral(coeff):",
        "if False:",
        ("tests/test_model.py::TestRounding",),
    ),
    (
        "rounding-continuous-variable",  # a row on a continuous variable rounds
        "model.py",
        "if index not in integer_set:",
        "if False:",
        ("tests/test_model.py::TestRounding",),
    ),
    (
        "split-offset",  # x <= 0 and x >= 2 leave x = 1 uncovered, yet form a split
        "model.py",
        "upper.rhs != lower.rhs + 1",
        "upper.rhs < lower.rhs + 1",
        ("tests/test_model.py::TestDisjunctionPair",),
    ),
    (
        "split-coefficients",  # a split on a fractional or continuous direction
        "model.py",
        "if index not in integer_set or not is_integral(coeff):",
        "if False:",
        ("tests/test_model.py::TestDisjunctionPair",),
    ),
    (
        "uns-set-drops-both-assumptions",  # a branch's set also loses the other branch's asm
        "checker.py",
        "cited = (lookup(reason.i1) - {reason.a1}, lookup(reason.i2) - {reason.a2})",
        "cited = (lookup(reason.i1) - {reason.a1, reason.a2}, "
        "lookup(reason.i2) - {reason.a1, reason.a2})",
        (
            "tests/test_checker.py::TestRejections",
            "tests/test_soundness.py::test_hand_built_certificate_of_a_feasible_box_is_rejected",
        ),
    ),
    (
        "infeasibility-goal-test",  # any empty-assumption row proves infeasibility
        "checker.py",
        "return is_absurd",
        "return lambda constraint: True",
        ("tests/test_checker.py::TestGoalSemantics",),
    ),
    (
        "primal-bound-direction",  # a worse solution meets a minimizing goal's upper bound
        "checker.py",
        "value <= bound",
        "value >= bound",
        ("tests/test_checker.py::TestSolutions",),
    ),
    (
        "solution-feasibility",  # an infeasible solution is accepted as the primal bound
        "checker.py",
        "if not feasible:",
        "if False:",
        ("tests/test_checker.py::TestSolutions",),
    ),
]


@pytest.mark.parametrize(
    ("module", "old", "new", "tests"), [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS]
)
def test_mutant_is_killed(tmp_path: Path, module: str, old: str, new: str, tests: tuple) -> None:
    source = tmp_path / "src"
    shutil.copytree(PACKAGE, source / "mipcert", ignore=shutil.ignore_patterns("__pycache__"))
    target = source / "mipcert" / module
    text = target.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{module}: the mutant's old text must occur exactly once"
    target.write_text(text.replace(old, new), encoding="utf-8")
    completed = subprocess.run(
        # pythonpath= puts the mutated copy ahead of the repository's own src.
        # Neither the hypothesis nor the benchmark plugin is needed to run a test; loading
        # them took a quarter of each kill. Bytecode is written as the environment allows: then
        # the first kill caches the named files' rewritten tests for the others (the copy's
        # modules are compiled afresh in each new directory).
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", "-p", "no:benchmark",
         "-o", f"pythonpath={source}", *tests],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 1, f"mutant survived:\n{completed.stdout[-2000:]}"
