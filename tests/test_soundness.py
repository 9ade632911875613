"""Semantic soundness oracle: every row the checker accepts is true.

Every problem here has its box given as rows and, but for one hand-built case,
is pure-integer, so its integer points can be listed exactly; that case's
continuous variable is fixed by an equality row, so its value at each point
is known exactly too. Solver certificates of planted feasible problems,
seeded single-edit mutants of them and hand-built certificates go through the
checker. Every derivation it accepted must hold at every point of the box
that satisfies the original rows and the rows of its assumption set, and a
verified certificate's goal must agree with the enumerated optimum. The
oracle shares no code with the rule engine: assumption sets come from the
reference recomputation in test_checker.py, and satisfaction is tested here
on rows scaled to integer data.
"""

from __future__ import annotations

import io
import itertools
import math
import random

import pytest
from test_checker import recursive_assumption_sets

from mipcert.certfile import read_certificate
from mipcert.checker import verify_certificate
from mipcert.model import (
    Asm,
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Problem,
    Rnd,
    Sense,
    SparseVec,
    Uns,
    replace,
)
from mipcert.numeric import Rational as R
from mipcert.solve import SolveConfig, solve

DRAWS = 40
EDITS_PER_CERTIFICATE = 12


def planted_problem(rng: random.Random) -> tuple[Problem, list[tuple[int, int]]]:
    """A pure-integer problem with its box as rows and a planted feasible point:
    an integer point is drawn inside the box, then rows that it satisfies."""
    num_variables = rng.randint(1, 6)
    boxes, point, rows = [], [], []
    for index in range(num_variables):
        width = rng.randint(0, 3)
        low = rng.randint(-10, 10 - width)
        boxes.append((low, low + width))
        point.append(rng.randint(low, low + width))
        unit = SparseVec(((index, R(1)),))
        rows.append(Constraint(f"lo{index}", Sense.GE, unit, R(low)))
        rows.append(Constraint(f"hi{index}", Sense.LE, unit, R(low + width)))

    def random_vector() -> tuple[tuple[int, R], ...]:
        values = (rng.randint(-4, 4) for _ in range(num_variables))
        return tuple((index, R(value)) for index, value in enumerate(values) if value)

    for row_number in range(rng.randint(1, 8)):
        entries = random_vector()
        activity = sum(coeff * point[index] for index, coeff in entries)
        sense = rng.choice((Sense.GE, Sense.GE, Sense.LE, Sense.LE, Sense.EQ))
        slack = 0 if sense is Sense.EQ else rng.randint(0, 10)
        rhs = activity - slack if sense is Sense.GE else activity + slack
        rows.append(Constraint(f"r{row_number}", sense, SparseVec(entries), R(rhs)))
    problem = Problem(
        tuple(f"x{i}" for i in range(num_variables)),
        frozenset(range(num_variables)),
        SparseVec(random_vector()),
        rng.choice((ObjectiveSense.MIN, ObjectiveSense.MAX)),
        tuple(rows),
    )
    return problem, boxes


def integer_row(constraint) -> tuple[tuple[tuple[int, int], ...], Sense, int]:
    """The row times the lcm of its denominators, as integer data."""
    scale = math.lcm(*(R(c).denominator for _, c in constraint.lhs), R(constraint.rhs).denominator)
    lhs = tuple((index, int(coeff * scale)) for index, coeff in constraint.lhs)
    return lhs, constraint.sense, int(constraint.rhs * scale)


def holds(row, point: tuple[int, ...]) -> bool:
    lhs, sense, rhs = row
    activity = sum(coeff * point[index] for index, coeff in lhs)
    if sense is Sense.GE:
        return activity >= rhs
    if sense is Sense.LE:
        return activity <= rhs
    return activity == rhs


def accepted_until(certificate: Certificate, failure) -> int:
    """Combined index of the first derivation the checker did not accept."""
    if failure is None or failure.index is None:  # verified, or failed only at the end
        return certificate.num_original + len(certificate.derivations)
    if failure.rule == "solution":  # solutions come before every derivation
        return certificate.num_original
    return failure.index


def edited(derivation: Derivation, index: int, rng: random.Random) -> Derivation:
    """One seeded edit of a derivation; ValueError when the model refuses it."""
    constraint, reason = derivation.constraint, derivation.reason
    kind = rng.choice(("multiplier", "rhs", "sense", "reference", "reason"))
    if kind == "rhs":
        delta = rng.choice((R(1), R(-1), R(1, 2), R(-1, 2)))
        return replace(derivation, constraint=replace(constraint, rhs=constraint.rhs + delta))
    if kind == "sense" or isinstance(reason, Asm):
        sense = rng.choice([s for s in Sense if s is not constraint.sense])
        return replace(derivation, constraint=replace(constraint, sense=sense))
    if isinstance(reason, Uns):
        if kind == "reason":
            i1, a1, i2, a2 = rng.choice(
                ((reason.i2, reason.a1, reason.i1, reason.a2),
                 (reason.i1, reason.a2, reason.i2, reason.a1),
                 (reason.a1, reason.i1, reason.i2, reason.a2))
            )
            return replace(derivation, reason=Uns(i1, a1, i2, a2))
        operand = rng.choice(("i1", "a1", "i2", "a2"))
        return replace(derivation, reason=replace(reason, **{operand: rng.randrange(index)}))
    if kind == "reason":
        swapped = Rnd(reason.terms) if isinstance(reason, Lin) else Lin(reason.terms)
        return replace(derivation, reason=swapped)
    terms = list(reason.terms)
    position = rng.randrange(len(terms))
    reference, multiplier = terms[position]
    if kind == "multiplier":
        multiplier = rng.choice((2 * R(multiplier), R(multiplier) / 2, -multiplier, multiplier + 1))
    else:
        reference = rng.randrange(index)
    terms[position] = (reference, multiplier)
    return replace(derivation, reason=type(reason)(tuple(sorted(terms))))


def mutants(certificate: Certificate, rng: random.Random) -> list[Certificate]:
    derivations = certificate.derivations
    made: list[Certificate] = []
    while len(made) < EDITS_PER_CERTIFICATE:
        position = rng.randrange(len(derivations))
        try:
            changed = edited(derivations[position], certificate.num_original + position, rng)
        except ValueError:
            continue
        if changed != derivations[position]:
            rows = derivations[:position] + (changed,) + derivations[position + 1 :]
            made.append(replace(certificate, derivations=rows))
    return made


class Oracle:
    """The points of one problem's box that satisfy its rows.

    ``domains`` holds each variable's candidate values: the integers of its
    box, or for a continuous variable every value it takes at a feasible point.
    """

    def __init__(self, problem, domains) -> None:
        originals = [integer_row(row) for row in problem.constraints]
        self.points = [
            point
            for point in itertools.product(*domains)
            if all(holds(row, point) for row in originals)
        ]
        values = [
            sum(int(coeff) * point[index] for index, coeff in problem.objective)
            for point in self.points
        ]
        best = min if problem.objective_sense is ObjectiveSense.MIN else max
        self.optimum = best(values, default=None)
        self._true: dict = {}

    def row_is_true(self, row, assumptions: tuple) -> bool:
        key = (row, assumptions)
        if key not in self._true:
            self._true[key] = all(
                holds(row, point)
                for point in self.points
                if all(holds(assumption, point) for assumption in assumptions)
            )
        return self._true[key]

    def check(self, certificate: Certificate, label: str) -> bool:
        """Assert every accepted row and a verified goal; whether it verified."""
        report = verify_certificate(certificate)
        stop = accepted_until(certificate, report.failure)
        sets = recursive_assumption_sets(certificate)
        num_original = certificate.num_original
        for index in range(num_original, stop):
            assumptions = tuple(
                integer_row(certificate.derivations[a - num_original].constraint)
                for a in sorted(sets[index])
            )
            row = integer_row(certificate.derivations[index - num_original].constraint)
            assert self.row_is_true(row, assumptions), f"{label}: accepted false row {index}"
        if report.verified:
            goal = certificate.goal
            assert not isinstance(goal, InfeasibleGoal), f"{label}: feasible box proven infeasible"
            assert goal.lower is None or goal.lower <= self.optimum, f"{label}: lower bound"
            assert goal.upper is None or self.optimum <= goal.upper, f"{label}: upper bound"
        return report.verified


def test_every_accepted_row_holds_on_the_enumerated_box() -> None:
    draws = random.Random(20161126)
    edits = random.Random(1611)
    verified_mutants = rejected_mutants = 0
    for draw in range(1, DRAWS + 1):
        problem, boxes = planted_problem(draws)
        oracle = Oracle(problem, [range(low, high + 1) for low, high in boxes])
        assert oracle.points, f"draw {draw}: the planted point is missing"
        for cg_objective in (False, True):
            label = f"draw {draw} cg_objective={cg_objective}"
            certificate = solve(problem, SolveConfig(cg_objective=cg_objective)).certificate
            assert oracle.check(certificate, label)
            for number, mutant in enumerate(mutants(certificate, edits)):
                if oracle.check(mutant, f"{label} mutant {number}"):
                    verified_mutants += 1
                else:
                    rejected_mutants += 1
    # both outcomes occur, so neither half of the oracle is vacuous
    assert verified_mutants > 0 and rejected_mutants > 0


# --- hand-built certificates --------------------------------------------------
#
# Single edits of solver certificates never turn a broken split test, rounding
# test, unsplit assumption set or infeasibility-goal test into an accepted
# false row or goal. Each certificate below does, for one of them, on the box
# of one integer variable ``x``: rows 0 and 1 are ``x >= low`` and ``x <= high``.

HAND_BUILT = {
    # x <= 0 and x >= 2 miss x = 1, where both branches are infeasible.
    "split_with_a_gap": (
        (1, 1),
        """A1 L 0 1 0 1 { asm } -1
        A2 G 2 1 0 1 { asm } -1
        B1 G 1 0 { lin 2 0 1 2 -1 } -1
        B2 G 1 0 { lin 2 1 -1 3 1 } -1
        U G 1 0 { uns 4 2 5 3 } -1""",
    ),
    # (1/2)x >= 1/2 rounds to (1/2)x >= 1 only if it ignores the coefficient.
    "rounding_a_fractional_coefficient": (
        (1, 3),
        "H G 1 1 0 1/2 { rnd 1 0 1/2 } -1",
    ),
    # Both branches rest on both halves of the split; the unsplit sheds one
    # half per branch, so its row keeps both assumptions.
    "branches_under_both_assumptions": (
        (0, 1),
        """A1 L 0 1 0 1 { asm } -1
        A2 G 1 1 0 1 { asm } -1
        B1 G 1 0 { lin 2 2 -1 3 1 } -1
        B2 G 1 0 { lin 2 2 -1 3 1 } -1
        U G 1 0 { uns 4 2 5 3 } -1""",
    ),
    # A true row that is no absurdity.
    "true_row_as_infeasibility_proof": (
        (0, 1),
        "D G 0 1 0 1 { lin 1 0 1 } -1",
    ),
}


def hand_built(box: tuple[int, int], derivations: str) -> Certificate:
    low, high = box
    count = len(derivations.splitlines())
    text = (
        f"VER 1 VAR 1 x INT 1 0 OBJ min 0 CON 2 lo G {low} 1 0 1 hi L {high} 1 0 1 "
        f"RTP infeas SOL 0 DER {count}\n{derivations}\n"
    )
    return read_certificate(io.StringIO(text))


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_certificate_of_a_feasible_box_is_rejected(name) -> None:
    box, derivations = HAND_BUILT[name]
    certificate = hand_built(box, derivations)
    oracle = Oracle(certificate.problem, [range(box[0], box[1] + 1)])
    assert oracle.points
    assert not oracle.check(certificate, name)


def test_rounding_a_continuous_variable_is_rejected() -> None:
    # x is integer in [1, 1] and 2y - x = 0 fixes the continuous y at 1/2.
    # Half of x >= 1 plus half of 2y - x = 0 is y >= 1/2, which rounds to the
    # false y >= 1 only if rounding ignores that y is continuous; twice that
    # row, minus the equality and minus x <= 1, is 0 >= 1.
    text = (
        "VER 1 VAR 2 x y INT 1 0 OBJ min 0 "
        "CON 3 lo G 1 1 0 1 hi L 1 1 0 1 fix E 0 2 0 -1 1 2 "
        "RTP infeas SOL 0 DER 2\n"
        "H G 1 1 1 1 { rnd 2 0 1/2 2 1/2 } -1\n"
        "D G 1 0 { lin 3 1 -1 2 -1 3 2 } -1\n"
    )
    certificate = read_certificate(io.StringIO(text))
    oracle = Oracle(certificate.problem, [range(1, 2), (R(1, 2),)])
    assert oracle.points == [(1, R(1, 2))]
    assert not oracle.check(certificate, "rounding_a_continuous_variable")
