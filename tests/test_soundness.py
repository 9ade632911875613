"""Semantic soundness oracle: every row the checker accepts is true.

The criterion-5 generator's boxes are rows, so the integer points of a
problem can be listed exactly. Solver certificates and seeded single-edit
mutants of them go through the checker. Every derivation it accepted must
hold at every integer point of the box that satisfies the original rows and
the rows of its assumption set, and a verified certificate's goal must agree
with the enumerated optimum. The oracle shares no code with the rule engine:
assumption sets come from the reference recomputation in test_checker.py, and
satisfaction is tested here in integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

from test_acceptance import random_integer_problem
from test_checker import recursive_assumption_sets

from mipcert.checker import verify_certificate
from mipcert.model import (
    Asm,
    Certificate,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Rnd,
    Sense,
    Uns,
)
from mipcert.numeric import Rational as R
from mipcert.solve import SolveConfig, solve

#: Feasible draws; the infeasible draws between them are skipped.
DRAWS = 40
EDITS_PER_CERTIFICATE = 12


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
    """The integer points of one problem's box that satisfy its rows."""

    def __init__(self, problem, boxes: list[tuple[int, int]]) -> None:
        originals = [integer_row(row) for row in problem.constraints]
        self.points = [
            point
            for point in itertools.product(*(range(low, high + 1) for low, high in boxes))
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
    draw = 0
    while draw < DRAWS:
        problem, boxes = random_integer_problem(draws)
        oracle = Oracle(problem, boxes)
        if not oracle.points:
            continue  # every row holds on an empty box: nothing to learn
        draw += 1
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
