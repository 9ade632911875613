"""Exact rational LP solving by two-phase primal simplex.

This is the engine underneath the certifying MILP solver. It minimizes a
linear objective over free variables subject to ``>=`` / ``<=`` / ``=`` rows
and reports one of three outcomes, each carrying the exact data the solver
needs to justify it:

- :class:`LpOptimal` — an optimal point, its value, and one dual multiplier
  per input row. The duals satisfy, exactly: ``sum_i mu_i * a_i == c``
  componentwise and ``sum_i mu_i * b_i == value``, with ``mu_i >= 0`` on
  ``>=`` rows, ``mu_i <= 0`` on ``<=`` rows, and free on ``=`` rows. That is
  precisely a valid suitable-linear-combination witness for the bound
  ``c^T x >= value``.
- :class:`LpInfeasible` — Farkas multipliers with ``sum_i mu_i * a_i == 0``,
  ``sum_i mu_i * b_i > 0``, and the same sign discipline: a witness for the
  absurd row ``0 >= positive``.
- :class:`LpUnbounded` — a ray ``d`` with ``c^T d < 0`` that respects every
  row's sense homogeneously.

Implementation notes. Free variables are split ``x = u - w`` with
``u, w >= 0``; each row is sign-normalized so its right-hand side is
nonnegative, gets a slack or surplus column if it is an inequality, and gets
an artificial column. The artificial block starts as the identity, so after
any sequence of pivots it holds the current basis inverse — duals are read
directly from it. Bland's least-index rule governs both phases, so the
method terminates without any anticycling heuristics. Artificial columns are
never entering candidates; after phase one, basic artificials are pivoted
out degenerately where possible, and rows where that is impossible are
redundant and stay inert.

Rational arithmetic is done only where every operand is nonzero. A pivot
scales the pivot row on its nonzero entries, collects that row's support
once, and updates each other row with a nonzero factor on that support
alone, in place. Initial reduced costs and the duals read from the
artificial block sum only over basic rows whose cost is nonzero. Skipping a
term with a zero operand changes no value, so Bland's rule sees the same
numbers and picks the same pivots as a full dense update would.

Correctness of the extracted witnesses does not depend on any of this
bookkeeping: every result is checked against its defining identities before
it is returned, with :func:`~mipcert.model.linear_combine` enforcing the
sign discipline, and a failed check raises :class:`LpWitnessError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .model import Constraint, RuleViolation, Sense, SparseVec, linear_combine
from .numeric import Rational

__all__ = [
    "LpInfeasible",
    "LpOptimal",
    "LpResult",
    "LpUnbounded",
    "LpWitnessError",
    "solve_lp",
]

_ZERO = Rational(0)
_ONE = Rational(1)


@dataclass(frozen=True)
class LpOptimal:
    """An optimal solution with exact dual multipliers, one per input row."""

    point: tuple[Rational, ...]
    value: Rational
    duals: tuple[Rational, ...]


@dataclass(frozen=True)
class LpInfeasible:
    """Exact Farkas multipliers proving the rows have no common solution."""

    farkas: tuple[Rational, ...]


@dataclass(frozen=True)
class LpUnbounded:
    """A feasible direction along which the objective decreases forever."""

    ray: tuple[Rational, ...]


LpResult = Union[LpOptimal, LpInfeasible, LpUnbounded]


class LpWitnessError(RuntimeError):
    """A computed witness failed one of its defining exact identities.

    This signals a defect in the simplex code, never bad input: every LP has
    an optimal, infeasible or unbounded outcome with a valid witness.
    """


class _Tableau:
    """Simplex tableau over exact rationals: dense rows, sparse arithmetic.

    :meth:`pivot` touches only the pivot row's nonzero columns, and zero-cost
    basic rows are skipped when reduced costs and duals are formed.
    """

    def __init__(self, num_variables: int, constraints: Sequence[Constraint]) -> None:
        n = num_variables
        m = len(constraints)
        num_ineq = sum(1 for c in constraints if c.sense is not Sense.EQ)
        self.num_variables = n
        self.num_rows = m
        self.art_start = 2 * n + num_ineq
        self.width = self.art_start + m
        self.senses = [c.sense for c in constraints]
        # Row flips applied during normalization; duals must be flipped back.
        self.flips: list[Rational] = []
        self.rows: list[list[Rational]] = []
        self.rhs: list[Rational] = []
        self.basis: list[int] = []

        ineq_seen = 0
        for i, con in enumerate(constraints):
            flip = _ONE if con.rhs >= 0 else -_ONE
            self.flips.append(flip)
            row = [_ZERO] * self.width
            for index, coeff in con.lhs:
                row[index] = flip * coeff          # u part
                row[n + index] = -flip * coeff     # w part
            if con.sense is not Sense.EQ:
                slack_sign = _ONE if con.sense is Sense.LE else -_ONE
                row[2 * n + ineq_seen] = flip * slack_sign
                ineq_seen += 1
            row[self.art_start + i] = _ONE
            self.rows.append(row)
            self.rhs.append(flip * con.rhs)
            self.basis.append(self.art_start + i)

    def pivot(self, row: int, col: int) -> list[tuple[int, Rational]]:
        """Pivot on ``(row, col)`` in place; return the new pivot row's support.

        Only nonzero entries of the pivot row are scaled, and every other row
        is updated only on that support: a zero operand changes nothing.
        """
        rows = self.rows
        pivot_row = rows[row]
        pivot_value = pivot_row[col]
        if pivot_value != 1:
            inv = _ONE / pivot_value
            for j, entry in enumerate(pivot_row):
                if entry:
                    pivot_row[j] = entry * inv
            self.rhs[row] *= inv
        support = [(j, entry) for j, entry in enumerate(pivot_row) if entry]
        pivot_rhs = self.rhs[row]
        for r, other in enumerate(rows):
            factor = other[col]
            if r == row or not factor:
                continue
            for j, entry in support:
                other[j] -= factor * entry
            if pivot_rhs:
                self.rhs[r] -= factor * pivot_rhs
        self.basis[row] = col
        return support

    def run_phase(self, costs: Sequence[Rational]) -> int | None:
        """Pivot to optimality for ``costs``; Bland's rule in both choices.

        Returns None on optimality, or the entering column index when the
        objective is unbounded below (no leaving row exists).
        """
        art_start = self.art_start
        reduced = list(costs[:art_start])
        for r, basic in enumerate(self.basis):
            cost = costs[basic]
            if not cost:
                continue
            row = self.rows[r]
            for j in range(art_start):
                entry = row[j]
                if entry:
                    reduced[j] -= cost * entry
        while True:
            entering = next((j for j in range(art_start) if reduced[j] < 0), None)
            if entering is None:
                return None
            leaving = None
            best_ratio = None
            for r in range(self.num_rows):
                coeff = self.rows[r][entering]
                if coeff > 0:
                    ratio = self.rhs[r] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = r
            if leaving is None:
                return entering
            delta = reduced[entering]
            for j, entry in self.pivot(leaving, entering):
                if j < art_start:
                    reduced[j] -= delta * entry

    def drive_out_artificials(self) -> None:
        """After phase one at value zero, remove basic artificials where possible.

        Each such row has zero right-hand side, so pivoting on any nonzero
        structural entry is degenerate and keeps the point feasible. Rows with
        no structural entry left are redundant and never pivot again.
        """
        for r in range(self.num_rows):
            if self.basis[r] < self.art_start:
                continue
            col = next(
                (j for j in range(self.art_start) if self.rows[r][j] != 0), None
            )
            if col is not None:
                self.pivot(r, col)

    def duals(self, costs: Sequence[Rational]) -> list[Rational]:
        """Row duals for ``costs``, in input-row order and input-row signs."""
        costed = [
            (self.rows[r], costs[basic])
            for r, basic in enumerate(self.basis)
            if costs[basic]
        ]
        values = []
        for i in range(self.num_rows):
            art_col = self.art_start + i
            y = _ZERO
            for row, cost in costed:
                entry = row[art_col]
                if entry:
                    y += cost * entry
            values.append(self.flips[i] * y)
        return values

    def column_value(self, col: int) -> Rational:
        for r in range(self.num_rows):
            if self.basis[r] == col:
                return self.rhs[r]
        return _ZERO

    def point(self) -> list[Rational]:
        n = self.num_variables
        return [self.column_value(v) - self.column_value(n + v) for v in range(n)]


def _dense_objective(num_variables: int, objective: SparseVec) -> list[Rational]:
    dense = [_ZERO] * num_variables
    for index, coeff in objective:
        dense[index] = coeff
    return dense


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LpWitnessError(message)


def _witness_row(
    constraints: Sequence[Constraint], multipliers: Sequence[Rational]
) -> Constraint:
    """``sum_i mu_i * row_i`` as a ``>=`` row, enforcing the sign discipline."""
    try:
        return linear_combine(list(zip(constraints, multipliers)), Sense.GE)
    except RuleViolation as exc:
        raise LpWitnessError(f"multipliers break the sign discipline: {exc}") from exc


def solve_lp(
    num_variables: int,
    constraints: Sequence[Constraint],
    objective: SparseVec,
) -> LpResult:
    """Minimize ``objective`` over the given rows with free variables.

    Every outcome is verified against its defining exact identities before
    being returned, so callers may rely on the multipliers unconditionally.
    Raises :class:`LpWitnessError` if one of those identities fails.
    """
    tableau = _Tableau(num_variables, constraints)
    m = tableau.num_rows

    phase1_costs = [_ZERO] * tableau.art_start + [_ONE] * m
    unbounded_col = tableau.run_phase(phase1_costs)
    _require(unbounded_col is None, "phase one must be bounded below by zero")
    infeasibility_gap = sum(
        (phase1_costs[tableau.basis[r]] * tableau.rhs[r] for r in range(m)),
        _ZERO,
    )
    if infeasibility_gap > 0:
        farkas = tableau.duals(phase1_costs)
        combined = _witness_row(constraints, farkas)
        _require(combined.lhs.is_zero, "Farkas combination must cancel")
        _require(combined.rhs > 0, "Farkas combination must have positive rhs")
        return LpInfeasible(farkas=tuple(farkas))

    tableau.drive_out_artificials()

    dense_objective = _dense_objective(num_variables, objective)
    phase2_costs = [_ZERO] * tableau.width
    for v in range(num_variables):
        phase2_costs[v] = dense_objective[v]
        phase2_costs[num_variables + v] = -dense_objective[v]

    unbounded_col = tableau.run_phase(phase2_costs)
    if unbounded_col is not None:
        direction = [_ZERO] * tableau.art_start
        direction[unbounded_col] = _ONE
        for r in range(m):
            if tableau.basis[r] < tableau.art_start:
                direction[tableau.basis[r]] = -tableau.rows[r][unbounded_col]
        ray = [
            direction[v] - direction[num_variables + v] for v in range(num_variables)
        ]
        _require(
            sum((c * d for c, d in zip(dense_objective, ray)), _ZERO) < 0,
            "ray must improve the objective",
        )
        for con in constraints:
            along = sum((coeff * ray[index] for index, coeff in con.lhs), _ZERO)
            if con.sense is Sense.GE:
                _require(along >= 0, "ray must respect >= rows")
            elif con.sense is Sense.LE:
                _require(along <= 0, "ray must respect <= rows")
            else:
                _require(along == 0, "ray must respect = rows")
        return LpUnbounded(ray=tuple(ray))

    point = tableau.point()
    value = sum((c * x for c, x in zip(dense_objective, point)), _ZERO)
    duals = tableau.duals(phase2_costs)
    combined = _witness_row(constraints, duals)
    _require(combined.lhs == objective, "duals must reconstruct the objective")
    _require(combined.rhs == value, "duals must reconstruct the optimal value")
    for con in constraints:
        activity = sum((coeff * point[index] for index, coeff in con.lhs), _ZERO)
        if con.sense is Sense.GE:
            _require(activity >= con.rhs, "optimal point must be feasible")
        elif con.sense is Sense.LE:
            _require(activity <= con.rhs, "optimal point must be feasible")
        else:
            _require(activity == con.rhs, "optimal point must be feasible")
    return LpOptimal(point=tuple(point), value=value, duals=tuple(duals))
