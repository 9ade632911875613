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
any sequence of pivots it holds the current basis inverse, and an artificial
column's reduced cost is its cost minus its row's dual. Bland's least-index
rule governs both phases, so the method terminates without any anticycling
heuristics. Artificial columns are never entering candidates; after phase
one, basic artificials are pivoted out degenerately where possible, and rows
where that is impossible are redundant and stay inert.

The tableau holds no rationals. Each row is a list of ``int`` numerators,
the right-hand side last, over one positive ``int`` denominator; a row starts
at the lcm of its input denominators and its flip is ``+1`` or ``-1``. This
is fraction-free, integer-preserving elimination in the manner of Bareiss
(1968), one denominator per row. A pivot divides the pivot row by its pivot
numerator and reduces it by one gcd. Every other row with a nonzero entry in
the pivot column subtracts a multiple of the pivot row. When that multiple's
denominator divides the row's own, which always holds when the pivot row's
denominator is 1, only the pivot row's support is touched; otherwise the row
is cross-multiplied and gcd-reduced. Reduced costs are one more int row, the
cost row, whose right-hand side is minus the objective value. Each phase
prices its costs in through the pivots' own update, one basic row at a time.
Bland's entering column, the duals and the phase-one gap are read from it,
and phase one's is zeroed before drive-out. A ratio test compares
right-hand side over entry within a row, where the denominator cancels, so
ratios and Bland's ties compare by integer cross-products. Every comparison
is exact, so Bland's rule sees the same values and picks the same pivots as
rational arithmetic would. A :data:`Rational` is built only when a point, a
dual or a ray is read out.

Correctness of the extracted witnesses does not depend on any of this
bookkeeping: every result is checked against its defining identities before
it is returned, with :func:`~mipcert.model.linear_combine` enforcing the
sign discipline, and a failed check raises :class:`LpWitnessError`.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence, Union

from .model import Constraint, RuleViolation, Sense, SparseVec, _Record, linear_combine, satisfies
from .numeric import Number, Rational

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


class LpOptimal(_Record):
    """An optimal solution with exact dual multipliers, one per input row."""

    __slots__ = ("point", "value", "duals")
    point: tuple[Rational, ...]
    value: Number
    duals: tuple[Rational, ...]


class LpInfeasible(_Record):
    """Exact Farkas multipliers proving the rows have no common solution."""

    __slots__ = ("farkas",)
    farkas: tuple[Rational, ...]


class LpUnbounded(_Record):
    """A feasible direction along which the objective decreases forever."""

    __slots__ = ("ray",)
    ray: tuple[Rational, ...]


LpResult = Union[LpOptimal, LpInfeasible, LpUnbounded]


class LpWitnessError(RuntimeError):
    """A computed witness failed one of its defining exact identities.

    This signals a defect in the simplex code, never bad input: every LP has
    an optimal, infeasible or unbounded outcome with a valid witness.
    """


def _eliminate(
    row: list[int],
    den: int,
    num: int,
    support: Sequence[tuple[int, int]],
    support_den: int,
) -> int:
    """Set ``row/den -= (num/den) * (support/support_den)`` in place over ints.

    Returns the row's new denominator. When ``support_den`` divides ``num``,
    only the support's columns change and ``den`` is kept; otherwise the row
    is cross-multiplied and reduced by the gcd of its numerators and
    denominator.
    """
    g = gcd(num, support_den)
    scale = support_den // g
    factor = num // g
    if scale != 1:
        row[:] = [entry * scale for entry in row]
    for j, entry in support:
        row[j] -= factor * entry
    if scale == 1:
        return den
    den *= scale
    g = gcd(den, *row)
    if g != 1:
        row[:] = [entry // g for entry in row]
        den //= g
    return den


class _Tableau:
    """Simplex tableau over exact rationals as int rows with one denominator each.

    Row ``r`` holds ``width + 1`` int numerators, the right-hand side last,
    over the positive int denominator ``dens[r]``; ``cost_row`` holds the
    reduced costs in the same layout over ``cost_den``. Pivots, ratio tests
    and Bland's rule run on ints alone; a :data:`Rational` is built only when
    a point, dual or ray is read out.
    """

    def __init__(self, num_variables: int, constraints: Sequence[Constraint]) -> None:
        n = num_variables
        m = len(constraints)
        num_ineq = sum(1 for c in constraints if c.sense is not Sense.EQ)
        self.num_variables = n
        self.num_rows = m
        self.art_start = 2 * n + num_ineq
        self.width = self.art_start + m
        # Row flips (+1 or -1) applied during normalization; duals flip back.
        self.flips: list[int] = []
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        # Reduced costs of the current phase over every column, then minus
        # the objective value, over cost_den; run_phase sets it.
        self.cost_row = [0] * (self.width + 1)
        self.cost_den = 1

        ineq_seen = 0
        for i, con in enumerate(constraints):
            flip = 1 if con.rhs >= 0 else -1
            den = lcm(con.rhs.denominator, *(c.denominator for _, c in con.lhs))
            row = [0] * (self.width + 1)
            for index, coeff in con.lhs:
                entry = flip * coeff.numerator * (den // coeff.denominator)
                row[index] = entry          # u part
                row[n + index] = -entry     # w part
            if con.sense is not Sense.EQ:
                slack = flip * den
                row[2 * n + ineq_seen] = slack if con.sense is Sense.LE else -slack
                ineq_seen += 1
            row[self.art_start + i] = den
            row[-1] = flip * con.rhs.numerator * (den // con.rhs.denominator)
            self.flips.append(flip)
            self.rows.append(row)
            self.dens.append(den)
            self.basis.append(self.art_start + i)

    def pivot(self, row: int, col: int) -> None:
        """Pivot on ``(row, col)`` in place.

        The pivot row is divided by its pivot entry and reduced by one gcd;
        every other row with a nonzero entry in ``col``, the cost row
        included, is eliminated against that support with :func:`_eliminate`.
        """
        rows, dens = self.rows, self.dens
        pivot_row = rows[row]
        pivot_num = pivot_row[col]
        if pivot_num < 0:
            pivot_row[:] = [-entry for entry in pivot_row]
            pivot_num = -pivot_num
        # Entries num/den divided by pivot_num/den are num/pivot_num.
        g = gcd(*pivot_row)
        if g != 1:
            pivot_row[:] = [entry // g for entry in pivot_row]
        pivot_den = dens[row] = pivot_num // g
        support = [(j, entry) for j, entry in enumerate(pivot_row) if entry]
        for r, other in enumerate(rows):
            factor = other[col]
            if r == row or not factor:
                continue
            dens[r] = _eliminate(other, dens[r], factor, support, pivot_den)
        self._price(col, support, pivot_den)
        self.basis[row] = col

    def _price(self, col: int, support: Sequence[tuple[int, int]], support_den: int) -> None:
        """Zero the cost row in ``col`` with the support of a row that is 1 there."""
        factor = self.cost_row[col]
        if factor:
            self.cost_den = _eliminate(self.cost_row, self.cost_den, factor, support, support_den)

    def run_phase(self, costs: Sequence[Number]) -> int | None:
        """Pivot to optimality for ``costs``; Bland's rule in both choices.

        Returns None on optimality, or the entering column index when the
        objective is unbounded below (no leaving row exists).
        """
        den = self.cost_den = lcm(*(c.denominator for c in costs))
        self.cost_row = [c.numerator * (den // c.denominator) for c in costs] + [0]
        for r, basic in enumerate(self.basis):
            if costs[basic]:
                support = [(j, entry) for j, entry in enumerate(self.rows[r]) if entry]
                self._price(basic, support, self.dens[r])
        while True:
            entering = next((j for j in range(self.art_start) if self.cost_row[j] < 0), None)
            if entering is None:
                return None
            # Row r's ratio is rows[r][-1] / rows[r][entering]: the shared
            # denominator cancels, and candidates have positive divisors, so
            # ratios compare by cross-multiplication.
            leaving = None
            best_rhs = best_coeff = 0
            for r, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff > 0:
                    if leaving is None:
                        leaving, best_rhs, best_coeff = r, row[-1], coeff
                        continue
                    lhs = row[-1] * best_coeff
                    rhs = best_rhs * coeff
                    tie = lhs == rhs and self.basis[r] < self.basis[leaving]
                    if lhs < rhs or tie:
                        leaving, best_rhs, best_coeff = r, row[-1], coeff
            if leaving is None:
                return entering
            self.pivot(leaving, entering)

    def drive_out_artificials(self) -> None:
        """After phase one at value zero, remove basic artificials where possible.

        Each such row has zero right-hand side, so pivoting on any nonzero
        structural entry is degenerate and keeps the point feasible. Rows with
        no structural entry left are redundant and never pivot again. Phase
        one's cost row, already read, is zeroed so these pivots skip it.
        """
        self.cost_row = [0] * (self.width + 1)
        for r in range(self.num_rows):
            if self.basis[r] < self.art_start:
                continue
            col = next(
                (j for j in range(self.art_start) if self.rows[r][j] != 0), None
            )
            if col is not None:
                self.pivot(r, col)

    def entry(self, r: int, col: int) -> Rational:
        """The value of row ``r`` in column ``col`` (``-1`` for the rhs)."""
        return Rational(self.rows[r][col], self.dens[r])

    def duals(self, costs: Sequence[Number]) -> list[Rational]:
        """Row duals ``c_B B^-1`` for the phase's ``costs``, in input-row order
        and input-row signs.

        The artificial column of row ``i`` starts as its unit vector, so its
        reduced cost ``d`` is ``c - (c_B B^-1)_i`` for its cost ``c``; the
        row's flip undoes the sign normalization.
        """
        den, art = self.cost_den, slice(self.art_start, self.width)
        return [
            Rational(flip * (c.numerator * den - c.denominator * d), c.denominator * den)
            for flip, c, d in zip(self.flips, costs[art], self.cost_row[art])
        ]

    def point(self, col: int = -1) -> list[Rational]:
        """``x = u - w`` per free variable, read in one walk over the basis.

        For the rhs (``col == -1``) this is the basic solution; for the
        entering column of an unbounded phase it is the ray along which that
        column enters: 1 on ``col`` and minus its entry on each basic column.
        """
        n = self.num_variables
        split = [_ZERO] * self.width
        if col != -1:
            split[col] = _ONE
        for r, basic in enumerate(self.basis):
            if basic < 2 * n:
                split[basic] = self.entry(r, col) if col == -1 else -self.entry(r, col)
        return [split[v] - split[n + v] for v in range(n)]


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
    Points, and rays against rows with a zero right-hand side, are tested with
    :func:`~mipcert.model.satisfies`. Raises :class:`LpWitnessError` if a check fails.
    """
    tableau = _Tableau(num_variables, constraints)
    m = tableau.num_rows

    phase1_costs = [_ZERO] * tableau.art_start + [_ONE] * m
    unbounded_col = tableau.run_phase(phase1_costs)
    _require(unbounded_col is None, "phase one must be bounded below by zero")
    # The cost row's rhs is minus the phase-one gap, over cost_den.
    if tableau.cost_row[-1] < 0:
        farkas = tableau.duals(phase1_costs)
        combined = _witness_row(constraints, farkas)
        _require(combined.lhs.is_zero, "Farkas combination must cancel")
        _require(combined.rhs > 0, "Farkas combination must have positive rhs")
        return LpInfeasible(farkas=tuple(farkas))

    tableau.drive_out_artificials()

    phase2_costs = [_ZERO] * tableau.width
    for v, coeff in objective:
        phase2_costs[v] = coeff
        phase2_costs[num_variables + v] = -coeff

    unbounded_col = tableau.run_phase(phase2_costs)
    if unbounded_col is not None:
        ray = tableau.point(unbounded_col)
        along = dict(enumerate(ray))
        _require(objective.evaluate(along) < 0, "ray must improve the objective")
        for con in constraints:
            homogeneous = Constraint(con.name, con.sense, con.lhs, 0)
            _require(satisfies(homogeneous, along), f"ray must respect row {con.name!r}")
        return LpUnbounded(ray=tuple(ray))

    point = tableau.point()
    at_point = dict(enumerate(point))
    value = objective.evaluate(at_point)
    duals = tableau.duals(phase2_costs)
    combined = _witness_row(constraints, duals)
    _require(combined.lhs.entries == objective.entries, "duals must reconstruct the objective")
    _require(combined.rhs == value, "duals must reconstruct the optimal value")
    for con in constraints:
        _require(satisfies(con, at_point), "optimal point must be feasible")
    return LpOptimal(point=tuple(point), value=value, duals=tuple(duals))
