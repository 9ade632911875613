"""Exact rational LP solving by two-phase primal simplex, and warm starts by dual simplex.

This is the engine underneath the certifying MILP solver. It minimizes a
linear objective over free variables subject to ``>=`` / ``<=`` / ``=`` rows
and reports one of three outcomes, each carrying the exact data the solver
needs to justify it:

- :class:`LpOptimal` — an optimal point, its value, and one dual multiplier
  per input row. The duals are meant to satisfy ``sum_i mu_i * a_i == c``
  componentwise and ``sum_i mu_i * b_i == value``, with ``mu_i >= 0`` on
  ``>=`` rows, ``mu_i <= 0`` on ``<=`` rows, and free on ``=`` rows: a
  suitable-linear-combination witness for the bound ``c^T x >= value``,
  which the checker checks when the solver emits it.
- :class:`LpInfeasible` — Farkas multipliers meant to satisfy
  ``sum_i mu_i * a_i == 0``, ``sum_i mu_i * b_i > 0``, and the same sign
  discipline: a witness for the absurd row ``0 >= positive``, which the
  checker checks in the same way.
- :class:`LpUnbounded` — a ray ``d`` with ``c^T d < 0`` that respects every
  row's sense homogeneously, checked here before it is returned.

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

Warm starts. :func:`solve_lp_from` appends a branch row to an optimal tableau
with its new slack basic, eliminated against the basis, so the artificial
block still holds the basis inverse and the basis stays dual feasible. Then
:meth:`_Tableau.run_dual` runs a dual simplex, by Bland's rule in reverse column order.

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

Nothing here is trusted. Dual and Farkas multipliers are not checked in
this module: a row the solver builds from them counts only once the
checker's ``lin`` rule accepts it, and the solver checks the one point it
returns against the problem's rows. The ray is checked here, because an
unbounded outcome carries no certificate; that check and phase one's bound
raise :class:`LpWitnessError`.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence, Union

from .model import Constraint, Sense, SparseVec, _Record, satisfies
from .numeric import Number, Rational

__all__ = [
    "LpInfeasible",
    "LpOptimal",
    "LpResult",
    "LpUnbounded",
    "LpWitnessError",
    "solve_lp",
    "solve_lp_from",
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
    """Phase one was unbounded, or an unbounded ray failed its exact identities.

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
        self.num_variables = num_variables
        # Columns: u and w per variable, a slack per inequality, an artificial per row.
        slack = 2 * num_variables
        self.art_start = slack + sum(con.sense is not Sense.EQ for con in constraints)
        self.width = self.art_start + len(constraints)
        # Row flips (+1 or -1) applied during normalization; duals flip back.
        self.flips: list[int] = []
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        # Reduced costs of the current phase over every column, then minus
        # the objective value, over cost_den; run_phase sets it.
        self.cost_row = [0] * (self.width + 1)
        self.cost_den = 1
        for con in constraints:
            self.add_row(con, slack)
            slack += con.sense is not Sense.EQ

    def copy(self) -> _Tableau:
        """A copy that changes independently of this tableau: each list copied, each row too."""
        twin = object.__new__(_Tableau)
        for name, value in vars(self).items():
            setattr(twin, name, value[:] if type(value) is list else value)
        twin.rows = [row[:] for row in self.rows]
        return twin

    def add_row(self, con: Constraint, slack: int | None = None) -> None:
        """Append ``con`` with its artificial in the next artificial column. A cold row, as the
        tableau is built, has its slack column at ``slack``, a nonnegative rhs, artificial basic.
        A warm row, an inequality, gets new columns, a slack entry of 1 and its slack basic."""
        cold = slack is not None
        if not cold:
            slack = self.art_start
            for row in self.rows + [self.cost_row]:
                row.insert(slack, 0)
                row.insert(-1, 0)
            self.basis = [basic + 1 if basic >= slack else basic for basic in self.basis]
            self.art_start += 1
            self.width += 2
        art = self.art_start + len(self.rows)
        flip = 1 if (con.rhs >= 0 if cold else con.sense is Sense.LE) else -1
        den = lcm(con.rhs.denominator, *(c.denominator for _, c in con.lhs))
        row = [0] * (self.width + 1)
        for index, coeff in con.lhs:
            entry = flip * coeff.numerator * (den // coeff.denominator)
            row[index] = entry                          # u part
            row[self.num_variables + index] = -entry    # w part
        if con.sense is not Sense.EQ:
            row[slack] = flip * den if con.sense is Sense.LE else -flip * den
        row[art] = den
        row[-1] = flip * con.rhs.numerator * (den // con.rhs.denominator)
        for r, basic in enumerate(self.basis):
            if row[basic]:
                support = [(j, entry) for j, entry in enumerate(self.rows[r]) if entry]
                den = _eliminate(row, den, row[basic], support, self.dens[r])
        self.flips.append(flip)
        self.rows.append(row)
        self.dens.append(den)
        self.basis.append(art if cold else slack)

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

    def run_dual(self) -> int | None:
        """Dual simplex from a dual feasible basis, by Bland's rule over the columns in reverse
        order: leave on the row of negative rhs whose basic column is largest, and enter on the
        least ratio of reduced cost to minus a negative entry, ties going to the largest column.
        Returns None if optimal, else the Farkas multipliers of a row of negative rhs and no
        negative structural entry: minus its row of ``B^-1`` (see :meth:`duals`)."""
        while True:
            negative = [r for r, row in enumerate(self.rows) if row[-1] < 0]
            if not negative:
                return None
            leaving = max(negative, key=self.basis.__getitem__)
            # Column j's ratio is cost_row[j] / -row[j]: the denominators are common to all
            # columns and the divisors positive, so ratios compare by cross-multiplication.
            row, cost_row = self.rows[leaving], self.cost_row
            entering = None
            for j in range(self.art_start - 1, -1, -1):
                if row[j] < 0 and (
                    entering is None or cost_row[j] * row[entering] > cost_row[entering] * row[j]
                ):
                    entering = j
            if entering is None:
                return self.duals([_ZERO] * self.width, leaving)
            self.pivot(leaving, entering)

    def drive_out_artificials(self) -> None:
        """After phase one at value zero, remove basic artificials where possible.

        Each such row has zero right-hand side, so pivoting on any nonzero
        structural entry is degenerate and keeps the point feasible. Rows with
        no structural entry left are redundant and never pivot again. Phase
        one's cost row, already read, is zeroed so these pivots skip it.
        """
        self.cost_row = [0] * (self.width + 1)
        for r in range(len(self.rows)):
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

    def duals(self, costs: Sequence[Number], r: int | None = None) -> list[Rational]:
        """Row duals ``c_B B^-1`` for the phase's ``costs``, in input-row order
        and input-row signs.

        The artificial column of row ``i`` starts as its unit vector, so its
        reduced cost ``d`` is ``c - (c_B B^-1)_i`` for its cost ``c``; the
        row's flip undoes the sign normalization. From row ``r`` and zero costs,
        this reads minus that row of ``B^-1``.
        """
        row, den = (self.cost_row, self.cost_den) if r is None else (self.rows[r], self.dens[r])
        art = slice(self.art_start, self.width)
        return [
            Rational(flip * (c.numerator * den - c.denominator * d), c.denominator * den)
            for flip, c, d in zip(self.flips, costs[art], row[art])
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


def solve_lp(
    num_variables: int,
    constraints: Sequence[Constraint],
    objective: SparseVec,
) -> LpResult:
    """Minimize ``objective`` over the given rows with free variables.

    The point, dual and Farkas multipliers are returned unchecked: a caller
    that relies on them checks them, as the solver does through the checker.
    A ray is tested before it is returned, against rows with a zero
    right-hand side with :func:`~mipcert.model.satisfies`, and raises
    :class:`LpWitnessError` if it fails, as does an unbounded phase one.
    """
    return solve_lp_from(None, num_variables, constraints, objective)[0]


def solve_lp_from(
    parent: _Tableau | None,
    num_variables: int,
    constraints: Sequence[Constraint],
    objective: SparseVec,
) -> tuple[LpResult, _Tableau]:
    """:func:`solve_lp`, also returning the final tableau, with the same unchecked multipliers.
    ``parent`` is None for a cold start, or an optimal tableau of ``constraints[:-1]`` and
    ``objective``, which is changed: the last row, an inequality, is appended to it and
    :meth:`_Tableau.run_dual` runs."""
    if parent is not None:
        tableau = parent
        tableau.add_row(constraints[-1])
        farkas = tableau.run_dual()
    else:
        tableau = _Tableau(num_variables, constraints)
        phase1_costs = [_ZERO] * tableau.art_start + [_ONE] * len(constraints)
        unbounded_col = tableau.run_phase(phase1_costs)
        _require(unbounded_col is None, "phase one must be bounded below by zero")
        # The cost row's rhs is minus the phase-one gap, over cost_den.
        farkas = tableau.duals(phase1_costs) if tableau.cost_row[-1] < 0 else None
    if farkas is not None:
        return LpInfeasible(farkas=tuple(farkas)), tableau

    if parent is None:
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
            return LpUnbounded(ray=tuple(ray)), tableau

    point = tableau.point()
    value = objective.evaluate(dict(enumerate(point)))
    duals = tableau.duals([_ZERO] * tableau.width)  # phase two's artificial costs
    return LpOptimal(point=tuple(point), value=value, duals=tuple(duals)), tableau
