"""Exact rational LP solving: optimal duals, Farkas vectors, unbounded rays.

Every outcome is verified here from first principles. The module checks only
its rays; the solver leaves duals and Farkas multipliers to the checker, and
tests/test_solver.py corrupts them there.
"""

from __future__ import annotations

import importlib
import time
from unittest.mock import patch

import pytest
from conftest import load_golden
from hypothesis import given, settings
from hypothesis import strategies as st
from test_solver import parity

import mipcert
from mipcert.model import Constraint, Sense, SparseVec
from mipcert.numeric import Rational as R
from mipcert.simplex import (
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    LpWitnessError,
    _Tableau,
    solve_lp,
    solve_lp_from,
)


def rat(value) -> R:
    return R(*value) if isinstance(value, tuple) else R(value)


def vec(*pairs) -> SparseVec:
    return SparseVec(tuple((i, rat(v)) for i, v in pairs))


def con(name: str, sense: Sense, rhs, *pairs) -> Constraint:
    return Constraint(name, sense, vec(*pairs), rat(rhs))


def combine(constraints, multipliers) -> tuple[dict[int, R], R]:
    coefficients: dict[int, R] = {}
    rhs = R(0)
    for constraint, multiplier in zip(constraints, multipliers):
        for index, coeff in constraint.lhs:
            updated = coefficients.get(index, R(0)) + multiplier * coeff
            if updated == 0:
                coefficients.pop(index, None)
            else:
                coefficients[index] = updated
        rhs += multiplier * constraint.rhs
    return coefficients, rhs


def signs_respected(constraints, multipliers) -> bool:
    for constraint, multiplier in zip(constraints, multipliers):
        if constraint.sense is Sense.GE and multiplier < 0:
            return False
        if constraint.sense is Sense.LE and multiplier > 0:
            return False
    return True


def satisfies(constraint: Constraint, point) -> bool:
    activity = sum((coeff * point[index] for index, coeff in constraint.lhs), R(0))
    if constraint.sense is Sense.GE:
        return activity >= constraint.rhs
    if constraint.sense is Sense.LE:
        return activity <= constraint.rhs
    return activity == constraint.rhs


def check_optimal(num_variables, constraints, objective, result: LpOptimal) -> None:
    assert all(satisfies(c, result.point) for c in constraints)
    dense = [R(0)] * num_variables
    for index, coeff in objective:
        dense[index] = coeff
    assert sum((c * x for c, x in zip(dense, result.point)), R(0)) == result.value
    assert signs_respected(constraints, result.duals)
    coefficients, rhs = combine(constraints, result.duals)
    assert coefficients == {i: c for i, c in enumerate(dense) if c != 0}
    assert rhs == result.value


def check_infeasible(constraints, result: LpInfeasible) -> None:
    assert signs_respected(constraints, result.farkas)
    coefficients, rhs = combine(constraints, result.farkas)
    assert coefficients == {}
    assert rhs > 0


def check_unbounded(num_variables, constraints, objective, result: LpUnbounded) -> None:
    dense = [R(0)] * num_variables
    for index, coeff in objective:
        dense[index] = coeff
    assert sum((c * d for c, d in zip(dense, result.ray)), R(0)) < 0
    for constraint in constraints:
        along = sum((coeff * result.ray[index] for index, coeff in constraint.lhs), R(0))
        if constraint.sense is Sense.GE:
            assert along >= 0
        elif constraint.sense is Sense.LE:
            assert along <= 0
        else:
            assert along == 0
    # Unboundedness is only meaningful over a nonempty region.
    assert isinstance(solve_lp(num_variables, constraints, SparseVec(())), LpOptimal)


class TestOptimal:
    def test_golden_relaxation_exactly(self) -> None:
        problem = load_golden("small_range").problem
        result = solve_lp(problem.num_variables, problem.constraints, problem.objective)
        assert isinstance(result, LpOptimal)
        assert result.point == (R(3, 7), R(1, 7))
        assert result.value == R(1)
        assert result.duals == (R(1), R(-1))
        check_optimal(2, problem.constraints, problem.objective, result)

    def test_fractional_bound(self) -> None:
        rows = [con("C", Sense.GE, 1, (0, 3))]
        result = solve_lp(1, rows, vec((0, 1)))
        assert isinstance(result, LpOptimal)
        assert result.point == (R(1, 3),)
        assert result.value == R(1, 3)
        check_optimal(1, rows, vec((0, 1)), result)

    def test_equalities(self) -> None:
        rows = [
            con("S", Sense.EQ, 2, (0, 1), (1, 1)),
            con("D", Sense.EQ, 0, (0, 1), (1, -1)),
        ]
        objective = vec((0, 1), (1, 1))
        result = solve_lp(2, rows, objective)
        assert isinstance(result, LpOptimal)
        assert result.point == (R(1), R(1))
        assert result.value == R(2)
        check_optimal(2, rows, objective, result)

    def test_negative_rhs_normalization(self) -> None:
        rows = [con("L", Sense.GE, -5, (0, 1))]
        result = solve_lp(1, rows, vec((0, 1)))
        assert isinstance(result, LpOptimal)
        assert result.value == R(-5)
        assert result.duals == (R(1),)
        check_optimal(1, rows, vec((0, 1)), result)

    def test_negative_optimum_with_free_variables(self) -> None:
        rows = [con("L", Sense.GE, -3, (0, 2))]
        result = solve_lp(1, rows, vec((0, 1)))
        assert isinstance(result, LpOptimal)
        assert result.value == R(-3, 2)
        check_optimal(1, rows, vec((0, 1)), result)

    def test_redundant_and_duplicate_rows(self) -> None:
        rows = [
            con("A", Sense.GE, 0, (0, 1)),
            con("B", Sense.GE, 0, (0, 1)),
            con("C", Sense.GE, -1, (0, 1)),
        ]
        result = solve_lp(1, rows, vec((0, 1)))
        assert isinstance(result, LpOptimal)
        assert result.value == R(0)
        check_optimal(1, rows, vec((0, 1)), result)

    def test_trivial_row_gets_zero_dual(self) -> None:
        rows = [
            con("T", Sense.GE, -1),  # 0 >= -1, always true
            con("B", Sense.GE, 1, (0, 1)),
        ]
        result = solve_lp(1, rows, vec((0, 1)))
        assert isinstance(result, LpOptimal)
        assert result.value == R(1)
        assert result.duals[0] == R(0)
        check_optimal(1, rows, vec((0, 1)), result)

    def test_no_variables(self) -> None:
        result = solve_lp(0, [], SparseVec(()))
        assert isinstance(result, LpOptimal)
        assert result.point == ()
        assert result.value == R(0)

    def test_no_constraints_zero_objective(self) -> None:
        result = solve_lp(2, [], SparseVec(()))
        assert isinstance(result, LpOptimal)
        assert result.value == R(0)


class TestInfeasible:
    def test_one_variable_gap(self) -> None:
        rows = [con("LO", Sense.GE, 1, (0, 1)), con("HI", Sense.LE, 0, (0, 1))]
        result = solve_lp(1, rows, vec((0, 1)))
        assert isinstance(result, LpInfeasible)
        check_infeasible(rows, result)

    def test_golden_split_system(self) -> None:
        # The infeasibility golden's system under the assumptions x1 <= 0 and
        # x2 <= 0 (its first derived absurdity comes from these three rows).
        problem = load_golden("split_infeasible").problem
        rows = list(problem.constraints) + [
            con("A1", Sense.LE, 0, (0, 1)),
            con("A3", Sense.LE, 0, (1, 1)),
        ]
        result = solve_lp(2, rows, SparseVec(()))
        assert isinstance(result, LpInfeasible)
        check_infeasible(rows, result)

    def test_contradictory_equalities(self) -> None:
        rows = [con("A", Sense.EQ, 0, (0, 1)), con("B", Sense.EQ, 1, (0, 1))]
        result = solve_lp(1, rows, SparseVec(()))
        assert isinstance(result, LpInfeasible)
        check_infeasible(rows, result)

    def test_trivially_false_row(self) -> None:
        rows = [con("F", Sense.GE, 1)]  # 0 >= 1
        result = solve_lp(1, rows, SparseVec(()))
        assert isinstance(result, LpInfeasible)
        check_infeasible(rows, result)


class TestUnbounded:
    def test_free_descent(self) -> None:
        rows = [con("B", Sense.GE, 0, (0, 1))]
        objective = vec((0, -1))
        result = solve_lp(1, rows, objective)
        assert isinstance(result, LpUnbounded)
        check_unbounded(1, rows, objective, result)

    def test_descent_along_a_cone(self) -> None:
        rows = [
            con("A", Sense.GE, 0, (0, 1), (1, -1)),
            con("B", Sense.GE, 0, (0, -1), (1, 2)),
        ]
        objective = vec((0, -1), (1, -1))
        result = solve_lp(2, rows, objective)
        assert isinstance(result, LpUnbounded)
        check_unbounded(2, rows, objective, result)

    def test_totally_unconstrained(self) -> None:
        objective = vec((0, 1))
        result = solve_lp(1, [], objective)
        assert isinstance(result, LpUnbounded)
        check_unbounded(1, [], objective, result)


# --- randomized identity checking ------------------------------------------

coefficients = st.integers(min_value=-6, max_value=6).map(R)
small_rationals = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
).map(lambda p: R(*p))


@st.composite
def random_lp(draw):
    num_variables = draw(st.integers(min_value=1, max_value=3))
    num_rows = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for r in range(num_rows):
        entries = tuple(
            (index, value)
            for index, value in enumerate(
                draw(
                    st.lists(
                        coefficients, min_size=num_variables, max_size=num_variables
                    )
                )
            )
            if value != 0
        )
        sense = draw(st.sampled_from((Sense.GE, Sense.LE, Sense.EQ)))
        rhs = draw(small_rationals)
        rows.append(Constraint(f"R{r}", sense, SparseVec(entries), rhs))
    objective_entries = tuple(
        (index, value)
        for index, value in enumerate(
            draw(st.lists(coefficients, min_size=num_variables, max_size=num_variables))
        )
        if value != 0
    )
    return num_variables, rows, SparseVec(objective_entries)


@settings(max_examples=150, deadline=None)
@given(random_lp())
def test_every_outcome_carries_a_valid_witness(case) -> None:
    num_variables, rows, objective = case
    result = solve_lp(num_variables, rows, objective)
    if isinstance(result, LpOptimal):
        check_optimal(num_variables, rows, objective, result)
    elif isinstance(result, LpInfeasible):
        check_infeasible(rows, result)
    else:
        check_unbounded(num_variables, rows, objective, result)


@settings(max_examples=30, deadline=None)
@given(random_lp())
def test_deterministic(case) -> None:
    num_variables, rows, objective = case
    assert solve_lp(num_variables, rows, objective) == solve_lp(
        num_variables, rows, objective
    )


# --- larger LPs against an independent floating-point solver ----------------


@st.composite
def branchy_lp(draw):
    """Dense rows plus duplicated unit-bound rows, like a deep B&B node LP.

    Mostly nonzero coefficients make pivots fill in the tableau; the bound
    rows repeat the way a branch assumption repeats an original bound.
    """
    num_variables = draw(st.integers(min_value=1, max_value=6))
    small = st.integers(min_value=-4, max_value=4)
    dense = st.lists(small, min_size=num_variables, max_size=num_variables)
    rows = []
    for r in range(draw(st.integers(min_value=1, max_value=6))):
        entries = tuple((i, R(c)) for i, c in enumerate(draw(dense)) if c)
        sense = draw(st.sampled_from((Sense.GE, Sense.LE, Sense.EQ)))
        rhs = draw(small_rationals)
        rows.append(Constraint(f"R{r}", sense, SparseVec(entries), rhs))
    bound = st.tuples(
        st.integers(min_value=0, max_value=num_variables - 1),
        st.sampled_from((Sense.GE, Sense.LE)),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    for index, sense, value, copies in draw(st.lists(bound, max_size=6)):
        for _ in range(copies):
            if len(rows) < 10:
                rows.append(con(f"B{len(rows)}", sense, value, (index, 1)))
    objective = SparseVec(tuple((i, R(c)) for i, c in enumerate(draw(dense)) if c))
    return num_variables, rows, objective


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def highs(linprog, num_variables, rows, objective):
    """The same LP through ``scipy.optimize.linprog`` (HiGHS, floats)."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in rows:
        dense = [0.0] * num_variables
        for index, coeff in row.lhs:
            dense[index] = float(coeff)
        if row.sense is Sense.EQ:
            a_eq.append(dense)
            b_eq.append(float(row.rhs))
        else:
            sign = -1.0 if row.sense is Sense.GE else 1.0
            a_ub.append([sign * entry for entry in dense])
            b_ub.append(sign * float(row.rhs))
    costs = [0.0] * num_variables
    for index, coeff in objective:
        costs[index] = float(coeff)
    return linprog(
        costs,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=(None, None),
        method="highs",
    )


@settings(max_examples=150, deadline=None)
@given(branchy_lp())
def test_agrees_with_highs(linprog, case) -> None:
    num_variables, rows, objective = case
    result = solve_lp(num_variables, rows, objective)
    if isinstance(result, LpOptimal):
        check_optimal(num_variables, rows, objective, result)
    elif isinstance(result, LpInfeasible):
        check_infeasible(rows, result)
    else:
        check_unbounded(num_variables, rows, objective, result)
    reference = highs(linprog, num_variables, rows, objective)
    if reference.status == 0:
        assert isinstance(result, LpOptimal)
        value = float(result.value)
        assert abs(value - reference.fun) <= 1e-7 * (1 + abs(value))
    if isinstance(result, LpOptimal):
        assert reference.status != 2, reference.message


# --- warm starts: a branch row appended to an optimal tableau -----------------


@st.composite
def branched_lp(draw):
    """An LP, with branch rows to append one at a time, the way a path of the tree adds them.

    A variable may be left free or boxed. Random rows of small integer coefficients, equations
    among them, may be joined by a copy of a row scaled by two, and by an equation through the
    box's lower corner with its double, which is redundant, so that an artificial stays basic,
    and degenerate at the corner.
    """
    num_variables = draw(st.integers(min_value=1, max_value=4))
    small = st.integers(min_value=-4, max_value=4)
    rows, corner = [], []
    for index in range(num_variables):
        if draw(st.integers(min_value=0, max_value=3)):  # one variable in four is free
            low = draw(st.integers(min_value=-3, max_value=1))
            high = low + draw(st.integers(min_value=0, max_value=4))
            rows += [con(f"L{index}", Sense.GE, low, (index, 1))]
            rows += [con(f"U{index}", Sense.LE, high, (index, 1))]
            corner.append((index, low))
    for r in range(draw(st.integers(min_value=0, max_value=3))):
        values = draw(st.lists(small, min_size=num_variables, max_size=num_variables))
        entries = tuple((i, R(c)) for i, c in enumerate(values) if c)
        sense = draw(st.sampled_from((Sense.GE, Sense.LE, Sense.EQ)))
        rows.append(Constraint(f"R{r}", sense, SparseVec(entries), draw(small_rationals)))
    if rows and draw(st.booleans()):
        copied = draw(st.sampled_from(rows))
        doubled = SparseVec(tuple((i, 2 * c) for i, c in copied.lhs))
        rows.append(Constraint("COPY", copied.sense, doubled, 2 * copied.rhs))
    if corner and draw(st.booleans()):
        weights = draw(st.lists(small, min_size=len(corner), max_size=len(corner)))
        rhs = R(sum(w * low for w, (_, low) in zip(weights, corner)))
        for scale in (1, 2):
            lhs = tuple((index, R(scale * w)) for w, (index, _) in zip(weights, corner) if w)
            rows.append(Constraint(f"CORNER{scale}", Sense.EQ, SparseVec(lhs), scale * rhs))
    rows = draw(st.permutations(rows))  # a redundant row may come first
    values = draw(st.lists(small, min_size=num_variables, max_size=num_variables))
    objective = SparseVec(tuple((i, R(c)) for i, c in enumerate(values) if c))
    branch = st.tuples(
        st.integers(min_value=0, max_value=num_variables - 1),
        st.sampled_from((Sense.GE, Sense.LE)),
        small_rationals,
    )
    branches = [
        con(f"B{k}", sense, bound, (index, 1))
        for k, (index, sense, bound) in enumerate(draw(st.lists(branch, min_size=1, max_size=4)))
    ]
    return num_variables, rows, objective, branches


def check_like_cold(num_variables, rows, objective, warm) -> None:
    """``warm`` has the status and optimal value of a cold solve of ``rows``, and valid witnesses."""
    cold = solve_lp(num_variables, rows, objective)
    assert type(warm) is type(cold)
    if isinstance(warm, LpOptimal):
        assert warm.value == cold.value
        check_optimal(num_variables, rows, objective, warm)
    else:
        check_infeasible(rows, warm)


@settings(max_examples=300, deadline=None)
@given(branched_lp())
def test_a_warm_start_agrees_with_a_cold_solve(case) -> None:
    # Down a path of branch rows: each level's other branch runs on a copy of the tableau,
    # with the row's sense and side swapped, and the path goes on with the tableau itself.
    num_variables, rows, objective, branches = case
    outcome, tableau = solve_lp_from(None, num_variables, rows, objective)
    for branch in branches:
        if not isinstance(outcome, LpOptimal):
            return
        other_sense = Sense.LE if branch.sense is Sense.GE else Sense.GE
        other = Constraint("OTHER", other_sense, branch.lhs, branch.rhs - 1)
        sibling, _ = solve_lp_from(tableau.copy(), num_variables, rows + [other], objective)
        check_like_cold(num_variables, rows + [other], objective, sibling)
        rows = rows + [branch]
        outcome, tableau = solve_lp_from(tableau, num_variables, rows, objective)
        check_like_cold(num_variables, rows, objective, outcome)


def test_parity_solve_time_grows_with_the_node_count_and_not_its_cube() -> None:
    # Each child's dual simplex takes a few pivots from its parent's tableau. Cold starts, whose
    # pivots grow with the depth, cost 5.8x from hi=20 to hi=40; warm starts cost about 3.2x.
    from mipcert.solve import solve

    costs = {20: float("inf"), 40: float("inf")}
    for _ in range(3):  # both sizes in each round, so that both see the same load
        for hi in costs:
            start = time.process_time()
            assert solve(parity(hi)).num_nodes == 4 * hi + 1
            costs[hi] = min(costs[hi], time.process_time() - start)
    assert costs[40] <= 4.5 * costs[20], costs


def test_the_solver_calls_the_cold_solve_by_the_name_the_bench_traces() -> None:
    # bench/run.py --trace 1 wraps the solve module's own ``solve_lp`` by name.
    solve_module = importlib.import_module("mipcert.solve")
    assert vars(solve_module)["solve_lp"] is mipcert.simplex.solve_lp


# --- a corrupted ray is refused: an unbounded outcome carries no certificate ---


@pytest.mark.parametrize(
    ("objective", "message"),
    (
        # The true ray is x0 = 1; the shifted one is x0 = -1, uphill for -x0.
        (vec((0, -1)), "ray must improve the objective"),
        # The true ray is x1 = -1; the shifted one also moves x0 to -2 < 0.
        (vec((1, 1)), "ray must respect"),
    ),
    ids=("uphill-ray", "ray-leaving-a-row"),
)
def test_corrupted_ray_raises(monkeypatch, objective, message) -> None:
    original = _Tableau.entry

    def shifted(self, r: int, col: int) -> R:
        value = original(self, r, col)
        return value if col == -1 else value + 2

    monkeypatch.setattr(_Tableau, "entry", shifted)
    with pytest.raises(LpWitnessError, match=message):
        solve_lp(2, [con("B", Sense.GE, 0, (0, 1))], objective)


# --- the int tableau against a dense Fraction reference, pivot by pivot ------


class ReferenceTableau:
    """A dense Fraction tableau with the same layout and pivoting rules.

    It recomputes reduced costs and duals from scratch whenever they are
    needed, so it shares no bookkeeping with the int tableau beyond the rules
    themselves.
    """

    def __init__(self, num_variables, constraints) -> None:
        n = num_variables
        m = len(constraints)
        num_ineq = sum(1 for c in constraints if c.sense is not Sense.EQ)
        self.art_start = 2 * n + num_ineq
        self.width = self.art_start + m
        self.rows = []
        self.basis = []
        self.flips = []
        ineq_seen = 0
        for i, constraint in enumerate(constraints):
            flip = R(1) if constraint.rhs >= 0 else R(-1)
            row = [R(0)] * (self.width + 1)
            for index, coeff in constraint.lhs:
                row[index] = flip * coeff
                row[n + index] = -flip * coeff
            if constraint.sense is not Sense.EQ:
                row[2 * n + ineq_seen] = flip if constraint.sense is Sense.LE else -flip
                ineq_seen += 1
            row[self.art_start + i] = R(1)
            row[-1] = flip * constraint.rhs
            self.rows.append(row)
            self.basis.append(self.art_start + i)
            self.flips.append(flip)

    def pivot(self, row: int, col: int) -> None:
        pivot_value = self.rows[row][col]
        self.rows[row] = [entry / pivot_value for entry in self.rows[row]]
        for r, other in enumerate(self.rows):
            if r != row and other[col] != 0:
                factor = other[col]
                self.rows[r] = [a - factor * b for a, b in zip(other, self.rows[row])]
        self.basis[row] = col

    def cost_row(self, costs):
        """``c_j - c_B B^-1 a_j`` for every column ``j``, then ``-c_B B^-1 b``."""
        return [
            (costs[j] if j < self.width else 0)
            - sum(costs[basic] * self.rows[r][j] for r, basic in enumerate(self.basis))
            for j in range(self.width + 1)
        ]

    def duals(self, costs):
        """``c_B B^-1`` in input-row signs: ``B^-1`` is the artificial block."""
        return [
            flip * sum(
                costs[basic] * self.rows[r][self.art_start + i]
                for r, basic in enumerate(self.basis)
            )
            for i, flip in enumerate(self.flips)
        ]

    def choose(self, costs):
        """Bland's (row, column) choice, ``(None, col)`` if unbounded, or None."""
        reduced = self.cost_row(costs)
        j = next((j for j in range(self.art_start) if reduced[j] < 0), None)
        if j is None:
            return None
        candidates = [
            (self.rows[r][-1] / self.rows[r][j], self.basis[r], r)
            for r in range(len(self.rows))
            if self.rows[r][j] > 0
        ]
        return (min(candidates)[2] if candidates else None), j

    def record_pivot(self, choice, costs, pivots: list) -> None:
        self.pivot(*choice)
        rows = [list(row) for row in self.rows]
        pivots.append((choice, rows, list(self.basis), self.cost_row(costs)))

    def run_phase(self, costs, pivots: list, phase_ends: list) -> None:
        while (choice := self.choose(costs)) is not None and choice[0] is not None:
            self.record_pivot(choice, costs, pivots)
        phase_ends.append((self.cost_row(costs), self.duals(costs)))

    def reference_pivots(self, num_variables, objective) -> tuple[list, list]:
        """Every pivot ``solve_lp`` makes, with the tableau and cost row after
        it, and each phase's final cost row and duals."""
        m = len(self.rows)
        pivots: list = []
        phase_ends: list = []
        phase_one = [R(0)] * self.art_start + [R(1)] * m
        self.run_phase(phase_one, pivots, phase_ends)
        gap = sum(phase_one[basic] * self.rows[r][-1] for r, basic in enumerate(self.basis))
        if gap > 0:
            return pivots, phase_ends
        no_costs = [R(0)] * self.width
        for r in range(m):
            if self.basis[r] >= self.art_start:
                col = next((j for j in range(self.art_start) if self.rows[r][j] != 0), None)
                if col is not None:
                    # Driving out finds phase one's cost row zeroed and leaves it so.
                    self.record_pivot((r, col), no_costs, pivots)
        phase_two = [R(0)] * self.width
        for index, coeff in objective:
            phase_two[index] = coeff
            phase_two[num_variables + index] = -coeff
        self.run_phase(phase_two, pivots, phase_ends)
        return pivots, phase_ends


# ``int``, and the type of a rational's numerator, which is ``int`` too.
INTEGER_TYPES = (int, type(R(1, 2).numerator))


def check_int_row(row, den, expected) -> None:
    assert type(den) in INTEGER_TYPES and den > 0, den
    assert len(row) == len(expected)
    for num, value in zip(row, expected):
        assert type(num) in INTEGER_TYPES, f"{num!r} is a {type(num).__name__}"
        assert R(num, den) == value


def check_int_state(tableau: _Tableau, reference_rows, reference_basis) -> None:
    assert tableau.basis == reference_basis
    assert len(tableau.rows) == len(tableau.dens) == len(reference_rows)
    for row, den, expected in zip(tableau.rows, tableau.dens, reference_rows):
        check_int_row(row, den, expected)


fractional = st.tuples(
    st.integers(min_value=-7, max_value=7), st.integers(min_value=1, max_value=6)
).map(lambda p: R(*p))


@st.composite
def fractional_lp(draw):
    """Up to 4 free variables and 7 rows, every coefficient a small fraction."""
    num_variables = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for r in range(draw(st.integers(min_value=1, max_value=7))):
        values = draw(st.lists(fractional, min_size=num_variables, max_size=num_variables))
        entries = tuple((i, value) for i, value in enumerate(values) if value)
        sense = draw(st.sampled_from((Sense.GE, Sense.LE, Sense.EQ)))
        rows.append(Constraint(f"R{r}", sense, SparseVec(entries), draw(fractional)))
    values = draw(st.lists(fractional, min_size=num_variables, max_size=num_variables))
    objective = SparseVec(tuple((i, value) for i, value in enumerate(values) if value))
    return num_variables, rows, objective


@settings(max_examples=200, deadline=None)
@given(fractional_lp())
def test_int_tableau_tracks_a_fraction_reference(case) -> None:
    num_variables, rows, objective = case
    reference = ReferenceTableau(num_variables, rows)
    check_int_state(_Tableau(num_variables, rows), reference.rows, reference.basis)
    expected, phase_ends = reference.reference_pivots(num_variables, objective)

    seen = []
    original = _Tableau.pivot

    def checked_pivot(self, row, col):
        assert len(seen) < len(expected), "the int tableau pivots more often"
        choice, reference_rows, reference_basis, reference_cost_row = expected[len(seen)]
        assert (row, col) == choice
        seen.append(choice)
        result = original(self, row, col)
        check_int_state(self, reference_rows, reference_basis)
        check_int_row(self.cost_row, self.cost_den, reference_cost_row)
        return result

    phases = []
    original_run_phase = _Tableau.run_phase

    def checked_run_phase(self, costs):
        result = original_run_phase(self, costs)
        assert len(phases) < len(phase_ends), "the int tableau runs more phases"
        reference_cost_row, reference_duals = phase_ends[len(phases)]
        phases.append(result)
        check_int_row(self.cost_row, self.cost_den, reference_cost_row)
        assert self.duals(costs) == reference_duals
        return result

    with patch.object(_Tableau, "pivot", checked_pivot), patch.object(
        _Tableau, "run_phase", checked_run_phase
    ):
        solve_lp(num_variables, rows, objective)
    assert seen == [choice for choice, _, _, _ in expected]
    assert len(phases) == len(phase_ends)
