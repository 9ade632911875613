"""Constraint model and the inference-rule primitives."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given
from conftest import load_golden
from hypothesis import strategies as st

from mipcert.certfile import Header
from mipcert.checker import CheckFailure
from mipcert.model import (
    Asm,
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Problem,
    RangeGoal,
    Rnd,
    RuleViolation,
    Sense,
    Solution,
    SparseVec,
    Uns,
    check_disjunction_pair,
    dominates,
    evaluate_solution,
    format_constraint,
    format_linear,
    is_absurd,
    linear_combine,
    replace,
    round_constraint,
)
from mipcert.numeric import Rational as R
from mipcert.numeric import format_rational, parse_rational
from mipcert.simplex import LpInfeasible, LpOptimal, LpUnbounded
from mipcert.solve import SolveConfig, SolveResult


def rat(value) -> R:
    return R(*value) if isinstance(value, tuple) else R(value)


def vec(*pairs: tuple[int, object]) -> SparseVec:
    return SparseVec(tuple((i, rat(v)) for i, v in pairs))


def con(name: str, sense: Sense, rhs, *pairs) -> Constraint:
    return Constraint(name, sense, vec(*pairs), rat(rhs))


class TestSparseVec:
    def test_rejects_unsorted_indices(self) -> None:
        with pytest.raises(ValueError):
            SparseVec(((1, R(1)), (0, R(1))))

    def test_rejects_duplicate_indices(self) -> None:
        with pytest.raises(ValueError):
            SparseVec(((1, R(1)), (1, R(2))))

    def test_rejects_zero_coefficient(self) -> None:
        with pytest.raises(ValueError):
            SparseVec(((0, R(0)),))

    def test_lists_are_normalized_to_hashable_tuples(self) -> None:
        v = SparseVec([[0, R(1)], (2, R(3))])
        assert v.entries == ((0, R(1)), (2, R(3)))
        assert all(type(entry) is tuple for entry in v.entries)
        assert hash(v) == hash(SparseVec(((0, R(1)), (2, R(3)))))

    def test_a_tuple_of_pairs_is_kept_as_given(self) -> None:
        entries = ((0, R(1)), (2, R(3)))
        assert SparseVec(entries).entries is entries

    def test_evaluate(self) -> None:
        v = vec((0, 2), (3, -1))
        assert v.evaluate({0: R(1, 2), 3: R(4)}) == R(-3)
        assert v.evaluate({}) == R(0)
        assert SparseVec(()).is_zero


class TestCombinationTerms:
    @pytest.mark.parametrize("reason", [Lin, Rnd])
    def test_rejects_unsorted_indices(self, reason) -> None:
        with pytest.raises(ValueError, match="not strictly increasing at index 0"):
            reason(((1, R(1)), (0, R(1))))

    @pytest.mark.parametrize("reason", [Lin, Rnd])
    def test_rejects_duplicate_indices(self, reason) -> None:
        with pytest.raises(ValueError, match="not strictly increasing at index 1"):
            reason(((1, R(1)), (1, R(2))))

    @pytest.mark.parametrize("reason", [Lin, Rnd])
    @pytest.mark.parametrize("zero", [0, R(0)])
    def test_rejects_zero_multiplier(self, reason, zero) -> None:
        with pytest.raises(ValueError, match="zero multiplier on row 2"):
            reason(((0, R(1)), (2, zero)))


class TestLinearCombine:
    def test_two_row_combination(self) -> None:
        c1 = con("C1", Sense.GE, 2, (0, 5), (1, -1))
        c2 = con("C2", Sense.LE, 1, (0, 3), (1, -2))
        combined = linear_combine([(c1, R(1)), (c2, R(-1))], Sense.GE)
        assert combined.lhs == vec((0, 2), (1, 1))
        assert combined.rhs == R(1)
        assert combined.sense == Sense.GE

    def test_cancellation_drops_coefficients(self) -> None:
        c1 = con("C1", Sense.GE, 1, (0, 1), (1, 1))
        c2 = con("C2", Sense.GE, 1, (0, -1), (1, 1))
        combined = linear_combine([(c1, R(1)), (c2, R(1))], Sense.GE)
        assert combined.lhs == vec((1, 2))
        assert combined.rhs == R(2)

    def test_zero_multipliers_are_skipped(self) -> None:
        c1 = con("C1", Sense.GE, 1, (0, 1))
        combined = linear_combine([(c1, R(0)), (c1, R(2))], Sense.GE)
        assert combined.lhs == vec((0, 2))
        assert combined.rhs == R(2)

    def test_empty_combination_is_trivial(self) -> None:
        combined = linear_combine([], Sense.GE)
        assert combined.lhs.is_zero and combined.rhs == R(0)

    @pytest.mark.parametrize(
        ("row_sense", "mult", "target"),
        [
            (Sense.GE, R(-1), Sense.GE),  # >= row needs mult >= 0 for >= target
            (Sense.LE, R(1), Sense.GE),   # <= row needs mult <= 0 for >= target
            (Sense.GE, R(1), Sense.LE),   # mirrored for <= target
            (Sense.LE, R(-1), Sense.LE),
            (Sense.GE, R(1), Sense.EQ),   # = target requires = rows only
            (Sense.LE, R(-1), Sense.EQ),
        ],
    )
    def test_sign_discipline_violations(self, row_sense, mult, target) -> None:
        row = con("C", row_sense, 1, (0, 1))
        with pytest.raises(RuleViolation):
            linear_combine([(row, mult)], target)

    def test_equalities_are_free(self) -> None:
        row = con("E", Sense.EQ, 3, (0, 1))
        for target in (Sense.GE, Sense.LE, Sense.EQ):
            combined = linear_combine([(row, R(-2))], target)
            assert combined.rhs == R(-6)


class TestRounding:
    def test_ge_rounds_up(self) -> None:
        row = con("C", Sense.GE, (1, 4), (0, 1), (1, 2))
        rounded = round_constraint(row, frozenset({0, 1}))
        assert rounded.rhs == R(1)
        assert rounded.sense == Sense.GE
        assert rounded.lhs == row.lhs

    def test_le_rounds_down(self) -> None:
        row = con("C", Sense.LE, (7, 2), (0, 1))
        rounded = round_constraint(row, frozenset({0}))
        assert rounded.rhs == R(3)

    def test_integral_rhs_is_fixed_point(self) -> None:
        row = con("C", Sense.GE, 2, (0, 3))
        assert round_constraint(row, frozenset({0})).rhs == R(2)

    def test_rejects_equality(self) -> None:
        with pytest.raises(RuleViolation):
            round_constraint(con("C", Sense.EQ, 1, (0, 1)), frozenset({0}))

    def test_rejects_continuous_variable(self) -> None:
        with pytest.raises(RuleViolation):
            round_constraint(con("C", Sense.GE, (1, 2), (0, 1)), frozenset())

    def test_rejects_fractional_coefficient(self) -> None:
        with pytest.raises(RuleViolation):
            round_constraint(con("C", Sense.GE, (1, 2), (0, (1, 2))), frozenset({0}))


class TestAbsurdAndDomination:
    def test_absurdity(self) -> None:
        assert is_absurd(con("A", Sense.GE, 1))
        assert is_absurd(con("A", Sense.GE, (1, 1000)))
        assert is_absurd(con("A", Sense.LE, -1))
        assert is_absurd(con("A", Sense.EQ, 5))
        assert not is_absurd(con("A", Sense.GE, 0))
        assert not is_absurd(con("A", Sense.LE, 0))
        assert not is_absurd(con("A", Sense.EQ, 0))
        assert not is_absurd(con("A", Sense.GE, 1, (0, 1)))

    def test_absurd_dominates_everything(self) -> None:
        absurd = con("A", Sense.GE, 1)
        assert dominates(absurd, con("X", Sense.LE, -5, (0, 3), (2, 1)))
        assert dominates(absurd, con("X", Sense.EQ, 0))

    def test_stronger_rhs_dominates(self) -> None:
        assert dominates(
            con("S", Sense.GE, 2, (0, 1)), con("W", Sense.GE, 1, (0, 1))
        )
        assert not dominates(
            con("S", Sense.GE, 1, (0, 1)), con("W", Sense.GE, 2, (0, 1))
        )
        assert dominates(
            con("S", Sense.LE, 1, (0, 1)), con("W", Sense.LE, 2, (0, 1))
        )
        assert dominates(con("S", Sense.GE, 1, (0, 1)), con("W", Sense.GE, 1, (0, 1)))

    def test_equality_dominates_inequalities(self) -> None:
        eq = con("E", Sense.EQ, 2, (0, 1))
        assert dominates(eq, con("W", Sense.GE, 2, (0, 1)))
        assert dominates(eq, con("W", Sense.GE, 1, (0, 1)))
        assert dominates(eq, con("W", Sense.LE, 2, (0, 1)))
        assert dominates(eq, con("W", Sense.LE, 3, (0, 1)))
        assert not dominates(eq, con("W", Sense.GE, 3, (0, 1)))
        assert not dominates(eq, con("W", Sense.EQ, 3, (0, 1)))
        assert dominates(eq, con("W", Sense.EQ, 2, (0, 1)))

    def test_inequality_never_dominates_equality(self) -> None:
        assert not dominates(
            con("S", Sense.GE, 2, (0, 1)), con("W", Sense.EQ, 2, (0, 1))
        )

    def test_different_lhs_never_dominates(self) -> None:
        assert not dominates(
            con("S", Sense.GE, 5, (0, 2)), con("W", Sense.GE, 1, (0, 1))
        )

    def test_absurdity_dominates_when_the_equal_lhs_test_fails(self) -> None:
        # Both rows have the empty left-hand side, so the equal-lhs test is
        # reached first; its sense or rhs loses, and only the absurdity wins.
        assert dominates(con("S", Sense.GE, 1), con("W", Sense.GE, 5))
        assert dominates(con("S", Sense.GE, 1), con("W", Sense.LE, -5))
        assert dominates(con("S", Sense.LE, -1), con("W", Sense.GE, 3))
        assert not dominates(con("S", Sense.GE, 0), con("W", Sense.GE, 1))


class TestDisjunctionPair:
    def test_unit_branch_pair(self) -> None:
        down = con("D", Sense.LE, 0, (0, 1))
        up = con("U", Sense.GE, 1, (0, 1))
        assert check_disjunction_pair(down, up, frozenset({0}))
        assert check_disjunction_pair(up, down, frozenset({0}))

    def test_general_integral_pair(self) -> None:
        down = con("D", Sense.LE, -3, (0, 2), (1, -1))
        up = con("U", Sense.GE, -2, (0, 2), (1, -1))
        assert check_disjunction_pair(down, up, frozenset({0, 1}))

    def test_wrong_gap_rejected(self) -> None:
        down = con("D", Sense.LE, 0, (0, 1))
        assert not check_disjunction_pair(
            down, con("U", Sense.GE, 2, (0, 1)), frozenset({0})
        )

    def test_fractional_threshold_rejected(self) -> None:
        down = con("D", Sense.LE, (1, 2), (0, 1))
        up = con("U", Sense.GE, (3, 2), (0, 1))
        assert not check_disjunction_pair(down, up, frozenset({0}))

    def test_continuous_variable_rejected(self) -> None:
        down = con("D", Sense.LE, 0, (0, 1))
        up = con("U", Sense.GE, 1, (0, 1))
        assert not check_disjunction_pair(down, up, frozenset())

    def test_fractional_coefficient_rejected(self) -> None:
        down = con("D", Sense.LE, 0, (0, (1, 2)))
        up = con("U", Sense.GE, 1, (0, (1, 2)))
        assert not check_disjunction_pair(down, up, frozenset({0}))

    def test_mismatched_lhs_rejected(self) -> None:
        down = con("D", Sense.LE, 0, (0, 1))
        up = con("U", Sense.GE, 1, (0, 2))
        assert not check_disjunction_pair(down, up, frozenset({0}))

    def test_two_le_rows_rejected(self) -> None:
        down = con("D", Sense.LE, 0, (0, 1))
        assert not check_disjunction_pair(down, down, frozenset({0}))


class TestFormatConstraint:
    def test_conventional_inequality(self) -> None:
        row = con("obj", Sense.GE, 1, (0, 2), (1, 1))
        assert format_constraint(row, ("x", "y")) == "2x + y >= 1"

    def test_negative_and_unit_coefficients(self) -> None:
        row = con("C", Sense.LE, (1, 2), (0, -1), (1, (5, 2)), (2, -3))
        assert format_constraint(row, ("x", "y", "z")) == "-x + 5/2y - 3z <= 1/2"

    def test_empty_lhs(self) -> None:
        assert format_constraint(con("A", Sense.GE, 1), ()) == "0 >= 1"

    def test_equality(self) -> None:
        assert format_constraint(con("E", Sense.EQ, 0, (0, 1)), ("x",)) == "x = 0"

    def test_a_variable_past_the_names_is_shown_by_index(self) -> None:
        assert format_linear(vec((0, 1), (2, (-3, 2))), ("a", "b")) == "a - 3/2x2"


class TestProblemAndSolution:
    def _problem(self) -> Problem:
        return Problem(
            variable_names=("x", "y"),
            integer_set=frozenset(),
            objective=vec((0, 2), (1, 1)),
            objective_sense=ObjectiveSense.MIN,
            constraints=(
                con("C1", Sense.GE, 2, (0, 5), (1, -1)),
                con("C2", Sense.LE, 1, (0, 3), (1, -2)),
            ),
        )

    def test_out_of_range_indices_rejected(self) -> None:
        with pytest.raises(ValueError):
            Problem(("x",), frozenset({1}), vec(), ObjectiveSense.MIN, ())
        with pytest.raises(ValueError):
            Problem(("x",), frozenset(), vec((1, 1)), ObjectiveSense.MIN, ())
        with pytest.raises(ValueError):
            Problem(
                ("x",),
                frozenset(),
                vec(),
                ObjectiveSense.MIN,
                (con("C", Sense.GE, 0, (3, 1)),),
            )

    def test_evaluate_solution_exactly(self) -> None:
        problem = self._problem()
        good = Solution("s", vec((0, (3, 7)), (1, (1, 7))))
        feasible, value = evaluate_solution(problem, good)
        assert feasible and value == R(1)
        bad = Solution("s", vec((0, (2, 7)), (1, (1, 7))))
        feasible, _ = evaluate_solution(problem, bad)
        assert not feasible

    def test_integrality_enforced_on_integer_variables(self) -> None:
        base = self._problem()
        problem = replace(base, integer_set=frozenset({1}))
        fractional = Solution("s", vec((0, (3, 7)), (1, (1, 7))))
        feasible, _ = evaluate_solution(problem, fractional)
        assert not feasible
        integral = Solution("s", vec((0, 1), (1, 1)))
        feasible, value = evaluate_solution(problem, integral)
        assert feasible and value == R(3)

    def test_goal_range_validation(self) -> None:
        with pytest.raises(ValueError):
            RangeGoal(R(2), R(1))
        assert RangeGoal(None, None).lower is None


# --- record semantics ----------------------------------------------------


def public_records() -> list:
    """One value of every public record type, built from fresh objects."""
    lhs = vec((0, 1), (2, (1, 2)))
    constraint = con("c", Sense.GE, 1, (0, 1), (2, (1, 2)))
    problem = Problem(("x", "y", "z"), frozenset({0}), vec((1, 3)), ObjectiveSense.MAX, (constraint,))
    goal = RangeGoal(R(0), None)
    derivation = Derivation(replace(constraint, name="d"), Lin(((0, R(1)),)), 4)
    return [
        lhs,
        constraint,
        problem,
        Asm(),
        Lin(((0, R(2)),)),
        Rnd(((0, R(2)),)),
        Uns(1, 2, 3, 4),
        derivation,
        InfeasibleGoal(),
        goal,
        Solution("s", vec((0, 1))),
        Certificate(problem, goal, (Solution("s", vec((0, 1))),), (derivation,)),
        Header(problem, goal),
        CheckFailure(3, "lin", "too weak"),
        LpOptimal((R(1),), R(2), (R(3),)),
        LpInfeasible((R(1),)),
        LpUnbounded((R(1),)),
        SolveConfig(node_limit=5, cg_objective=True),
        SolveResult("optimal", R(1), (R(1),), None, 1),
    ]


#: Every record paired with an equal one built from fresh objects.
RECORD_PAIRS = list(zip(public_records(), public_records()))
#: Every field name of the records above.
FIELD_NAMES = (
    "entries", "name", "sense", "lhs", "rhs", "variable_names", "integer_set", "objective",
    "objective_sense", "constraints", "terms", "i1", "a1", "i2", "a2", "constraint", "reason",
    "last_use", "lower", "upper", "assignment", "problem", "goal", "solutions", "derivations",
    "index", "rule", "message", "point", "value", "duals", "farkas", "ray", "node_limit",
    "cg_objective", "status", "certificate", "num_nodes",
)


@pytest.mark.parametrize(("record", "twin"), RECORD_PAIRS, ids=[type(r).__name__ for r, _ in RECORD_PAIRS])
class TestRecordSemantics:
    def test_fields_cannot_be_assigned_or_deleted(self, record, twin) -> None:
        for name in (name for name in FIELD_NAMES if hasattr(record, name)):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == twin

    def test_equal_records_hash_equal(self, record, twin) -> None:
        assert twin is not record and twin == record and not twin != record
        assert hash(twin) == hash(record)

    def test_records_do_not_order(self, record, twin) -> None:
        with pytest.raises(TypeError):
            record < twin  # noqa: B015


def test_record_equality_is_type_exact() -> None:
    terms = ((0, R(1)),)
    assert Lin(terms) != Rnd(terms) and Rnd(terms) != Lin(terms)
    assert Lin(terms) == Lin(terms)
    constraint = con("c", Sense.LE, 2, (0, 1))
    assert constraint != ("c", Sense.LE, constraint.lhs, R(2))
    assert ("c", Sense.LE, constraint.lhs, R(2)) != constraint
    assert Asm() == Asm() and hash(Asm()) == hash(Asm())
    assert InfeasibleGoal() == InfeasibleGoal() and Asm() != InfeasibleGoal()


def test_record_repr_names_each_field() -> None:
    assert repr(RangeGoal(R(1, 2), None)) == "RangeGoal(lower=Fraction(1, 2), upper=None)"
    assert repr(Uns(4, 1, 5, 2)) == "Uns(i1=4, a1=1, i2=5, a2=2)"
    assert repr(InfeasibleGoal()) == "InfeasibleGoal()"


def test_record_constructors_take_each_field_once() -> None:
    problem = Problem(("x",), frozenset(), vec(), ObjectiveSense.MIN, ())
    certificate = Certificate(problem, InfeasibleGoal())
    assert certificate.solutions == () and certificate.derivations == ()
    assert Certificate(goal=InfeasibleGoal(), problem=problem) == certificate
    assert SolveConfig() == SolveConfig(None, False) == SolveConfig(cg_objective=False)
    for build in (
        lambda: Certificate(problem),
        lambda: Certificate(problem, InfeasibleGoal(), (), (), ()),
        lambda: Certificate(problem, InfeasibleGoal(), problem=problem),
        lambda: Certificate(problem, InfeasibleGoal(), proof=()),
        lambda: Constraint("c", Sense.GE, vec()),
        lambda: Asm(1),
    ):
        with pytest.raises(TypeError):
            build()


def test_replace_reruns_the_invariants() -> None:
    with pytest.raises(ValueError, match="^sparse indices not strictly increasing at index 0$"):
        replace(vec((0, 1)), entries=((1, R(1)), (0, R(1))))
    with pytest.raises(ValueError, match="^zero multiplier on row 0$"):
        replace(Lin(((0, R(1)),)), terms=((0, R(0)),))
    with pytest.raises(ValueError, match="^zero multiplier on row 0$"):
        replace(Rnd(((0, R(1)),)), terms=((0, R(0)),))
    with pytest.raises(ValueError, match="^invalid last_use -2$"):
        replace(Derivation(con("c", Sense.GE, 0), Asm()), last_use=-2)
    with pytest.raises(ValueError, match="^range lower bound exceeds upper bound$"):
        replace(RangeGoal(R(0), R(1)), lower=R(2))
    problem = Problem(("x",), frozenset(), vec(), ObjectiveSense.MIN, ())
    with pytest.raises(ValueError, match="^integer variable index 1 out of range for 1 variables$"):
        replace(problem, integer_set=frozenset({1}))
    changed = replace(con("c", Sense.GE, 0, (0, 1)), rhs=R(3))
    assert changed == con("c", Sense.GE, 3, (0, 1))


def test_certificate_names_are_unique_as_in_a_file() -> None:
    # The parser's rule and words: no two rows (original or derived) and no
    # two solutions share a name, else anchors and written files collide.
    certificate = load_golden("split_infeasible")
    a1, a2, *rest = certificate.derivations
    renamed = replace(a2, constraint=replace(a2.constraint, name="A1"))
    with pytest.raises(ValueError, match="^duplicate constraint name 'A1'$"):
        replace(certificate, derivations=(a1, renamed, *rest))
    renamed = replace(a1, constraint=replace(a1.constraint, name="C1"))
    with pytest.raises(ValueError, match="^duplicate constraint name 'C1'$"):
        replace(certificate, derivations=(renamed,))
    problem = Problem(("x",), frozenset(), vec(), ObjectiveSense.MIN, ())
    solution = Solution("s", vec((0, 1)))
    with pytest.raises(ValueError, match="^duplicate solution name 's'$"):
        Certificate(problem, RangeGoal(None, None), (solution, solution))
    assert Certificate(problem, RangeGoal(None, None), (solution, replace(solution, name="t")))


# --- property-based soundness -------------------------------------------

small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
).map(lambda f: R(f.numerator, f.denominator))


@st.composite
def rows_through_origin_box(draw):
    """Rows satisfied by a known point, plus sign-correct multipliers."""
    dimension = draw(st.integers(min_value=1, max_value=3))
    point = {i: draw(small_rationals) for i in range(dimension)}
    rows = []
    mults = []
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        coeffs = [draw(small_rationals) for _ in range(dimension)]
        lhs = SparseVec(tuple((i, c) for i, c in enumerate(coeffs) if c != 0))
        activity = lhs.evaluate(point)
        sense = draw(st.sampled_from([Sense.GE, Sense.LE, Sense.EQ]))
        slack = draw(small_rationals.map(abs))
        if sense == Sense.GE:
            rhs = activity - slack
            mult = draw(small_rationals.map(abs))
        elif sense == Sense.LE:
            rhs = activity + slack
            mult = -draw(small_rationals.map(abs))
        else:
            rhs = activity
            mult = draw(small_rationals)
        rows.append(Constraint(f"R{k}", sense, lhs, rhs))
        mults.append(mult)
    return point, rows, mults


@given(rows_through_origin_box())
def test_combination_soundness(case) -> None:
    """A sign-correct combination is satisfied by any common solution."""
    point, rows, mults = case
    combined = linear_combine(list(zip(rows, mults)), Sense.GE)
    assert combined.lhs.evaluate(point) >= combined.rhs


# --- the int kernel against a Fraction-only reference --------------------


def reference_combine(terms, target_sense: Sense):
    """Fraction-only ``linear_combine``: the sign rule, then the plain sum.

    Returns ``(lhs, rhs)`` with ``lhs`` a dict of the nonzero entries, or
    None when some multiplier breaks the sign discipline.
    """
    for constraint, multiplier in terms:
        wanted = Sense.GE if target_sense == Sense.GE else Sense.LE
        if target_sense == Sense.EQ:
            allowed = constraint.sense == Sense.EQ
        elif constraint.sense == Sense.EQ:
            allowed = True
        elif constraint.sense == wanted:
            allowed = Fraction(multiplier) >= 0
        else:
            allowed = Fraction(multiplier) <= 0
        if not allowed:
            return None
    lhs: dict[int, Fraction] = {}
    rhs = Fraction(0)
    for constraint, multiplier in terms:
        for index, coeff in constraint.lhs:
            lhs[index] = lhs.get(index, Fraction(0)) + Fraction(multiplier) * Fraction(coeff)
        rhs += Fraction(multiplier) * Fraction(constraint.rhs)
    return {i: v for i, v in lhs.items() if v != 0}, rhs


#: Values drawn either as ``int`` or as a Fraction (integral or not), so a
#: combination mixes both types the way parsed certificates do.
mixed_values = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
)
nonzero_mixed = mixed_values.filter(lambda v: v != 0)


@st.composite
def mixed_combinations(draw):
    """Rows and multipliers of mixed ``int``/Fraction type, any signs.

    Each row gets a partner that is a scaled negation of it, with some
    probability, so that whole coefficients cancel to zero and must drop out.
    """
    dimension = draw(st.integers(min_value=1, max_value=4))
    terms = []
    for k in range(draw(st.integers(min_value=0, max_value=5))):
        coeffs = draw(
            st.dictionaries(st.integers(0, dimension - 1), nonzero_mixed, max_size=dimension)
        )
        lhs = SparseVec(tuple(sorted(coeffs.items())))
        sense = draw(st.sampled_from([Sense.GE, Sense.LE, Sense.EQ]))
        row = Constraint(f"R{k}", sense, lhs, draw(mixed_values))
        multiplier = draw(mixed_values)
        terms.append((row, multiplier))
        if draw(st.booleans()):
            scale = draw(nonzero_mixed)
            partner = Constraint(
                f"P{k}",
                Sense.EQ,
                SparseVec(tuple((i, Fraction(c) * scale) for i, c in lhs)),
                Fraction(row.rhs) * scale,
            )
            terms.append((partner, -Fraction(multiplier) / scale))
    target = draw(st.sampled_from([Sense.GE, Sense.LE, Sense.EQ]))
    return terms, target


@given(mixed_combinations())
def test_linear_combine_matches_fraction_reference(case) -> None:
    terms, target = case
    expected = reference_combine(terms, target)
    if expected is None:
        with pytest.raises(RuleViolation):
            linear_combine(terms, target)
        return
    combined = linear_combine(terms, target)
    lhs, rhs = expected
    assert dict(combined.lhs.entries) == lhs
    assert combined.rhs == rhs
    for _, value in combined.lhs.entries + ((None, combined.rhs),):
        if Fraction(value).denominator == 1:
            assert type(value) is int
        else:
            assert isinstance(value, R)


@st.composite
def signed_combinations(draw):
    """Rows and multipliers of mixed ``int``/Fraction type whose signs obey
    the rule for the drawn target sense, with cancelling partner rows."""
    target = draw(st.sampled_from([Sense.GE, Sense.LE, Sense.EQ]))
    dimension = draw(st.integers(min_value=1, max_value=4))
    terms = []
    for k in range(draw(st.integers(min_value=0, max_value=5))):
        coeffs = draw(
            st.dictionaries(st.integers(0, dimension - 1), nonzero_mixed, max_size=dimension)
        )
        lhs = SparseVec(tuple(sorted(coeffs.items())))
        senses = [Sense.EQ] if target == Sense.EQ else [Sense.GE, Sense.LE, Sense.EQ]
        sense = draw(st.sampled_from(senses))
        multiplier = draw(nonzero_mixed)
        if sense != Sense.EQ:  # nonnegative on a row of the target's sense, else nonpositive
            multiplier = abs(multiplier) if sense == target else -abs(multiplier)
        row = Constraint(f"R{k}", sense, lhs, draw(mixed_values))
        terms.append((row, multiplier))
        if draw(st.booleans()):
            scale = draw(nonzero_mixed)
            partner = Constraint(
                f"P{k}",
                Sense.EQ,
                SparseVec(tuple((i, Fraction(c) * scale) for i, c in lhs)),
                Fraction(row.rhs) * scale,
            )
            terms.append((partner, -Fraction(multiplier) / scale))
    return terms, target


@given(signed_combinations())
def test_linear_combine_result_is_in_normal_form(case) -> None:
    # The result's vector is built without the validating constructor, so
    # its normal form is pinned here.
    terms, target = case
    combined = linear_combine(terms, target)
    entries = combined.lhs.entries
    indices = [index for index, _ in entries]
    assert indices == sorted(set(indices))
    assert all(value != 0 for _, value in entries)
    for value in [value for _, value in entries] + [combined.rhs]:
        assert type(value) is (int if Fraction(value).denominator == 1 else R)
    rebuilt = SparseVec(entries)
    assert rebuilt == combined.lhs and rebuilt.entries == entries
    lhs, rhs = reference_combine(terms, target)
    assert dict(entries) == lhs and combined.rhs == rhs


def _best_of_rounds(runs: dict) -> dict:
    """The least time of each of ``runs`` over 5 rounds that each time every run in turn, so
    that all of them see the same load on the machine."""
    costs = {name: float("inf") for name in runs}
    for _ in range(5):
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            costs[name] = min(costs[name], time.perf_counter() - start)
    return costs


class TestIntKernel:
    def test_cancelling_terms_drop_out(self) -> None:
        c1 = Constraint("C1", Sense.GE, SparseVec(((0, 3), (1, Fraction(1, 2)))), 1)
        c2 = Constraint("C2", Sense.LE, SparseVec(((0, Fraction(3, 2)), (1, 2))), 5)
        combined = linear_combine([(c1, Fraction(1, 2)), (c2, -1)], Sense.GE)
        assert combined.lhs.entries == ((1, Fraction(-7, 4)),)
        assert combined.rhs == Fraction(-9, 2)

    def test_integral_result_from_fractional_intermediates(self) -> None:
        third, two_sevenths = Fraction(1, 3), Fraction(2, 7)
        c1 = Constraint("C1", Sense.GE, SparseVec(((0, third), (1, two_sevenths))), Fraction(5, 6))
        c2 = Constraint(
            "C2", Sense.EQ, SparseVec(((0, 2 * third), (1, Fraction(5, 7)))), Fraction(1, 6)
        )
        combined = linear_combine([(c1, Fraction(3, 2)), (c2, Fraction(3, 4))], Sense.GE)
        assert combined.lhs.entries == ((0, 1), (1, Fraction(27, 28)))
        assert type(combined.lhs.entries[0][1]) is int
        assert combined.rhs == Fraction(11, 8)
        integral = linear_combine([(c1, 6), (c2, Fraction(3, 2))], Sense.GE)
        assert integral.lhs.entries == ((0, 3), (1, Fraction(39, 14)))
        assert type(integral.lhs.entries[0][1]) is int
        assert integral.rhs == Fraction(21, 4)
        whole = linear_combine([(c2, 42)], Sense.EQ)
        assert whole.lhs.entries == ((0, 28), (1, 30)) and whole.rhs == 7
        assert all(type(value) is int for _, value in whole.lhs.entries)
        assert type(whole.rhs) is int

    def test_mixed_multiplier_denominators_cost_no_more_than_a_fraction_sum(self) -> None:
        # Multipliers alternating 1/6 and 1/10: when each new denominator multiplied the
        # sums' denominators, 32k terms cost 14x a Fraction sum and grew 2.4x from 16k.
        # Both costs are timed in this process, best of 5 rounds.
        row = Constraint("C", Sense.GE, SparseVec(((0, 1), (1, 2))), 1)
        sizes = {
            k: [(row, Fraction(1, 6 if i % 2 else 10)) for i in range(k)] for k in (16_000, 32_000)
        }
        terms = sizes[32_000]
        costs = _best_of_rounds({
            16_000: lambda: linear_combine(sizes[16_000], Sense.GE),
            32_000: lambda: linear_combine(terms, Sense.GE),
            "fraction sum": lambda: sum((m for _, m in terms), Fraction(0)),
        })
        assert costs[32_000] <= 1.5 * costs["fraction sum"], costs
        assert costs[32_000] <= 2.5 * costs[16_000], costs
        total = Fraction(16_000, 6) + Fraction(16_000, 10)
        combined = linear_combine(terms, Sense.GE)
        assert combined.lhs.entries == ((0, total), (1, 2 * total)) and combined.rhs == total

    def test_mixed_coefficient_denominators_cost_no_more_than_a_fraction_sum(self) -> None:
        # Rows whose coefficients and right-hand sides alternate 1/6 and 1/10: when each new
        # denominator multiplied a sum's denominator, 32k terms cost 12x a Fraction sum and
        # grew 3.4x from 16k. Both costs are timed in this process, best of 5 rounds.
        rows = [
            Constraint("C", Sense.GE, SparseVec(((0, part), (1, 2 * part))), part)
            for part in (Fraction(1, 6), Fraction(1, 10))
        ]
        sizes = {k: [(rows[i % 2], 1) for i in range(k)] for k in (16_000, 32_000)}
        terms = sizes[32_000]
        costs = _best_of_rounds({
            16_000: lambda: linear_combine(sizes[16_000], Sense.GE),
            32_000: lambda: linear_combine(terms, Sense.GE),
            "fraction sum": lambda: sum((row.rhs for row, _ in terms), Fraction(0)),
        })
        assert costs[32_000] <= 1.5 * costs["fraction sum"], costs
        assert costs[32_000] <= 2.5 * costs[16_000], costs
        total = Fraction(16_000, 6) + Fraction(16_000, 10)
        combined = linear_combine(terms, Sense.GE)
        assert combined.lhs.entries == ((0, total), (1, 2 * total)) and combined.rhs == total

    @pytest.mark.parametrize("multiplier", [-1, Fraction(-1, 3), Fraction(-4, 2)])
    def test_wrong_sign_message_is_the_same_for_both_types(self, multiplier) -> None:
        row = Constraint("C", Sense.GE, SparseVec(((0, 1),)), 1)
        with pytest.raises(RuleViolation) as excinfo:
            linear_combine([(row, multiplier)], Sense.GE)
        assert str(excinfo.value) == (
            f"term 0 ('C'): multiplier {format_rational(multiplier)} is not "
            "suitable for a GE row in a GE combination"
        )


@given(st.integers(min_value=-(10**30), max_value=10**30))
def test_int_and_fraction_entries_compare_and_hash_equal(k: int) -> None:
    if k == 0:
        return
    as_int = SparseVec(((0, k), (3, 1)))
    as_fraction = SparseVec(((0, Fraction(k)), (3, Fraction(1))))
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert Constraint("C", Sense.GE, as_int, k) == Constraint(
        "C", Sense.GE, as_fraction, Fraction(k)
    )


@given(st.one_of(st.integers(), st.fractions()))
def test_parse_format_round_trip_keeps_value_and_type(value) -> None:
    parsed = parse_rational(format_rational(value))
    assert parsed == value
    if Fraction(value).denominator == 1:
        assert type(parsed) is int
    else:
        assert isinstance(parsed, R)
