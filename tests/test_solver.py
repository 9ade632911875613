"""Certifying branch-and-bound: statuses, values, certificates, determinism."""

from __future__ import annotations

import importlib
import io
import itertools
import os
import random
import subprocess
import sys
import textwrap
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import described_derivations, goal_reachable, load_golden

import mipcert

from mipcert.certfile import parse_problem, write_certificate, write_problem
from mipcert.checker import verify_certificate
from mipcert.model import (
    Constraint,
    InfeasibleGoal,
    ObjectiveSense,
    Problem,
    RangeGoal,
    Lin,
    Rnd,
    Sense,
    SparseVec,
    evaluate_solution,
    is_absurd,
    linear_combine,
    replace,
)
from mipcert.numeric import Rational as R
from mipcert.numeric import rational_ceil, rational_floor
from mipcert.simplex import LpInfeasible, LpOptimal, solve_lp, solve_lp_from
from mipcert.solve import NodeLimitError, SolveConfig, SolveResult, select_branch_variable, solve
from mipcert.solve import SolverCheckError
from mipcert.tighten import prune_unused

CG = SolveConfig(cg_objective=True)


def vec(*pairs) -> SparseVec:
    return SparseVec(tuple((i, R(*v) if isinstance(v, tuple) else R(v)) for i, v in pairs))


def con(name: str, sense: Sense, rhs, *pairs) -> Constraint:
    return Constraint(name, sense, vec(*pairs), R(*rhs) if isinstance(rhs, tuple) else R(rhs))


def problem_of(objective, sense, rows, integers=()) -> Problem:
    names = tuple(f"x{i}" for i in range(_width(objective, rows)))
    return Problem(names, frozenset(integers), objective, sense, tuple(rows))


def _width(objective, rows) -> int:
    width = 0
    for vector in [objective] + [row.lhs for row in rows]:
        for index, _ in vector:
            width = max(width, index + 1)
    return width


def assert_certified_optimal(problem: Problem, result: SolveResult) -> None:
    assert result.status == "optimal"
    assert result.certificate is not None
    report = verify_certificate(result.certificate)
    assert report.verified, report.failure
    assert result.certificate.goal == RangeGoal(result.value, result.value)
    solution = result.certificate.solutions[0]
    feasible, value = evaluate_solution(problem, solution)
    assert feasible and value == result.value
    dense = [R(0)] * problem.num_variables
    for index, coeff in problem.objective:
        dense[index] = coeff
    assert sum((c * x for c, x in zip(dense, result.point)), R(0)) == result.value


class TestBranchVariableSelection:
    def test_most_fractional_wins(self) -> None:
        point = (R(10, 17), R(-1, 17))
        assert select_branch_variable(point, frozenset({0, 1})) == 0

    def test_ties_break_to_smallest_index(self) -> None:
        point = (R(1, 2), R(1, 2))
        assert select_branch_variable(point, frozenset({0, 1})) == 0

    def test_continuous_variables_ignored(self) -> None:
        point = (R(1, 2), R(1, 3))
        assert select_branch_variable(point, frozenset({1})) == 1

    def test_integral_point_selects_nothing(self) -> None:
        point = (R(1), R(-2))
        assert select_branch_variable(point, frozenset({0, 1})) is None
        assert select_branch_variable((R(1, 2),), frozenset()) is None


class TestOptimalSolves:
    @pytest.mark.parametrize("config", (SolveConfig(), CG))
    def test_pure_lp_solves_in_one_node(self, config: SolveConfig) -> None:
        problem = load_golden("small_range").problem
        result = solve(problem, config)
        assert result.value == R(1)
        assert result.point == (R(3, 7), R(1, 7))
        assert result.num_nodes == 1
        assert_certified_optimal(problem, result)

    @pytest.mark.parametrize("config", (SolveConfig(), CG))
    def test_integer_program_with_branching(self, config: SolveConfig) -> None:
        problem = load_golden("rounding_chain").problem
        result = solve(problem, config)
        assert result.value == R(1)
        assert result.num_nodes >= 1
        assert_certified_optimal(problem, result)

    @pytest.mark.parametrize("config", (SolveConfig(), CG))
    def test_maximization(self, config: SolveConfig) -> None:
        problem = problem_of(
            vec((0, 1), (1, 2)),
            ObjectiveSense.MAX,
            [
                con("cap", Sense.LE, 5, (0, 2), (1, 2)),
                con("x-lo", Sense.GE, 0, (0, 1)),
                con("y-lo", Sense.GE, 0, (1, 1)),
            ],
            integers=(0, 1),
        )
        result = solve(problem, config)
        assert result.value == R(4)
        assert result.point == (R(0), R(2))
        assert_certified_optimal(problem, result)

    def test_cg_objective_rounds_bounds_to_integers(self) -> None:
        # Integral objective on integer variables: with cuts enabled the
        # final bound row chain must contain a rounding step whenever the LP
        # bound is fractional.
        problem = load_golden("rounding_chain").problem
        result = solve(problem, CG)
        rounded = [
            d for d in result.certificate.derivations if isinstance(d.reason, Rnd)
        ]
        assert rounded, "expected at least one rounding step"
        assert_certified_optimal(problem, result)

    def test_non_roundable_objective_emits_no_rounding(self) -> None:
        problem = problem_of(
            vec((0, 1), (1, (1, 2))),
            ObjectiveSense.MIN,
            [
                con("C", Sense.GE, 1, (0, 2), (1, 2)),
                con("y-hi", Sense.LE, 0, (1, 1)),
            ],
            integers=(0,),
        )
        result = solve(problem, CG)
        assert result.value == R(3, 4)
        assert result.point == (R(1), R(-1, 2))
        assert_certified_optimal(problem, result)
        reasons = verify_certificate(result.certificate).stats.reason_counts
        assert reasons["rnd"] == 0


class TestInfeasibleSolves:
    def test_plain_split_proof(self) -> None:
        problem = load_golden("split_infeasible").problem
        result = solve(problem)
        assert result.status == "infeasible"
        assert result.value is None and result.point is None
        assert result.num_nodes == 7
        assert result.certificate.goal == InfeasibleGoal()
        report = verify_certificate(result.certificate)
        assert report.verified
        assert report.stats.reason_counts == {"asm": 6, "lin": 4, "rnd": 0, "uns": 3}

    def test_cut_strengthened_split_proof(self) -> None:
        problem = load_golden("split_infeasible").problem
        result = solve(problem, CG)
        assert result.status == "infeasible"
        assert result.num_nodes == 5
        report = verify_certificate(result.certificate)
        assert report.verified
        assert report.stats.reason_counts == {"asm": 4, "lin": 4, "rnd": 1, "uns": 2}
        absurdities = [
            d
            for d in result.certificate.derivations
            if not isinstance(d.reason, Rnd) and is_absurd(d.constraint)
        ]
        assert len(absurdities) >= 3

    def test_refutation_free_of_the_branch_assumption_closes_the_node(self) -> None:
        # max x0 over x0 + x1 <= 4/5, x0 >= 0, 3/10 <= x1 <= 7/10, both integer.
        # The root branches on x0 = 1/2. Under x0 <= 0 both x1-branches are
        # refuted by the bounds on x1 alone, so their unsplit absurdity covers
        # the root, which never opens x0 >= 1.
        problem = problem_of(
            vec((0, 1)),
            ObjectiveSense.MAX,
            [
                con("c1", Sense.LE, (4, 5), (0, 1), (1, 1)),
                con("c2", Sense.GE, 0, (0, 1)),
                con("c3", Sense.GE, 3, (1, 10)),
                con("c4", Sense.LE, 7, (1, 10)),
            ],
            integers=(0, 1),
        )
        result = solve(problem)
        assert result.status == "infeasible"
        assert result.num_nodes == 4
        assert len(result.certificate.derivations) == 6
        assert verify_certificate(result.certificate).verified

    def test_lp_infeasible_root_needs_no_assumptions(self) -> None:
        problem = problem_of(
            SparseVec(()),
            ObjectiveSense.MIN,
            [con("lo", Sense.GE, 1, (0, 1)), con("hi", Sense.LE, 0, (0, 1))],
        )
        result = solve(problem)
        assert result.status == "infeasible"
        assert result.num_nodes == 1
        report = verify_certificate(result.certificate)
        assert report.verified
        assert report.stats.reason_counts == {"asm": 0, "lin": 1, "rnd": 0, "uns": 0}


class TestEdges:
    def test_unbounded_has_no_certificate(self) -> None:
        problem = problem_of(
            vec((0, -1)), ObjectiveSense.MIN, [con("lo", Sense.GE, 0, (0, 1))]
        )
        result = solve(problem)
        assert result.status == "unbounded"
        assert result.value is None
        assert result.point is None
        assert result.certificate is None

    def test_node_limit(self) -> None:
        problem = load_golden("split_infeasible").problem
        with pytest.raises(NodeLimitError):
            solve(problem, SolveConfig(node_limit=2))

    @pytest.mark.parametrize("config", (SolveConfig(), CG))
    def test_deterministic(self, config: SolveConfig) -> None:
        problem = load_golden("split_infeasible").problem
        assert solve(problem, config) == solve(problem, config)


# --- pinned search: node counts guard the simplex pivot sequence ------------

# Ten 0/1 items drawn by random.Random(1203): weights and values from
# randint(10, 60) in that order, capacity half the total weight.
KNAPSACK_WEIGHTS = (23, 33, 21, 54, 26, 32, 40, 58, 45, 55)
KNAPSACK_VALUES = (36, 46, 50, 29, 23, 41, 45, 27, 18, 45)


def knapsack10() -> Problem:
    rows = [con("cap", Sense.LE, sum(KNAPSACK_WEIGHTS) // 2, *enumerate(KNAPSACK_WEIGHTS))]
    for j in range(len(KNAPSACK_WEIGHTS)):
        rows += [con(f"lo{j}", Sense.GE, 0, (j, 1)), con(f"hi{j}", Sense.LE, 1, (j, 1))]
    objective = vec(*enumerate(KNAPSACK_VALUES))
    return problem_of(objective, ObjectiveSense.MAX, rows, integers=range(10))


def parity(hi: int) -> Problem:
    """``min x`` subject to ``2x - 2y = 1``, ``y >= 0``, ``x <= hi``: one path of depth 2·hi."""
    rows = [
        con("par", Sense.EQ, 1, (0, 2), (1, -2)),
        con("ypos", Sense.GE, 0, (1, 1)),
        con("xcap", Sense.LE, hi, (0, 1)),
    ]
    return problem_of(vec((0, 1)), ObjectiveSense.MIN, rows, integers=(0, 1))


def parity10() -> Problem:
    return parity(10)


@pytest.mark.parametrize(
    ("make", "config", "nodes", "optimum"),
    (
        (knapsack10, SolveConfig(), 23, 241),
        (knapsack10, CG, 23, 241),
        (parity10, SolveConfig(), 41, None),
        (parity10, CG, 39, None),
    ),
    ids=("knapsack-plain", "knapsack-cg", "parity-plain", "parity-cg"),
)
def test_pinned_search(make, config: SolveConfig, nodes: int, optimum) -> None:
    problem = make()
    result = solve(problem, config)
    assert result.num_nodes == nodes
    if optimum is not None:
        assert result.value == R(optimum)
        assert_certified_optimal(problem, result)
    else:
        assert result.status == "infeasible"
        assert result.certificate.goal == InfeasibleGoal()
        assert verify_certificate(result.certificate).verified


def test_pinned_node_total_on_the_criterion_5_corpus() -> None:
    # The corpus and settings of criterion 5. Which optimal vertex each warm dual simplex stops
    # at decides the branching, so this pins its pivot rule: cold node LPs took 230 nodes, and
    # the warm ones with ties entering on the least column take 232.
    from test_acceptance import random_integer_problem

    rng = random.Random(574218)
    total = 0
    for instance in range(200):
        problem, _ = random_integer_problem(rng)
        total += solve(problem, SolveConfig(cg_objective=bool(instance % 2))).num_nodes
    assert total == 228


@pytest.mark.parametrize("config", (SolveConfig(), CG), ids=("plain", "cg"))
@pytest.mark.parametrize("make", (knapsack10, parity10))
def test_pruning_keeps_what_the_goal_reaches(make, config: SolveConfig) -> None:
    certificate = solve(make(), config).certificate
    pruned = prune_unused(certificate)
    expected = described_derivations(certificate, goal_reachable(certificate))
    assert described_derivations(pruned) == expected


# --- randomized cross-check against exhaustive enumeration ------------------


def random_box_problem(rng: random.Random) -> tuple[Problem, list[tuple[int, int]]]:
    num_variables = rng.randint(1, 3)
    boxes = []
    rows = []
    for index in range(num_variables):
        low = rng.randint(-3, 0)
        high = low + rng.randint(0, 3)
        boxes.append((low, high))
        rows.append(con(f"lo{index}", Sense.GE, low, (index, 1)))
        rows.append(con(f"hi{index}", Sense.LE, high, (index, 1)))
    for row_number in range(rng.randint(1, 3)):
        entries = tuple(
            (index, R(value))
            for index, value in enumerate(
                rng.randint(-4, 4) for _ in range(num_variables)
            )
            if value != 0
        )
        sense = rng.choice((Sense.GE, Sense.LE))
        rhs = R(rng.randint(-6, 6))
        rows.append(Constraint(f"r{row_number}", sense, SparseVec(entries), rhs))
    objective = SparseVec(
        tuple(
            (index, R(value))
            for index, value in enumerate(
                rng.randint(-5, 5) for _ in range(num_variables)
            )
            if value != 0
        )
    )
    sense = rng.choice((ObjectiveSense.MIN, ObjectiveSense.MAX))
    problem = problem_of(objective, sense, rows, integers=range(num_variables))
    return problem, boxes


def brute_force(problem: Problem, boxes: list[tuple[int, int]]):
    best = None
    dense = [R(0)] * problem.num_variables
    for index, coeff in problem.objective:
        dense[index] = coeff
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes)):
        ok = True
        for row in problem.constraints:
            activity = sum((c * point[i] for i, c in row.lhs), R(0))
            if row.sense is Sense.GE and activity < row.rhs:
                ok = False
            elif row.sense is Sense.LE and activity > row.rhs:
                ok = False
            elif row.sense is Sense.EQ and activity != row.rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum((c * x for c, x in zip(dense, point)), R(0))
        if best is None:
            best = value
        elif problem.objective_sense is ObjectiveSense.MIN:
            best = min(best, value)
        else:
            best = max(best, value)
    return best


@pytest.mark.parametrize("cg", (False, True), ids=("plain", "cg"))
def test_random_batch_matches_enumeration(cg: bool) -> None:
    rng = random.Random(20260817 + cg)
    config = SolveConfig(cg_objective=cg)
    for _ in range(40):
        problem, boxes = random_box_problem(rng)
        expected = brute_force(problem, boxes)
        result = solve(problem, config)
        if expected is None:
            assert result.status == "infeasible"
        else:
            assert result.status == "optimal"
            assert result.value == expected
        assert verify_certificate(result.certificate).verified


# --- the no-float invariant ---------------------------------------------------


def _numbers(value):
    """Every number inside a result: record fields, tuples, dicts and sets."""
    if isinstance(value, bool) or isinstance(value, (str, Enum)) or value is None:
        return
    if isinstance(value, (int, float, Fraction)):
        yield value
    elif hasattr(type(value), "__slots__"):
        for name in type(value).__slots__:
            yield from _numbers(getattr(value, name))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(key)
            yield from _numbers(item)
    elif isinstance(value, (tuple, list, frozenset, set)):
        for item in value:
            yield from _numbers(item)
    else:
        raise TypeError(f"unexpected {type(value).__name__} in a result")


def assert_exact(value) -> int:
    """Every number is an ``int`` or a Rational, never a float; returns the count."""
    count = 0
    for number in _numbers(value):
        assert type(number) in (int, R), f"{number!r} is a {type(number).__name__}"
        count += 1
    return count


def parsed(problem: Problem) -> Problem:
    """The problem written out and parsed back, so its integral data are ints."""
    sink = io.StringIO()
    write_problem(problem, sink)
    return parse_problem(io.StringIO(sink.getvalue()))


@pytest.mark.parametrize("config", (SolveConfig(), CG), ids=("plain", "cg"))
@pytest.mark.parametrize("make", (knapsack10, parity10))
def test_no_float_reaches_a_result(make, config: SolveConfig) -> None:
    problem = parsed(make())
    assert all(type(coeff) is int for row in problem.constraints for _, coeff in row.lhs)
    assert all(type(row.rhs) is int for row in problem.constraints)

    sign = 1 if problem.objective_sense is ObjectiveSense.MIN else -1
    minimize = SparseVec(tuple((i, sign * c) for i, c in problem.objective))
    root = solve_lp(problem.num_variables, problem.constraints, minimize)
    assert isinstance(root, LpOptimal)
    assert assert_exact(root) > 0
    clash = Constraint("clash", Sense.GE, SparseVec(((0, 2),)), 21)
    refuted = solve_lp(problem.num_variables, problem.constraints + (clash,), minimize)
    assert isinstance(refuted, LpInfeasible)
    assert assert_exact(refuted) > 0

    result = solve(problem, config)
    assert assert_exact(result) > 0
    terms = [
        multiplier
        for derivation in result.certificate.derivations
        if isinstance(derivation.reason, (Lin, Rnd))
        for _, multiplier in derivation.reason.terms
    ]
    assert terms and assert_exact(terms) == len(terms)
    assert verify_certificate(result.certificate).verified


def test_linear_combine_keeps_integral_results_int() -> None:
    problem = parsed(knapsack10())
    capacity, lo0 = problem.constraints[0], problem.constraints[1]
    combined = linear_combine([(capacity, -3), (lo0, R(1, 2))], Sense.GE)
    assert combined.lhs.entries[0] == (0, R(-137, 2))
    assert all(type(coeff) is int for _, coeff in combined.lhs.entries[1:])
    assert type(combined.rhs) is int
    assert combined.rhs == -3 * capacity.rhs
    halves = linear_combine([(lo0, R(1, 2)), (lo0, R(3, 2))], Sense.GE)
    assert halves.lhs.entries == ((0, 2),) and type(halves.lhs.entries[0][1]) is int


# --- self-checks are real checks, with or without -O -------------------------


def frac_knapsack() -> Problem:
    """Six 0/1 items with fractional weights, values and capacity."""
    weights = (R(7, 3), R(5, 2), R(9, 4), R(11, 5), R(13, 6), R(8, 3))
    values = (R(9, 2), R(5), R(17, 4), R(4), R(7, 2), R(16, 3))
    rows = [Constraint("cap", Sense.LE, SparseVec(tuple(enumerate(weights))), R(17, 2))]
    for j in range(len(weights)):
        rows += [con(f"lo{j}", Sense.GE, 0, (j, 1)), con(f"hi{j}", Sense.LE, 1, (j, 1))]
    objective = SparseVec(tuple(enumerate(values)))
    return problem_of(objective, ObjectiveSense.MAX, rows, integers=range(len(weights)))


def doubled_duals(outcome):
    if isinstance(outcome, LpOptimal):
        return replace(outcome, duals=tuple(2 * y for y in outcome.duals))
    return outcome


def negated_duals(outcome):
    if isinstance(outcome, LpOptimal):
        return replace(outcome, duals=tuple(-y for y in outcome.duals))
    return outcome


def zero_farkas(outcome):
    if isinstance(outcome, LpInfeasible):
        return LpInfeasible(farkas=tuple(R(0) for _ in outcome.farkas))
    return outcome


def integral_root() -> Problem:
    """``min x`` subject to ``x >= 1``: the root LP is integral and closes the tree."""
    return problem_of(vec((0, 1)), ObjectiveSense.MIN, [con("lo", Sense.GE, 1, (0, 1))], (0,))


def infeasible_root() -> Problem:
    """``x >= 1`` and ``x <= 0``: the root LP is infeasible."""
    rows = [con("lo", Sense.GE, 1, (0, 1)), con("hi", Sense.LE, 0, (0, 1))]
    return problem_of(vec((0, 1)), ObjectiveSense.MIN, rows, (0,))


@pytest.mark.parametrize(
    ("make", "corrupt", "message", "warm"),
    (
        (knapsack10, doubled_duals, "emitted combination too weak", True),
        (knapsack10, negated_duals, "emitted combination too weak", True),
        (parity10, zero_farkas, "must witness a positive gap", True),
        (integral_root, doubled_duals, "emitted combination too weak", False),
        (infeasible_root, zero_farkas, "must witness a positive gap", False),
    ),
    ids=("doubled-duals", "negated-duals", "zero-farkas", "root-doubled-duals", "root-zero-farkas"),
)
def test_corrupted_lp_results_raise(monkeypatch, make, corrupt, message, warm) -> None:
    # Every node's LP, the cold root's and the warm children's, comes from solve_lp_from.
    # ``mipcert.solve`` is the function; the module is under its full name.
    solve_module = importlib.import_module("mipcert.solve")
    parents = []

    def corrupted(parent, *args):
        parents.append(parent)
        outcome, tableau = solve_lp_from(parent, *args)
        return corrupt(outcome), tableau

    monkeypatch.setattr(solve_module, "solve_lp_from", corrupted)
    with pytest.raises(SolverCheckError, match=message):
        solve(make())
    # The refused row is the last LP's: a warm child's, or the cold root's.
    assert (parents[-1] is not None) is warm


def test_deep_tree_costs_no_python_recursion(tmp_path) -> None:
    """Depth 80 under a recursion limit of 80: the CLI solve still succeeds."""
    problem_path = tmp_path / "parity40.lp"
    out = tmp_path / "parity40.crt"
    with open(problem_path, "w", encoding="utf-8") as handle:
        write_problem(parity(40), handle)
    expected = io.StringIO()
    write_certificate(solve(parity(40)).certificate, expected)
    script = "import sys\nfrom mipcert.cli import main\nsys.setrecursionlimit(80)\nsys.exit(main())\n"
    src = str(Path(mipcert.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", script, "solve", str(problem_path), str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == f"infeasible\nwrote {out} (161 nodes)\n"
    assert out.read_text(encoding="utf-8") == expected.getvalue()


def run_optimized(script: str, stdin: str = "") -> str:
    """Run ``script`` under ``python -O`` with the package importable."""
    src = str(Path(mipcert.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def problem_text(problem: Problem) -> str:
    sink = io.StringIO()
    write_problem(problem, sink)
    return sink.getvalue()


def test_corrupted_duals_raise_under_optimize_flag() -> None:
    script = """
        import importlib, io, sys
        from mipcert.certfile import parse_problem
        from mipcert.model import replace
        from mipcert.simplex import LpOptimal, solve_lp_from

        assert False, "assert statements must be stripped by -O"

        def doubled(*args):
            outcome, tableau = solve_lp_from(*args)
            if isinstance(outcome, LpOptimal):
                outcome = replace(outcome, duals=tuple(2 * y for y in outcome.duals))
            return outcome, tableau

        solve_module = importlib.import_module("mipcert.solve")
        solve_module.solve_lp_from = doubled
        problem = parse_problem(io.StringIO(sys.stdin.read()))
        try:
            result = solve_module.solve(problem)
        except solve_module.SolverCheckError as exc:
            print("refused:", exc)
        else:
            print("returned a certificate:", result.status)
        """
    out = run_optimized(script, problem_text(knapsack10()))
    assert out == "refused: emitted combination too weak\n"


OPTIMIZED_SOLVES = (knapsack10, parity10, frac_knapsack)


def test_solver_under_optimize_flag() -> None:
    """Under ``-O`` every certificate verifies, with the same node counts."""
    script = """
        import io, sys
        from mipcert.certfile import parse_problem
        from mipcert.checker import verify_certificate
        from mipcert.solve import SolveConfig, solve

        assert False, "assert statements must be stripped by -O"

        for text in sys.stdin.read().split("\\n\\n"):
            problem = parse_problem(io.StringIO(text))
            for cg in (False, True):
                result = solve(problem, SolveConfig(cg_objective=cg))
                report = verify_certificate(result.certificate)
                if not report.verified:
                    print("rejected:", report.failure)
                print(result.status, result.value, result.num_nodes)
        """
    texts = [problem_text(make()).strip() for make in OPTIMIZED_SOLVES]
    out = run_optimized(script, "\n\n".join(texts))
    expected = []
    for text in texts:
        problem = parse_problem(io.StringIO(text))
        for config in (SolveConfig(), CG):
            result = solve(problem, config)
            assert verify_certificate(result.certificate).verified
            expected.append(f"{result.status} {result.value} {result.num_nodes}")
    assert out.splitlines() == expected
    assert [line.split()[-1] for line in expected] == ["23", "23", "41", "39", "69", "69"]


# --- mixed problems against an independent floating-point MILP solver -------

#: How far ``scipy.optimize.milp`` (HiGHS, floats, with its feasibility tolerances) may be from
#: the exact optimum, relative to ``1 + |optimum|``. Settle a difference with the exact
#: certificate and point; never widen this to make one go away.
MILP_TOLERANCE = 1e-6


def random_mixed_problem(rng: random.Random) -> Problem:
    """2-7 variables, each integer with probability 1/2, in boxes, under 1-8 random rows.

    A continuous variable's box has a positive width and may have fractional ends, so no
    continuous variable is fixed. Most rows hold at a random point of the boxes, integral on
    the integer variables, so that most draws are feasible and many branch; the rest have a
    random right-hand side.
    """
    num_variables = rng.randint(2, 7)
    integers = [index for index in range(num_variables) if rng.random() < 0.5]
    rows, point = [], []
    for index in range(num_variables):
        low = R(rng.randint(-10, 10), 1 if index in integers else rng.randint(1, 3))
        width = rng.randint(0 if index in integers else 1, 4)
        rows += [con(f"lo{index}", Sense.GE, low, (index, 1))]
        rows += [con(f"hi{index}", Sense.LE, low + width, (index, 1))]
        step = 1 if index in integers else R(1, 6)
        point.append(low + step * rng.randint(0, int(width / step)))
    for r in range(rng.randint(1, 8)):
        pairs = [(index, rng.randint(-10, 10)) for index in range(num_variables)]
        activity = sum(c * x for (_, c), x in zip(pairs, point))
        sense = rng.choice((Sense.GE, Sense.GE, Sense.LE, Sense.LE, Sense.EQ))
        if rng.random() < 0.2:
            rhs = R(rng.randint(-10, 10))
        elif sense is Sense.EQ:
            rhs = activity
        elif sense is Sense.GE:
            rhs = rational_floor(activity) - rng.randint(0, 3)
        else:
            rhs = rational_ceil(activity) + rng.randint(0, 3)
        rows.append(con(f"r{r}", sense, rhs, *(p for p in pairs if p[1])))
    objective = vec(*((i, c) for i in range(num_variables) if (c := rng.randint(-10, 10))))
    sense = rng.choice((ObjectiveSense.MIN, ObjectiveSense.MAX))
    return problem_of(objective, sense, rows, integers)


def milp_reference(milp, problem: Problem):
    """The same problem through ``scipy.optimize.milp``, proven optimal (no relative gap)."""
    from scipy.optimize import LinearConstraint

    n = problem.num_variables
    matrix = [[0.0] * n for _ in problem.constraints]
    low, high = [], []
    for dense, row in zip(matrix, problem.constraints):
        for index, coeff in row.lhs:
            dense[index] = float(coeff)
        low.append(-float("inf") if row.sense is Sense.LE else float(row.rhs))
        high.append(float("inf") if row.sense is Sense.GE else float(row.rhs))
    sign = 1.0 if problem.objective_sense is ObjectiveSense.MIN else -1.0
    costs = [0.0] * n
    for index, coeff in problem.objective:
        costs[index] = sign * float(coeff)
    integrality = [1 if index in problem.integer_set else 0 for index in range(n)]
    result = milp(
        costs,
        constraints=LinearConstraint(matrix, low, high),
        integrality=integrality,
        bounds=(-float("inf"), float("inf")),
        options={"mip_rel_gap": 0},
    )
    return result.status, (None if result.fun is None else sign * result.fun)


def test_mixed_problems_agree_with_milp() -> None:
    milp = pytest.importorskip("scipy.optimize").milp
    rng = random.Random(20261022)
    statuses = {0: "optimal", 2: "infeasible"}
    for draw in range(400):
        problem = random_mixed_problem(rng)
        result = solve(problem, SolveConfig(cg_objective=bool(draw % 2)))
        assert verify_certificate(result.certificate).verified, f"draw {draw}"
        status, value = milp_reference(milp, problem)
        assert result.status == statuses.get(status), f"draw {draw}: HiGHS status {status}"
        if result.status == "optimal":
            gap = abs(float(result.value) - value)
            assert gap <= MILP_TOLERANCE * (1 + abs(value)), f"draw {draw}: {result.value} {value}"
