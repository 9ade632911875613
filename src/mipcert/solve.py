"""Certifying branch-and-bound MILP solver.

``solve`` optimizes a mixed-integer linear program with exact rational
arithmetic and emits, alongside the answer, a certificate that the checker
accepts: a proof of infeasibility, or a derived bound row landing exactly on
the optimal value together with a feasible solution meeting it.

How the tree becomes a proof. Internally the solver always minimizes
(maximization negates the objective and flips the emitted bound rows to
``<=``). Each node solves an exact LP relaxation over the original rows plus
the branch assumptions on its path, and contributes one *bound row* — either
an absurdity ``0 >= 1`` or ``objective >= r`` — whose assumption set is
contained in the node's path:

- an infeasible LP yields Farkas multipliers, emitted as a suitable linear
  combination scaled to ``0 >= 1``;
- an integral or pruned LP optimum yields dual multipliers, emitted as the
  combination ``objective >= value``;
- otherwise the solver branches on the most fractional integer variable,
  assumes ``x_v <= floor`` and ``x_v >= floor + 1`` in turn, and merges the
  two child bound rows by unsplitting, stating the weaker of the two bounds.

The search is depth first, down child before up child. Each open node is a
suspended generator on an explicit stack, so a deep tree costs no Python
recursion. Only the root's LP is solved cold: a node hands its optimal tableau
to its children, a copy to the down child and the tableau itself to the up
child, and each child's LP warm-starts from it (see :mod:`mipcert.simplex`).

When a child's bound row does not actually depend on that child's branch
assumption, the row already holds for the whole node and is adopted directly
instead of unsplitting (unsplitting would be illegal there: it requires each
cited row to depend on its cited assumption).

With ``cg_objective`` enabled, two rounding refinements are added. Every
objective bound row is followed by a rounding step whenever the objective is
integral over the integer variables, and every node about to branch first
probes its fractional integer variables: if minimizing ``x_i`` over the node
rows yields a fractional bound whose rounding leaves the strengthened rows
infeasible (a feasibility test, with no objective), the node closes with the
chain combination -> rounding -> Farkas absurdity instead of branching further.

Every derivation is emitted through the checker itself: the solver keeps one
:class:`~mipcert.checker.CheckerState` with a vacuous goal and feeds it each
row as it is made, so a bug in the emission logic fails fast at its source
rather than as a distant verification failure, and the rules and assumption
sets exist only in the checker. The LP's multipliers are checked there and
nowhere else; the one point :func:`solve` returns is checked against the
problem's rows, integrality and value. A rejected row, like every other
self-check here, raises :class:`SolverCheckError`; these are explicit checks,
not ``assert`` statements, so ``python -O`` keeps them.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Sequence

from .checker import CheckerState, Rejection
from .model import (
    Asm,
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Problem,
    RangeGoal,
    Reason,
    Rnd,
    RtpGoal,
    Sense,
    Solution,
    SparseVec,
    Uns,
    _Record,
    evaluate_solution,
    is_absurd,
)
from .numeric import Rational, is_integral, rational_ceil, rational_floor
from .simplex import LpInfeasible, LpOptimal, LpUnbounded, _Tableau, solve_lp, solve_lp_from

__all__ = [
    "SolveConfig",
    "SolveResult",
    "NodeLimitError",
    "SolverCheckError",
    "select_branch_variable",
    "solve",
]

_ZERO = Rational(0)
_ONE = Rational(1)


class NodeLimitError(RuntimeError):
    """Raised when branch and bound exceeds the configured node budget."""


class SolverCheckError(RuntimeError):
    """A solver self-check failed: a defect in the solver, never bad input.

    Raised when an emitted derivation breaks the checker's rules, the
    returned point is infeasible or misses its value, or the search reaches
    an impossible state. The checks are explicit, so they also run under
    ``python -O``.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SolverCheckError(message)


class _RootUnbounded(Exception):
    """Internal: the root LP relaxation is unbounded."""


class SolveConfig(_Record):
    """Solver options.

    ``node_limit`` bounds the number of branch-and-bound nodes (``None`` for
    no bound); exceeding it raises :class:`NodeLimitError`. ``cg_objective``
    enables the rounding refinements described in the module docstring.
    """

    __slots__ = ("node_limit", "cg_objective")
    _defaults = {"node_limit": None, "cg_objective": False}
    node_limit: Optional[int]
    cg_objective: bool


class SolveResult(_Record):
    """Outcome of a solve.

    ``status`` is ``"optimal"``, ``"infeasible"``, or ``"unbounded"``.
    ``value`` and ``point`` are the optimal value and one optimal assignment
    (in the problem's own objective sense), present only when optimal.
    ``certificate`` is a checker-ready certificate, absent only when the
    relaxation is unbounded. ``num_nodes`` counts explored nodes.
    """

    __slots__ = ("status", "value", "point", "certificate", "num_nodes")
    status: str
    value: Optional[Rational]
    point: Optional[tuple[Rational, ...]]
    certificate: Optional[Certificate]
    num_nodes: int


def select_branch_variable(
    point: Sequence[Rational], integer_set: frozenset[int]
) -> Optional[int]:
    """Index of the integer variable farthest from integrality, or None.

    Distance to the nearest integer is the score; ties go to the smallest
    index. Returns None when every integer variable is integral.
    """
    best_index: Optional[int] = None
    best_score: Optional[Rational] = None
    for index in sorted(integer_set):
        value = point[index]
        if is_integral(value):
            continue
        floor = rational_floor(value)
        score = min(value - floor, floor + 1 - value)
        if best_score is None or score > best_score:
            best_score = score
            best_index = index
    return best_index


#: What the solver reports when the checker rejects one of its rows, by rule;
#: the checker's own reason is the exception's ``__cause__``.
_REFUSALS = {
    "lin": "emitted combination too weak",
    "rnd": "emitted rounding too weak",
    "uns": "emitted unsplit is invalid",
}


def _terms(
    rows: Sequence[tuple[int, Constraint]], multipliers: Iterable[Rational]
) -> tuple[tuple[int, Rational], ...]:
    """Combination terms: each row's index with its multiplier, zeros dropped. A node's rows
    are in the increasing order :class:`Lin` checks: problem rows, path rows, a probe's rnd."""
    return tuple((index, mult) for (index, _), mult in zip(rows, multipliers) if mult != 0)


class _Solver:
    def __init__(self, problem: Problem, config: SolveConfig) -> None:
        self.problem = problem
        self.config = config
        self.minimize = problem.objective_sense is ObjectiveSense.MIN
        # Internal objective, always minimized.
        self.objective = (
            problem.objective
            if self.minimize
            else SparseVec(tuple((i, -c) for i, c in problem.objective))
        )
        self.derivations: list[Derivation] = []
        # The vacuous goal: every row is checked by the rules, none against a goal.
        self.state = CheckerState(problem, RangeGoal(None, None))
        self._names = {c.name for c in problem.constraints}
        self._counters = {"A": 0, "D": 0}
        self.incumbent_value: Optional[Rational] = None  # internal (min) sense
        self.incumbent_point: Optional[tuple[Rational, ...]] = None
        self.num_nodes = 0
        self.objective_roundable = all(
            index in problem.integer_set and is_integral(coeff)
            for index, coeff in problem.objective
        )

    # -- certificate rows -------------------------------------------------

    def fresh_name(self, prefix: str) -> str:
        while True:
            self._counters[prefix] += 1
            name = f"{prefix}{self._counters[prefix]}"
            if name not in self._names:
                return name

    def emit(self, constraint: Constraint, reason: Reason) -> int:
        """Append one derivation after the checker accepts it; its index."""
        derivation = Derivation(constraint, reason)
        index = self.state.next_index
        try:
            self.state.verify_derivation(derivation, index)
        except Rejection as rejection:
            refusal = _REFUSALS.get(rejection.failure.rule, "emitted row rejected")
            raise SolverCheckError(refusal) from rejection
        self.derivations.append(derivation)
        return index

    def add_assumption(self, variable: int, sense: Sense, bound: Rational) -> int:
        constraint = Constraint(
            self.fresh_name("A"), sense, SparseVec(((variable, _ONE),)), bound
        )
        return self.emit(constraint, Asm())

    def _bound_row(self, internal_rhs: Rational) -> Constraint:
        name = self.fresh_name("D")
        if self.minimize:
            return Constraint(name, Sense.GE, self.problem.objective, internal_rhs)
        return Constraint(name, Sense.LE, self.problem.objective, -internal_rhs)

    def _absurd_row(self) -> Constraint:
        return Constraint(self.fresh_name("D"), Sense.GE, SparseVec(()), _ONE)

    def _internal_rhs(self, bound_row: Constraint) -> Rational:
        return bound_row.rhs if self.minimize else -bound_row.rhs

    def _emit_objective_bound(
        self,
        duals: Sequence[Rational],
        rows: Sequence[tuple[int, Constraint]],
        internal_value: Rational,
    ) -> int:
        multipliers = duals if self.minimize else [-d for d in duals]
        bound_row = self._bound_row(internal_value)
        bound_index = self.emit(bound_row, Lin(_terms(rows, multipliers)))
        if self.config.cg_objective and self.objective_roundable:
            rounded = self._bound_row(rational_ceil(internal_value))
            bound_index = self.emit(rounded, Rnd(((bound_index, _ONE),)))
        return bound_index

    def _emit_farkas(
        self,
        farkas: Sequence[Rational],
        rows: Sequence[tuple[int, Constraint]],
    ) -> int:
        gap = sum(
            (mult * con.rhs for (_, con), mult in zip(rows, farkas)), _ZERO
        )
        _require(gap > 0, "Farkas multipliers must witness a positive gap")
        scale = _ONE / gap
        terms = _terms(rows, (mult * scale for mult in farkas))
        return self.emit(self._absurd_row(), Lin(terms))

    # -- search ------------------------------------------------------------

    def _node_rows(self, path: Sequence[int]) -> list[tuple[int, Constraint]]:
        rows = list(enumerate(self.problem.constraints))
        rows.extend((index, self.state.row(index)) for index in path)
        return rows

    def search(self) -> int:
        """Run the tree from the root on an explicit stack; the root's bound row."""
        stack = [self.solve_node([], None)]
        child_index: Optional[int] = None
        while True:
            try:
                child = stack[-1].send(child_index)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                child_index = done.value
            else:
                stack.append(self.solve_node(*child))
                child_index = None

    def solve_node(
        self, path: list[int], parent: Optional[_Tableau]
    ) -> Generator[tuple[list[int], _Tableau], int, int]:
        """Close the node at ``path``, returning the index of its bound row.

        To branch, it yields each child's path and starting tableau and is sent its index.
        """
        self.num_nodes += 1
        limit = self.config.node_limit
        if limit is not None and self.num_nodes > limit:
            raise NodeLimitError(f"node limit of {limit} exceeded")

        rows = self._node_rows(path)
        constraints = [con for _, con in rows]
        outcome, tableau = solve_lp_from(
            parent, self.problem.num_variables, constraints, self.objective
        )
        if isinstance(outcome, LpInfeasible):
            return self._emit_farkas(outcome.farkas, rows)
        if isinstance(outcome, LpUnbounded):
            # Children inherit the parent's finite LP bound, so an unbounded
            # relaxation can only appear at the root.
            _require(not path, "unbounded relaxation below the root")
            raise _RootUnbounded
        point, value = outcome.point, outcome.value

        if self.incumbent_value is not None and value >= self.incumbent_value:
            return self._emit_objective_bound(outcome.duals, rows, value)

        branch_variable = select_branch_variable(point, self.problem.integer_set)
        if branch_variable is None:
            if self.incumbent_value is None or value < self.incumbent_value:
                self.incumbent_value = value
                self.incumbent_point = point
            return self._emit_objective_bound(outcome.duals, rows, value)

        if self.config.cg_objective:
            closed = self._try_probe(rows, constraints, point)
            if closed is not None:
                return closed

        floor = rational_floor(point[branch_variable])
        down_asm = self.add_assumption(branch_variable, Sense.LE, floor)
        down_index = yield path + [down_asm], tableau.copy()
        down_row = self.state.row(down_index)
        if down_asm not in self.state.assumptions(down_index) and is_absurd(down_row):
            # The refutation never used the branch assumption, so it already
            # covers the whole node; the other branch cannot contain anything.
            return down_index

        up_asm = self.add_assumption(branch_variable, Sense.GE, floor + 1)
        up_index = yield path + [up_asm], tableau
        up_row = self.state.row(up_index)

        # A child bound that does not depend on its own branch assumption
        # already holds for this node; unsplitting would even be illegal.
        if up_asm not in self.state.assumptions(up_index):
            return up_index
        if down_asm not in self.state.assumptions(down_index):
            return down_index

        stated = self._stated_row(down_row, up_row)
        return self.emit(stated, Uns(down_index, down_asm, up_index, up_asm))

    def _stated_row(self, down_row: Constraint, up_row: Constraint) -> Constraint:
        """The weaker of the non-absurd child bounds, or the absurd row if none.

        An absurd child row bounds nothing, so it never weakens the other.
        """
        bounds = [self._internal_rhs(row) for row in (down_row, up_row) if not is_absurd(row)]
        return self._bound_row(min(bounds)) if bounds else self._absurd_row()

    def _try_probe(
        self, rows: list[tuple[int, Constraint]], constraints: list[Constraint],
        point: Sequence[Rational],
    ) -> Optional[int]:
        """Try to close the node with a combination -> rounding -> absurdity.

        For each fractional integer variable, minimize it exactly over the
        node's ``constraints``, numbered as in ``rows``; a fractional minimum
        whose round-up leaves those rows infeasible, tested with an empty
        objective, closes the node without further branching.
        """
        for variable in sorted(self.problem.integer_set):
            if is_integral(point[variable]):
                continue
            unit = SparseVec(((variable, _ONE),))
            aux = solve_lp(self.problem.num_variables, constraints, unit)
            if not isinstance(aux, LpOptimal):
                continue  # unbounded below: no cut from this variable
            low = aux.value
            if is_integral(low):
                continue
            lifted = rational_ceil(low)
            strengthened = constraints + [
                Constraint("_probe", Sense.GE, unit, lifted)
            ]
            refutation = solve_lp(self.problem.num_variables, strengthened, SparseVec(()))
            if not isinstance(refutation, LpInfeasible):
                continue
            lin_index = self.emit(
                Constraint(self.fresh_name("D"), Sense.GE, unit, low),
                Lin(_terms(rows, aux.duals)),
            )
            rnd_index = self.emit(
                Constraint(self.fresh_name("D"), Sense.GE, unit, lifted),
                Rnd(((lin_index, _ONE),)),
            )
            farkas_rows = rows + [(rnd_index, self.state.row(rnd_index))]
            return self._emit_farkas(refutation.farkas, farkas_rows)
        return None


def solve(problem: Problem, config: SolveConfig = SolveConfig()) -> SolveResult:
    """Optimize ``problem`` exactly and return the result with a certificate.

    Raises :class:`NodeLimitError` if the configured node budget is exceeded.
    """
    solver = _Solver(problem, config)
    try:
        root_index = solver.search()
    except _RootUnbounded:
        return SolveResult(
            status="unbounded",
            value=None,
            point=None,
            certificate=None,
            num_nodes=solver.num_nodes,
        )

    root_row = solver.state.row(root_index)
    _require(not solver.state.assumptions(root_index), "root bound under assumptions")

    point = solver.incumbent_point
    if is_absurd(root_row):
        _require(solver.incumbent_value is None, "incumbent in an infeasible problem")
        status = "infeasible"
        value: Optional[Rational] = None
        goal: RtpGoal = InfeasibleGoal()
        solutions: tuple[Solution, ...] = ()
    else:
        internal_value = solver.incumbent_value
        _require(
            internal_value is not None and point is not None,
            "bounded tree without incumbent",
        )
        _require(
            solver._internal_rhs(root_row) == internal_value,
            "root bound must land exactly on the incumbent value",
        )
        status = "optimal"
        value = internal_value if solver.minimize else -internal_value
        goal = RangeGoal(lower=value, upper=value)
        assignment = SparseVec(tuple((i, v) for i, v in enumerate(point) if v != 0))
        solutions = (Solution("opt", assignment),)
        feasible, achieved = evaluate_solution(problem, solutions[0])
        _require(feasible and achieved == value, "returned point must be feasible at its value")
    certificate = Certificate(problem, goal, solutions, tuple(solver.derivations))
    return SolveResult(status, value, point, certificate, solver.num_nodes)
