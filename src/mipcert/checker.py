"""Sequential certificate verification with on-the-fly assumption tracking.

The checker consumes the stream of :mod:`mipcert.certfile` — a
:class:`~mipcert.certfile.Header`, which :func:`~mipcert.certfile.split_header`
requires, then plain solutions and derivations — and verifies each derivation
against the rows still live in memory, numbering derivations itself and
computing assumption sets as it goes:

* ``asm`` rows are accepted verbatim; their assumption set is themselves;
* ``lin``/``rnd`` rows must be dominated by the (rounded) combination of the
  referenced rows; their assumption set is the union of the referenced sets;
* ``uns`` rows discharge a complementary assumption pair: both referenced
  rows must dominate the stated row, each must actually depend on its
  assumption, and the two assumptions must form a split disjunction; the
  row's assumption set joins each branch's set less its own assumption.

This module is the only implementation of these rules: the solver emits its
rows through a :class:`CheckerState`, and the renderer's assumption sets come
from :func:`assumptions_of`. The rules raise ``RuleViolation``, which
:meth:`CheckerState.verify_derivation` turns into the row's :class:`Rejection`.

Whenever a derivation's assumption set is empty it is tested against the
goal: an infeasibility goal needs an absurdity, a range goal needs the row to
dominate the objective-bound constraint on the dual side. A certificate as a
whole is verified when every claimed solution is exactly feasible, some
solution meets the finite primal bound (if any), every derivation checks, and
the goal was proven by the time the stream ends.

Rows whose declared last-use index has passed are always evicted from memory,
so certificates far larger than memory stream through; referencing an evicted
row is a hard error, and a row whose last use is -1 is kept to the end. The
live store is two dicts keyed by combined index, every row and each non-empty
assumption set, so a live row costs one or two dict entries and no object of
its own. The peak number of live rows (originals included) is reported in the
statistics, and nothing per row: a caller that wants each goal-proving row or
assumption set drives a :class:`CheckerState`, reading them from
:meth:`~CheckerState.run` and :meth:`CheckerState.assumptions`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .certfile import Event, parse_certificate, split_header
from .model import (
    KEEP_UNTIL_END,
    Asm,
    AssumptionSet,
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Problem,
    Reason,
    Rnd,
    RtpGoal,
    RuleViolation,
    Sense,
    Solution,
    Uns,
    _Record,
    check_disjunction_pair,
    dominates,
    evaluate_solution,
    format_constraint,
    is_absurd,
    linear_combine,
    round_constraint,
)
from .numeric import Rational, format_rational

__all__ = [
    "CheckFailure",
    "CheckStats",
    "CheckerState",
    "NO_ASSUMPTIONS",
    "Rejection",
    "VerificationReport",
    "assumptions_of",
    "verify_certificate",
    "verify_certificate_file",
]


class CheckFailure(_Record):
    """Why a certificate was rejected.

    ``index`` is the combined row index for derivation failures, the solution
    ordinal for solution failures (rule ``"solution"``), and None for
    certificate-level failures such as a never-proven goal (rule ``"goal"``).
    """

    __slots__ = ("index", "rule", "message")
    index: int | None
    rule: str
    message: str


class CheckStats:
    """Counts per reason kind plus the peak number of live rows; updated in place."""

    __slots__ = ("reason_counts", "peak_live", "num_derivations", "num_solutions")

    def __init__(self) -> None:
        self.reason_counts = {"asm": 0, "lin": 0, "rnd": 0, "uns": 0}
        self.peak_live = 0
        self.num_derivations = 0
        self.num_solutions = 0

    _fields = _Record._fields
    __eq__ = _Record.__eq__
    __repr__ = _Record.__repr__


class VerificationReport(_Record):
    """Outcome of checking one certificate stream."""

    __slots__ = ("verified", "failure", "stats", "goal")
    verified: bool
    failure: CheckFailure | None
    stats: CheckStats
    goal: RtpGoal | None


class Rejection(Exception):
    """A certificate broke a rule; carries the :class:`CheckFailure` saying why.

    :func:`verify_certificate` turns it into the report's failure; a direct
    user of :class:`CheckerState` sees it raised.
    """

    def __init__(self, failure: CheckFailure) -> None:
        super().__init__(failure.message)
        self.failure = failure


#: The one empty assumption set, shared by every row that rests on no assumption.
NO_ASSUMPTIONS: AssumptionSet = frozenset()
_KINDS = {Asm: "asm", Lin: "lin", Rnd: "rnd", Uns: "uns"}  # the rule, and stats key, of a reason


def _goal_sides(problem: Problem, goal: RtpGoal) -> tuple[Rational | None, Rational | None]:
    """The range goal's (dual, primal) bounds; None for an infinite side.

    The dual side is the lower bound when minimizing and the upper bound when
    maximizing; the primal side is the other one. An infeasibility goal has
    neither.
    """
    if isinstance(goal, InfeasibleGoal):
        return None, None
    if problem.objective_sense == ObjectiveSense.MIN:
        return goal.lower, goal.upper
    return goal.upper, goal.lower


def _goal_test(problem: Problem, goal: RtpGoal) -> Callable[[Constraint], bool] | None:
    """Does an empty-assumption constraint prove the goal? None if the goal is vacuous.

    Infeasibility goals need an absurdity. A range goal's constraint must
    dominate the objective bounded by the dual side (see :func:`_goal_sides`),
    a row built once; an infinite dual bound is vacuously proven. Only a row
    whose left-hand side is empty or the objective's can dominate it, so no
    other row is handed to :func:`dominates`.
    """
    if isinstance(goal, InfeasibleGoal):
        return is_absurd
    dual, _ = _goal_sides(problem, goal)
    if dual is None:
        return None
    sense = Sense.GE if problem.objective_sense == ObjectiveSense.MIN else Sense.LE
    goal_row = Constraint("_goal", sense, problem.objective, dual)
    objective = problem.objective.entries
    return lambda constraint: (
        not constraint.lhs.entries or constraint.lhs.entries == objective
    ) and dominates(constraint, goal_row)


def assumptions_of(
    reason: Reason, index: int, lookup: Callable[[int], AssumptionSet]
) -> AssumptionSet:
    """The assumption set of derivation ``index``, justified by ``reason``.

    ``lookup`` returns the assumption set of an earlier row. An assumption
    depends on itself; a combination or rounding on the union of its terms'
    sets; an unsplit on the union of its branches' sets, each less only its
    own branch assumption. Every empty set is :data:`NO_ASSUMPTIONS`, and a
    union with one non-empty operand is that operand itself. The rules
    themselves are not checked here.
    """
    if isinstance(reason, Asm):
        return frozenset((index,))
    if isinstance(reason, Uns):
        cited = (lookup(reason.i1) - {reason.a1}, lookup(reason.i2) - {reason.a2})
        cited = [assumptions for assumptions in cited if assumptions]
    else:
        cited = []  # the non-empty sets
        for reference, _ in reason.terms:
            assumptions = lookup(reference)
            if assumptions:
                cited.append(assumptions)
    if len(cited) > 1:
        return frozenset().union(*cited)
    return cited[0] if cited else NO_ASSUMPTIONS


class CheckerState:
    """Live-row store and goal progress for one verification run.

    A derived row is dropped from the store right after the derivation whose
    index equals its declared last use has been processed; original
    constraints and rows with last use -1 stay until the end. A reference to
    a row past its declared last use is the certificate's fault and is
    rejected. ``row`` and :meth:`assumptions` read a live row, so a caller
    that wants every row's assumption set reads it right after that row's
    :meth:`verify_derivation`. :meth:`run` checks a whole event stream.
    """

    def __init__(self, problem: Problem, goal: RtpGoal) -> None:
        self.problem = problem
        self.goal = goal
        self.stats = CheckStats()
        self._proves_goal = _goal_test(problem, goal)
        self.goal_proven = self._proves_goal is None
        self._rows: dict[int, Constraint] = dict(enumerate(problem.constraints))
        self._assumptions: dict[int, AssumptionSet] = {}  # the non-empty ones only
        self.row: Callable[[int], Constraint] = self._rows.__getitem__  # KeyError if none
        self._evict_at: dict[int, list[int]] = {}
        self.next_index = problem.num_constraints
        self.stats.peak_live = len(self._rows)

    def assumptions(self, index: int) -> AssumptionSet:
        """The assumption set of the live row at ``index``: :data:`NO_ASSUMPTIONS` if empty."""
        return self._assumptions.get(index, NO_ASSUMPTIONS)

    def _describe(self, constraint: Constraint) -> str:
        return format_constraint(constraint, self.problem.variable_names)

    def _lookup(self, reference: int) -> Constraint:
        """The live row at ``reference``, or the rule violation that words why not."""
        row = self._rows.get(reference)
        if row is not None:
            return row
        if 0 <= reference < self.next_index:
            msg = f"reference to row {reference}, already evicted past its last use"
        else:
            msg = f"reference to row {reference}, which is not an earlier row"
        raise RuleViolation(msg)

    def verify_derivation(self, derivation: Derivation, index: int) -> bool:
        """Check one derivation, record it live, apply evictions; True if it proves the goal."""
        if index != self.next_index:
            msg = f"derivation arrived with index {index}, expected {self.next_index}"
            raise Rejection(CheckFailure(index, "order", msg))
        stated = derivation.constraint
        reason = derivation.reason
        last_use = derivation.last_use
        # Also checked by the parser, for its line; solver, tighten and Certificate skip it.
        if last_use != KEEP_UNTIL_END and last_use <= index:
            msg = f"last_use {last_use} not beyond the row's own index"
            raise Rejection(CheckFailure(index, "order", msg))

        rows, sets = self._rows, self._assumptions
        kind = _KINDS.get(type(reason))  # an asm row has nothing more to check
        if kind is None:  # pragma: no cover - exhaustive over Reason
            msg = f"unknown reason {reason!r}"
            raise Rejection(CheckFailure(index, "reason", msg))
        try:
            if kind == "lin" or kind == "rnd":
                combination = []
                for reference, multiplier in reason.terms:  # a live row is never falsy
                    combination.append((rows.get(reference) or self._lookup(reference), multiplier))
                combined = linear_combine(combination, stated.sense)
                if kind == "rnd":
                    combined = round_constraint(combined, self.problem.integer_set)
                if not dominates(combined, stated):
                    msg = (
                        f"combination yields {self._describe(combined)}, which does not "
                        f"dominate the stated {self._describe(stated)}"
                    )
                    raise RuleViolation(msg)
            elif kind == "uns":
                references = (reason.i1, reason.a1, reason.i2, reason.a2)
                branch1, asm1, branch2, asm2 = map(self._lookup, references)
                for asm_index in (reason.a1, reason.a2):
                    if asm_index not in sets.get(asm_index, ()):  # only an asm row's set has itself
                        msg = f"row {asm_index} is not an assumption"
                        raise RuleViolation(msg)
                if not check_disjunction_pair(asm1, asm2, self.problem.integer_set):
                    msg = f"rows {reason.a1} and {reason.a2} do not form a split disjunction pair"
                    raise RuleViolation(msg)
                sides = ((reason.i1, branch1, reason.a1), (reason.i2, branch2, reason.a2))
                for branch_index, _, asm_index in sides:
                    if asm_index not in sets.get(branch_index, ()):
                        msg = f"row {branch_index} does not depend on assumption {asm_index}"
                        raise RuleViolation(msg)
                for branch_index, branch, _ in sides:
                    if not dominates(branch, stated):
                        msg = (
                            f"row {branch_index} ({self._describe(branch)}) does "
                            f"not dominate the stated {self._describe(stated)}"
                        )
                        raise RuleViolation(msg)
        except RuleViolation as exc:
            raise Rejection(CheckFailure(index, kind, str(exc))) from exc

        assumptions = assumptions_of(reason, index, self.assumptions)
        stats = self.stats
        stats.reason_counts[kind] += 1
        stats.num_derivations += 1
        proves = not assumptions and self._proves_goal is not None and self._proves_goal(stated)
        self.goal_proven = self.goal_proven or proves

        rows[index] = stated
        if assumptions:
            sets[index] = assumptions
        if last_use != KEEP_UNTIL_END:
            self._evict_at.setdefault(last_use, []).append(index)
        if len(rows) > stats.peak_live:
            stats.peak_live = len(rows)
        self.next_index = index + 1
        for victim in self._evict_at.pop(index, ()):
            del rows[victim]
            sets.pop(victim, None)
        return proves

    def run(self, events: Iterable[Event]) -> Iterator[int]:
        """Check a stream's events after its header in order, then the goal and
        the primal bound; yield each goal-proving derivation's index once that
        row is checked. Raises :class:`Rejection` or, at a second header, ValueError."""
        best_value: Rational | None = None
        for event in events:
            if isinstance(event, Derivation):
                index = self.next_index
                if self.verify_derivation(event, index):
                    yield index
            elif isinstance(event, Solution):
                best_value = _check_solution(self, event, best_value)
                self.stats.num_solutions += 1
            else:
                msg = "event stream has a second header"
                raise ValueError(msg)
        _check_final(self, best_value)


def verify_certificate(source: Certificate | Iterable[Event]) -> VerificationReport:
    """Verify a certificate (in-memory or as a parsed event stream).

    Returns a report rather than raising: the verdict is ``verified`` only if
    every solution is exactly feasible, some solution meets the finite primal
    bound (when the goal states one), every derivation checks, and the goal
    was proven by an empty-assumption derivation (or is vacuous) once the
    stream ends. Parse errors from an underlying file stream propagate as
    :class:`ParseError`.

    Raises ValueError when the stream holds a second header or, by
    :func:`~mipcert.certfile.split_header`, does not start with one.
    """
    header, events = split_header(source)
    state = CheckerState(header.problem, header.goal)
    failure: CheckFailure | None = None
    try:
        for _ in state.run(events):
            pass
    except Rejection as rejection:
        failure = rejection.failure

    return VerificationReport(
        verified=failure is None,
        failure=failure,
        stats=state.stats,
        goal=state.goal,
    )


def _check_solution(
    state: CheckerState, solution: Solution, best_value: Rational | None
) -> Rational | None:
    ordinal = state.stats.num_solutions
    if isinstance(state.goal, InfeasibleGoal):
        msg = "solutions are not allowed with an infeasibility goal"
        raise Rejection(CheckFailure(ordinal, "solution", msg))
    last = solution.assignment.max_index()  # also checked by the parser, for its line
    if last >= state.problem.num_variables:
        msg = f"variable index {last} in solution {solution.name!r} out of range for "
        msg += f"{state.problem.num_variables} variables"
        raise Rejection(CheckFailure(ordinal, "solution", msg))
    feasible, value = evaluate_solution(state.problem, solution)
    if not feasible:
        msg = f"solution {solution.name!r} is not feasible"
        raise Rejection(CheckFailure(ordinal, "solution", msg))
    if best_value is not None and _at_least_as_good(state, best_value, value):
        return best_value
    return value


def _at_least_as_good(state: CheckerState, value: Rational, bound: Rational) -> bool:
    """Is objective ``value`` at least as good as ``bound`` in the problem's sense?"""
    return value <= bound if state.problem.objective_sense == ObjectiveSense.MIN else value >= bound


def _check_final(state: CheckerState, best_value: Rational | None) -> None:
    if not state.goal_proven:
        msg = "no empty-assumption derivation proves the goal"
        raise Rejection(CheckFailure(None, "goal", msg))
    _, bound = _goal_sides(state.problem, state.goal)
    if bound is not None:
        if best_value is None:
            msg = "the goal claims a finite primal bound but no solution is given"
            raise Rejection(CheckFailure(None, "solution", msg))
        if not _at_least_as_good(state, best_value, bound):
            msg = (
                f"no solution meets the claimed primal bound "
                f"{format_rational(bound)} (best is {format_rational(best_value)})"
            )
            raise Rejection(CheckFailure(None, "solution", msg))


def verify_certificate_file(path: str) -> VerificationReport:
    """Open, parse, and verify a certificate file as a stream."""
    with open(path, encoding="utf-8") as handle:
        return verify_certificate(parse_certificate(handle))
