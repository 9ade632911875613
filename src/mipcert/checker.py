"""Sequential certificate verification with on-the-fly assumption tracking.

The checker consumes the event stream of :mod:`mipcert.certfile` and verifies
each derivation against the rows still live in memory, computing assumption
sets as it goes:

* ``asm`` rows are accepted verbatim; their assumption set is themselves;
* ``lin``/``rnd`` rows must be dominated by the (rounded) combination of the
  referenced rows; their assumption set is the union of the referenced sets;
* ``uns`` rows discharge a complementary assumption pair: both referenced
  rows must dominate the stated row, each must actually depend on its
  assumption, and the two assumptions must form a split disjunction.

This module is the only implementation of these rules: the solver emits its
rows through a :class:`CheckerState`, and the renderer's assumption sets come
from :func:`assumptions_of`.

Whenever a derivation's assumption set is empty it is tested against the
goal: an infeasibility goal needs an absurdity, a range goal needs the row to
dominate the objective-bound constraint on the dual side. A certificate as a
whole is verified when every claimed solution is exactly feasible, some
solution meets the finite primal bound (if any), every derivation checks, and
the goal was proven.

Rows whose declared last-use index has passed are always evicted from memory,
so certificates far larger than memory stream through; referencing an evicted
row is a hard error, and a row whose last use is -1 is kept to the end. The
peak number of simultaneously live rows (originals included) is reported in
the statistics. The report holds no per-row assumption sets; a caller that
wants them drives a :class:`CheckerState` and reads
:meth:`CheckerState.assumptions` while the row is live.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .certfile import (
    DerivationEvent,
    End,
    Event,
    Header,
    SolutionEvent,
    events_from_certificate,
    parse_certificate,
)
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
    RangeGoal,
    Reason,
    Rnd,
    RtpGoal,
    RuleViolation,
    Sense,
    Uns,
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
    "Rejection",
    "VerificationReport",
    "assumptions_of",
    "check_goal",
    "verify_certificate",
    "verify_certificate_file",
]


@dataclass(frozen=True)
class CheckFailure:
    """Why a certificate was rejected.

    ``index`` is the combined row index for derivation failures, the solution
    ordinal for solution failures (rule ``"solution"``), and None for
    certificate-level failures such as a never-proven goal (rule ``"goal"``).
    """

    index: int | None
    rule: str
    message: str


@dataclass
class CheckStats:
    """Counts per reason kind plus the peak number of live rows."""

    reason_counts: dict[str, int] = field(
        default_factory=lambda: {"asm": 0, "lin": 0, "rnd": 0, "uns": 0}
    )
    peak_live: int = 0
    num_derivations: int = 0
    num_solutions: int = 0


@dataclass
class VerificationReport:
    """Outcome of checking one certificate stream."""

    verified: bool
    failure: CheckFailure | None
    stats: CheckStats
    goal: RtpGoal | None
    goal_proven_by: tuple[int, ...] = ()

    @property
    def verdict(self) -> str:
        return "verified" if self.verified else "rejected"


class Rejection(Exception):
    """A certificate broke a rule; carries the :class:`CheckFailure` saying why.

    :func:`verify_certificate` turns it into the report's failure; a direct
    user of :class:`CheckerState` sees it raised.
    """

    def __init__(self, failure: CheckFailure) -> None:
        super().__init__(failure.message)
        self.failure = failure


@dataclass
class _LiveRow:
    constraint: Constraint
    assumptions: frozenset[int]
    is_assumption: bool


def _goal_sides(
    problem: Problem, goal: RtpGoal
) -> tuple[Rational | None, Rational | None]:
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


def check_goal(problem: Problem, goal: RtpGoal, constraint: Constraint) -> bool:
    """Does this empty-assumption constraint prove the goal?

    Infeasibility goals need an absurdity. A range goal's constraint must
    dominate the objective bounded by the dual side (see :func:`_goal_sides`);
    an infinite dual bound is vacuously proven.
    """
    if isinstance(goal, InfeasibleGoal):
        return is_absurd(constraint)
    dual, _ = _goal_sides(problem, goal)
    if dual is None:
        return True
    sense = Sense.GE if problem.objective_sense == ObjectiveSense.MIN else Sense.LE
    return dominates(constraint, Constraint("_goal", sense, problem.objective, dual))


def assumptions_of(
    reason: Reason, index: int, lookup: Callable[[int], AssumptionSet]
) -> AssumptionSet:
    """The assumption set of derivation ``index``, justified by ``reason``.

    ``lookup`` returns the assumption set of an earlier row. An assumption
    depends on itself; a combination or rounding on the union of its terms'
    sets; an unsplit on the union of its two branches' sets, minus the two
    assumptions it discharges. The rules themselves are not checked here.
    """
    if isinstance(reason, Asm):
        return frozenset((index,))
    if isinstance(reason, (Lin, Rnd)):
        return frozenset().union(*(lookup(reference) for reference, _ in reason.terms))
    return (lookup(reason.i1) | lookup(reason.i2)) - {reason.a1, reason.a2}


class CheckerState:
    """Live-row store and goal progress for one verification run.

    A derived row is dropped from the store right after the derivation whose
    index equals its declared last use has been processed; original
    constraints and rows with last use -1 stay until the end. A reference to
    a row past its declared last use is the certificate's fault and is
    rejected. :meth:`row` and :meth:`assumptions` read a live row, so a caller
    that wants every row's assumption set reads it right after that row's
    :meth:`verify_derivation`.
    """

    def __init__(self, problem: Problem, goal: RtpGoal) -> None:
        self.problem = problem
        self.goal = goal
        self.stats = CheckStats()
        self._goal_vacuous = (
            not isinstance(goal, InfeasibleGoal) and _goal_sides(problem, goal)[0] is None
        )
        self.goal_proven = self._goal_vacuous
        self.goal_proven_by: list[int] = []
        self._store: dict[int, _LiveRow] = {}
        self._evict_at: dict[int, list[int]] = {}
        self.next_index = problem.num_constraints
        for index, constraint in enumerate(problem.constraints):
            self._store[index] = _LiveRow(constraint, frozenset(), False)
        self.stats.peak_live = len(self._store)

    def row(self, index: int) -> Constraint:
        """The live row at combined ``index``; KeyError if evicted or unknown."""
        return self._store[index].constraint

    def assumptions(self, index: int) -> AssumptionSet:
        """The assumption set of the live row at ``index``; KeyError if absent."""
        return self._store[index].assumptions

    def _describe(self, constraint: Constraint) -> str:
        return format_constraint(constraint, self.problem.variable_names)

    def _lookup(self, reference: int, index: int, rule: str) -> _LiveRow:
        row = self._store.get(reference)
        if row is not None:
            return row
        if 0 <= reference < self.next_index:
            msg = f"reference to row {reference}, already evicted past its last use"
        else:
            msg = f"reference to row {reference}, which is not an earlier row"
        raise Rejection(CheckFailure(index, rule, msg))

    def _combination(
        self, terms: tuple[tuple[int, Rational], ...], stated: Constraint, index: int, rule: str
    ) -> Constraint:
        rows = [
            (self._lookup(ref, index, rule).constraint, multiplier) for ref, multiplier in terms
        ]
        try:
            return linear_combine(rows, stated.sense)
        except RuleViolation as exc:
            raise Rejection(CheckFailure(index, rule, str(exc))) from exc

    def verify_derivation(self, derivation: Derivation, index: int) -> None:
        """Check one derivation, record it as live, and apply evictions."""
        if index != self.next_index:
            msg = f"derivation arrived with index {index}, expected {self.next_index}"
            raise Rejection(CheckFailure(index, "order", msg))
        stated = derivation.constraint
        reason = derivation.reason
        if derivation.last_use != KEEP_UNTIL_END and derivation.last_use <= index:
            msg = f"last_use {derivation.last_use} not beyond the row's own index"
            raise Rejection(CheckFailure(index, "order", msg))

        if isinstance(reason, Asm):
            kind = "asm"
        elif isinstance(reason, (Lin, Rnd)):
            kind = "lin" if isinstance(reason, Lin) else "rnd"
            combined = self._combination(reason.terms, stated, index, kind)
            if isinstance(reason, Rnd):
                try:
                    combined = round_constraint(combined, self.problem.integer_set)
                except RuleViolation as exc:
                    raise Rejection(CheckFailure(index, kind, str(exc))) from exc
            if not dominates(combined, stated):
                msg = (
                    f"combination yields {self._describe(combined)}, which does not "
                    f"dominate the stated {self._describe(stated)}"
                )
                raise Rejection(CheckFailure(index, kind, msg))
        elif isinstance(reason, Uns):
            kind = "uns"
            branch1 = self._lookup(reason.i1, index, kind)
            asm1 = self._lookup(reason.a1, index, kind)
            branch2 = self._lookup(reason.i2, index, kind)
            asm2 = self._lookup(reason.a2, index, kind)
            if not asm1.is_assumption or not asm2.is_assumption:
                offender = reason.a1 if not asm1.is_assumption else reason.a2
                msg = f"row {offender} is not an assumption"
                raise Rejection(CheckFailure(index, kind, msg))
            if not check_disjunction_pair(
                asm1.constraint, asm2.constraint, self.problem.integer_set
            ):
                msg = (
                    f"rows {reason.a1} and {reason.a2} do not form a split "
                    f"disjunction pair"
                )
                raise Rejection(CheckFailure(index, kind, msg))
            for branch, asm_index, branch_index in (
                (branch1, reason.a1, reason.i1),
                (branch2, reason.a2, reason.i2),
            ):
                if asm_index not in branch.assumptions:
                    msg = f"row {branch_index} does not depend on assumption {asm_index}"
                    raise Rejection(CheckFailure(index, kind, msg))
            for branch_index, branch in ((reason.i1, branch1), (reason.i2, branch2)):
                if not dominates(branch.constraint, stated):
                    msg = (
                        f"row {branch_index} ({self._describe(branch.constraint)}) does "
                        f"not dominate the stated {self._describe(stated)}"
                    )
                    raise Rejection(CheckFailure(index, kind, msg))
        else:  # pragma: no cover - exhaustive over Reason
            msg = f"unknown reason {reason!r}"
            raise Rejection(CheckFailure(index, "reason", msg))

        assumptions = assumptions_of(reason, index, self.assumptions)
        self.stats.reason_counts[kind] += 1
        self.stats.num_derivations += 1
        if not assumptions and not self._goal_vacuous:
            if check_goal(self.problem, self.goal, stated):
                self.goal_proven = True
                self.goal_proven_by.append(index)

        self._store[index] = _LiveRow(stated, assumptions, isinstance(reason, Asm))
        if derivation.last_use != KEEP_UNTIL_END:
            self._evict_at.setdefault(derivation.last_use, []).append(index)
        self.stats.peak_live = max(self.stats.peak_live, len(self._store))
        self.next_index += 1
        for victim in self._evict_at.pop(index, ()):
            del self._store[victim]


def verify_certificate(source: Certificate | Iterable[Event]) -> VerificationReport:
    """Verify a certificate (in-memory or as a parsed event stream).

    Returns a report rather than raising: the verdict is ``verified`` only if
    every solution is exactly feasible, some solution meets the finite primal
    bound (when the goal states one), every derivation checks, and the goal
    was proven by an empty-assumption derivation (or is vacuous). Parse errors
    from an underlying file stream propagate as :class:`ParseError`.

    Raises ValueError when the stream has no :class:`Header` before its first
    other event, or none at all (an empty stream).
    """
    if isinstance(source, Certificate):
        events: Iterable[Event] = events_from_certificate(source)
    else:
        events = source

    state: CheckerState | None = None
    best_value: Rational | None = None
    solution_ordinal = 0
    failure: CheckFailure | None = None
    try:
        for event in events:
            if isinstance(event, Header):
                state = CheckerState(event.problem, event.goal)
            elif state is None:
                break
            elif isinstance(event, SolutionEvent):
                best_value = _check_solution(state, event, solution_ordinal, best_value)
                state.stats.num_solutions += 1
                solution_ordinal += 1
            elif isinstance(event, DerivationEvent):
                state.verify_derivation(event.derivation, event.index)
            elif isinstance(event, End):
                _check_final(state, best_value)
    except Rejection as rejection:
        failure = rejection.failure

    if state is None:
        msg = "event stream has no header"
        raise ValueError(msg)
    return VerificationReport(
        verified=failure is None,
        failure=failure,
        stats=state.stats,
        goal=state.goal,
        goal_proven_by=tuple(state.goal_proven_by),
    )


def _check_solution(
    state: CheckerState,
    event: SolutionEvent,
    ordinal: int,
    best_value: Rational | None,
) -> Rational | None:
    if isinstance(state.goal, InfeasibleGoal):
        msg = "solutions are not allowed with an infeasibility goal"
        raise Rejection(CheckFailure(ordinal, "solution", msg))
    feasible, value = evaluate_solution(state.problem, event.solution)
    if not feasible:
        msg = f"solution {event.solution.name!r} is not feasible"
        raise Rejection(CheckFailure(ordinal, "solution", msg))
    if best_value is None:
        return value
    if state.problem.objective_sense == ObjectiveSense.MIN:
        return min(best_value, value)
    return max(best_value, value)


def _check_final(state: CheckerState, best_value: Rational | None) -> None:
    if not state.goal_proven:
        msg = "no empty-assumption derivation proves the goal"
        raise Rejection(CheckFailure(None, "goal", msg))
    _, bound = _goal_sides(state.problem, state.goal)
    if bound is not None:
        if best_value is None:
            msg = "the goal claims a finite primal bound but no solution is given"
            raise Rejection(CheckFailure(None, "solution", msg))
        meets = (
            best_value <= bound
            if state.problem.objective_sense == ObjectiveSense.MIN
            else best_value >= bound
        )
        if not meets:
            msg = (
                f"no solution meets the claimed primal bound "
                f"{format_rational(bound)} (best is {format_rational(best_value)})"
            )
            raise Rejection(CheckFailure(None, "solution", msg))


def verify_certificate_file(path: str) -> VerificationReport:
    """Open, parse, and verify a certificate file as a stream."""
    with open(path, encoding="utf-8") as handle:
        return verify_certificate(parse_certificate(handle))
