"""Text serialization of certificates, with a streaming event parser.

The file grammar (whitespace-separated tokens; ``%`` starts a comment to end
of line) has eight sections, each exactly once, in this order::

    VER 1
    VAR <n>            followed by n variable names
    INT <k>            followed by k variable indices
    OBJ min|max        followed by one sparse vector (objective)
    CON <m>            followed by m rows: <name> G|L|E <rhs> <sparse>
    RTP infeas  |  RTP range <lb|-inf> <ub|inf>
    SOL <s>            followed by s rows: <name> <sparse>  (s = 0 if infeas)
    DER <d>            followed by d rows:
        <name> G|L|E <rhs> <sparse> { asm } <last_use>
        <name> G|L|E <rhs> <sparse> { lin <k> i1 m1 ... ik mk } <last_use>
        <name> G|L|E <rhs> <sparse> { rnd <k> i1 m1 ... ik mk } <last_use>
        <name> G|L|E <rhs> <sparse> { uns i1 a1 i2 a2 } <last_use>

A sparse vector is ``k i1 v1 ... ik vk`` with strictly increasing indices and
nonzero rational values. All indices are 0-based. Combination and unsplit
references use the combined row index space (originals first, then
derivations) and must point strictly before the referencing derivation.
``last_use`` is ``-1`` or a combined index greater than the derivation's own.

:func:`parse_certificate` is a generator emitting one :class:`Header`, the
declared solutions, each derivation in file order, then :class:`End` — it
never materializes the whole derivation list, so arbitrarily long
certificates can be verified in bounded memory. Every parse error carries the
1-based line number where it was detected. The order and nonzero rules of a
sparse vector or a combination are enforced by the model's constructors once
the whole vector has been read, so their errors carry the line where the
vector ends.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TextIO, Union

from .model import (
    KEEP_UNTIL_END,
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
)
from .numeric import Number, format_rational, int_from_digits, parse_rational

__all__ = [
    "DerivationEvent",
    "End",
    "Event",
    "Header",
    "ParseError",
    "SolutionEvent",
    "events_from_certificate",
    "parse_certificate",
    "parse_problem",
    "read_certificate",
    "write_certificate",
    "write_problem",
]


class ParseError(Exception):
    """A malformed certificate or problem file, positioned by line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


@dataclass(frozen=True)
class Header:
    """First event: the problem and the goal to prove."""

    problem: Problem
    goal: RtpGoal


@dataclass(frozen=True)
class SolutionEvent:
    """One claimed solution, in file order."""

    solution: Solution


@dataclass(frozen=True)
class DerivationEvent:
    """One derivation, in file order, with its combined row index."""

    derivation: Derivation
    index: int


@dataclass(frozen=True)
class End:
    """The file ended cleanly after the declared number of derivations."""


Event = Union[Header, SolutionEvent, DerivationEvent, End]

_SENSE_BY_CODE = {"G": Sense.GE, "L": Sense.LE, "E": Sense.EQ}
_CODE_BY_SENSE = {sense: code for code, sense in _SENSE_BY_CODE.items()}
_LAST_USE_RE = re.compile(r"-1|[0-9]+")


class _Tokens:
    """Whitespace token stream over lines, tracking 1-based line numbers."""

    def __init__(self, lines: Iterable[str]) -> None:
        self._lines = iter(lines)
        self._buffer: list[str] = []
        self._position = 0
        self.line = 0

    def next(self, expected: str) -> str:
        if self._position >= len(self._buffer) and not self._fill():
            msg = f"unexpected end of input while reading {expected}"
            raise ParseError(msg, self.line)
        token = self._buffer[self._position]
        self._position += 1
        return token

    def at_end(self) -> bool:
        return self._position >= len(self._buffer) and not self._fill()

    def _fill(self) -> bool:
        """Load the next line holding a token; False when the input ends first."""
        for raw in self._lines:
            self.line += 1
            comment_start = raw.find("%")
            if comment_start != -1:
                raw = raw[:comment_start]
            self._buffer = raw.split()
            self._position = 0
            if self._buffer:
                return True
        return False

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line)

    def expect(self, literal: str, context: str) -> None:
        token = self.next(f"{literal!r} {context}")
        if token != literal:
            raise self.error(f"expected {literal!r} {context}, found {token!r}")

    def take_count(self, what: str, kind: str = "count") -> int:
        token = self.next(what)
        if not (token.isascii() and token.isdigit()):
            raise self.error(f"expected a nonnegative {kind} for {what}, found {token!r}")
        return int_from_digits(token)

    def take_index(self, what: str, upper: int) -> int:
        index = self.take_count(what, "index")
        if index >= upper:
            raise self.error(
                f"{what} {format_rational(index)} out of range (must be < {upper})"
            )
        return index

    def take_rational(self, what: str) -> Number:
        token = self.next(what)
        try:
            return parse_rational(token)
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from exc

    def take_last_use(self, own_index: int) -> int:
        token = self.next("last_use")
        if _LAST_USE_RE.fullmatch(token) is None:
            raise self.error(f"expected an integer last_use, found {token!r}")
        value = int_from_digits(token)
        if value != KEEP_UNTIL_END and value <= own_index:
            raise self.error(
                f"last_use {value} must be -1 or greater than the row's own index {own_index}"
            )
        return value

    def take_sparse(self, num_variables: int, what: str) -> SparseVec:
        length = self.take_count(f"{what} length")
        entries: list[tuple[int, Number]] = []
        for _ in range(length):
            index = self.take_index(f"{what} variable index", num_variables)
            entries.append((index, self.take_rational(f"{what} coefficient")))
        try:
            return SparseVec(tuple(entries))
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from exc


def _parse_problem_sections(tokens: _Tokens) -> Problem:
    tokens.expect("VER", "at start of file")
    version = tokens.next("format version")
    if version != "1":
        raise tokens.error(f"unsupported format version {version!r}")

    tokens.expect("VAR", "after VER section")
    num_variables = tokens.take_count("variables")
    variable_names = tuple(tokens.next("variable name") for _ in range(num_variables))

    tokens.expect("INT", "after VAR section")
    num_integers = tokens.take_count("integer variables")
    integer_set: set[int] = set()
    for _ in range(num_integers):
        index = tokens.take_index("integer variable index", num_variables)
        if index in integer_set:
            raise tokens.error(f"duplicate integer variable index {index}")
        integer_set.add(index)

    tokens.expect("OBJ", "after INT section")
    sense_token = tokens.next("objective sense")
    if sense_token == "min":
        objective_sense = ObjectiveSense.MIN
    elif sense_token == "max":
        objective_sense = ObjectiveSense.MAX
    else:
        raise tokens.error(f"expected 'min' or 'max', found {sense_token!r}")
    objective = tokens.take_sparse(num_variables, "objective")

    tokens.expect("CON", "after OBJ section")
    num_constraints = tokens.take_count("constraints")
    constraints = []
    seen_names: set[str] = set()
    for _ in range(num_constraints):
        constraint = _parse_constraint_core(tokens, num_variables, "constraint")
        if constraint.name in seen_names:
            raise tokens.error(f"duplicate constraint name {constraint.name!r}")
        seen_names.add(constraint.name)
        constraints.append(constraint)

    return Problem(
        variable_names=variable_names,
        integer_set=frozenset(integer_set),
        objective=objective,
        objective_sense=objective_sense,
        constraints=tuple(constraints),
    )


def _parse_constraint_core(tokens: _Tokens, num_variables: int, what: str) -> Constraint:
    name = tokens.next(f"{what} name")
    sense_code = tokens.next(f"{what} sense")
    sense = _SENSE_BY_CODE.get(sense_code)
    if sense is None:
        raise tokens.error(f"unknown sense code {sense_code!r} (expected G, L, or E)")
    rhs = tokens.take_rational(f"{what} right-hand side")
    lhs = tokens.take_sparse(num_variables, f"{what} left-hand side")
    return Constraint(name, sense, lhs, rhs)


def _parse_goal(tokens: _Tokens) -> RtpGoal:
    tokens.expect("RTP", "after CON section")
    kind = tokens.next("goal kind")
    if kind == "infeas":
        return InfeasibleGoal()
    if kind != "range":
        raise tokens.error(f"expected 'infeas' or 'range', found {kind!r}")
    lower = _take_bound(tokens, "-inf", "range lower bound")
    upper = _take_bound(tokens, "inf", "range upper bound")
    try:
        return RangeGoal(lower, upper)
    except ValueError as exc:
        raise tokens.error(str(exc)) from exc


def _take_bound(tokens: _Tokens, infinite: str, what: str) -> Number | None:
    """A range bound: a rational, or None for the ``infinite`` token."""
    token = tokens.next(what)
    if token == infinite:
        return None
    try:
        return parse_rational(token)
    except ValueError as exc:
        raise tokens.error(f"{what}: {exc}") from exc


def _parse_reason(tokens: _Tokens, own_index: int) -> Reason:
    tokens.expect("{", "before derivation reason")
    keyword = tokens.next("reason keyword")
    reason: Reason
    if keyword == "asm":
        reason = Asm()
    elif keyword in ("lin", "rnd"):
        count = tokens.take_count("combination terms")
        terms: list[tuple[int, Number]] = []
        for _ in range(count):
            index = tokens.take_index("combination row index", own_index)
            terms.append((index, tokens.take_rational("combination multiplier")))
        try:
            reason = Lin(tuple(terms)) if keyword == "lin" else Rnd(tuple(terms))
        except ValueError as exc:
            raise tokens.error(f"{keyword} reason: {exc}") from exc
    elif keyword == "uns":
        i1 = tokens.take_index("unsplit row reference", own_index)
        a1 = tokens.take_index("unsplit assumption reference", own_index)
        i2 = tokens.take_index("unsplit row reference", own_index)
        a2 = tokens.take_index("unsplit assumption reference", own_index)
        reason = Uns(i1, a1, i2, a2)
    else:
        raise tokens.error(f"unknown reason keyword {keyword!r}")
    tokens.expect("}", "after derivation reason")
    return reason


def parse_certificate(source: Iterable[str] | TextIO) -> Iterator[Event]:
    """Stream events from certificate text: Header, solutions, derivations, End.

    Raises :class:`ParseError` (with a 1-based line number) on any grammar or
    invariant violation. Derivations are yielded one at a time and never
    retained here.
    """
    tokens = _Tokens(source)
    problem = _parse_problem_sections(tokens)
    goal = _parse_goal(tokens)

    tokens.expect("SOL", "after RTP section")
    num_solutions = tokens.take_count("solutions")
    if isinstance(goal, InfeasibleGoal) and num_solutions != 0:
        raise tokens.error("an infeasibility goal admits no solutions (SOL must be 0)")
    solutions: list[Solution] = []
    seen_solution_names: set[str] = set()
    for _ in range(num_solutions):
        name = tokens.next("solution name")
        if name in seen_solution_names:
            raise tokens.error(f"duplicate solution name {name!r}")
        seen_solution_names.add(name)
        assignment = tokens.take_sparse(problem.num_variables, "solution")
        solutions.append(Solution(name, assignment))

    yield Header(problem, goal)
    for solution in solutions:
        yield SolutionEvent(solution)

    tokens.expect("DER", "after SOL section")
    num_derivations = tokens.take_count("derivations")
    seen_names = {constraint.name for constraint in problem.constraints}
    num_original = problem.num_constraints
    for position in range(num_derivations):
        own_index = num_original + position
        constraint = _parse_constraint_core(tokens, problem.num_variables, "derivation")
        if constraint.name in seen_names:
            raise tokens.error(f"duplicate constraint name {constraint.name!r}")
        seen_names.add(constraint.name)
        reason = _parse_reason(tokens, own_index)
        last_use = tokens.take_last_use(own_index)
        yield DerivationEvent(Derivation(constraint, reason, last_use), own_index)

    if not tokens.at_end():
        raise tokens.error(f"trailing tokens after the DER section: {tokens.next('')!r}")
    yield End()


def read_certificate(source: Iterable[str] | TextIO) -> Certificate:
    """Parse certificate text into an in-memory :class:`Certificate`."""
    events = parse_certificate(source)
    header = next(events)  # the parser yields the Header first or raises
    solutions: list[Solution] = []
    derivations: list[Derivation] = []
    for event in events:
        if isinstance(event, SolutionEvent):
            solutions.append(event.solution)
        elif isinstance(event, DerivationEvent):
            derivations.append(event.derivation)
    return Certificate(header.problem, header.goal, tuple(solutions), tuple(derivations))


def events_from_certificate(certificate: Certificate) -> Iterator[Event]:
    """The event stream an in-memory certificate would parse to."""
    yield Header(certificate.problem, certificate.goal)
    for solution in certificate.solutions:
        yield SolutionEvent(solution)
    num_original = certificate.num_original
    for position, derivation in enumerate(certificate.derivations):
        yield DerivationEvent(derivation, num_original + position)
    yield End()


def parse_problem(source: Iterable[str] | TextIO) -> Problem:
    """Parse a problem file: the VER/VAR/INT/OBJ/CON sections only."""
    tokens = _Tokens(source)
    problem = _parse_problem_sections(tokens)
    if not tokens.at_end():
        raise tokens.error(f"trailing tokens after the CON section: {tokens.next('')!r}")
    return problem


def _format_sparse(vec: SparseVec) -> str:
    parts = [str(len(vec))]
    for index, value in vec:
        parts.append(str(index))
        parts.append(format_rational(value))
    return " ".join(parts)


def _format_reason(reason: Reason) -> str:
    if isinstance(reason, Asm):
        return "{ asm }"
    if isinstance(reason, (Lin, Rnd)):
        keyword = "lin" if isinstance(reason, Lin) else "rnd"
        parts = [keyword, str(len(reason.terms))]
        for index, multiplier in reason.terms:
            parts.append(str(index))
            parts.append(format_rational(multiplier))
        return "{ " + " ".join(parts) + " }"
    return f"{{ uns {reason.i1} {reason.a1} {reason.i2} {reason.a2} }}"


def _constraint_line(constraint: Constraint) -> str:
    return (
        f"{constraint.name} {_CODE_BY_SENSE[constraint.sense]} "
        f"{format_rational(constraint.rhs)} {_format_sparse(constraint.lhs)}"
    )


def _write_problem_sections(problem: Problem, sink: TextIO) -> None:
    sink.write("VER 1\n")
    sink.write(f"VAR {problem.num_variables}\n")
    if problem.variable_names:
        sink.write(" ".join(problem.variable_names) + "\n")
    sink.write(f"INT {len(problem.integer_set)}\n")
    if problem.integer_set:
        sink.write(" ".join(str(index) for index in sorted(problem.integer_set)) + "\n")
    sink.write(f"OBJ {problem.objective_sense.value}\n")
    sink.write(_format_sparse(problem.objective) + "\n")
    sink.write(f"CON {problem.num_constraints}\n")
    for constraint in problem.constraints:
        sink.write(_constraint_line(constraint) + "\n")


def write_certificate(certificate: Certificate, sink: TextIO) -> None:
    """Write a certificate in canonical form; re-parsing yields an equal value."""
    _write_problem_sections(certificate.problem, sink)
    goal = certificate.goal
    if isinstance(goal, InfeasibleGoal):
        sink.write("RTP infeas\n")
    else:
        lower = "-inf" if goal.lower is None else format_rational(goal.lower)
        upper = "inf" if goal.upper is None else format_rational(goal.upper)
        sink.write(f"RTP range {lower} {upper}\n")
    sink.write(f"SOL {len(certificate.solutions)}\n")
    for solution in certificate.solutions:
        sink.write(f"{solution.name} {_format_sparse(solution.assignment)}\n")
    sink.write(f"DER {len(certificate.derivations)}\n")
    for derivation in certificate.derivations:
        sink.write(
            f"{_constraint_line(derivation.constraint)} "
            f"{_format_reason(derivation.reason)} {format_rational(derivation.last_use)}\n"
        )


def write_problem(problem: Problem, sink: TextIO) -> None:
    """Write a problem file: the VER/VAR/INT/OBJ/CON sections only."""
    _write_problem_sections(problem, sink)
