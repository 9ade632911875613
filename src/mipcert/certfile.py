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

:func:`parse_certificate` is a generator emitting one :class:`Header`, then
each declared :class:`~mipcert.model.Solution` and each
:class:`~mipcert.model.Derivation` in file order, and returns once the file
has ended cleanly. It never materializes the solution or derivation lists, so
arbitrarily long certificates can be verified in bounded memory. Every parse
error carries the 1-based line number where it was detected. The order and
nonzero rules of a sparse vector or a combination are enforced by the model's
constructors once the whole vector has been read, so their errors carry the
line where the vector ends.

Rows are read a field group at a time: one list of tokens, a slice of the
line when it holds the group, or joined over lines keeping each token's line.
Fields are checked once, in file order, inline for a row's own fields; error
text is built, by the checks and builders of ``_Tokens``, only when one fails.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
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
    _Record,
    format_bounds,
)
from .numeric import Number, format_rational, int_from_digits, parse_rational

__all__ = [
    "Event",
    "Header",
    "ParseError",
    "parse_certificate",
    "parse_problem",
    "read_certificate",
    "split_header",
    "write_certificate",
    "write_problem",
]


class ParseError(Exception):
    """A malformed certificate or problem file, positioned by line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


class Header(_Record):
    """First event: the problem and the goal to prove."""

    __slots__ = ("problem", "goal")
    problem: Problem
    goal: RtpGoal


Event = Union[Header, Solution, Derivation]

_SENSES = {sense.value: sense for sense in Sense}
_LEFT_HAND_SIDES = {what: f"{what} left-hand side" for what in ("constraint", "derivation")}

#: The most index/value pairs (or variable names) one take asks for, so that
#: a count the input cannot back holds no more tokens than those read so far.
_PAIRS_PER_TAKE = 4096


class _Tokens:
    """Whitespace token stream over lines, read one field group (a take) at a
    time; the field checks below read :attr:`row`, the last take, in order."""

    def __init__(self, lines: Iterable[str]) -> None:
        self._lines = iter(lines)
        self._buffer: list[str] = []
        self._position = 0
        self._row_lines: list[int] | None = None
        self.row: list[str] = []
        self.line = 0

    def take(self, n: int) -> list[str]:
        """The next ``n`` tokens, ended by ``""``, which no check accepts, if
        the input ends first. They are a slice of the current line when they
        all sit on it, else joined over lines, keeping each token's line."""
        position = self._position
        if n and position == len(self._buffer) and self._fill():
            position = 0
        if position + n <= len(self._buffer):
            self._position, self._row_lines = position + n, None
            self.row = self._buffer[position : position + n]
            return self.row
        row = self._buffer[position:]
        lines = [self.line] * len(row)
        self._position = len(self._buffer)
        while len(row) < n and self._fill():
            self._position = min(n - len(row), len(self._buffer))
            row += self._buffer[: self._position]
            lines += [self.line] * self._position
        if len(row) < n:
            row.append("")
            lines.append(self.line)
        self.row, self._row_lines = row, lines
        return row

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

    def error(self, message: str, position: int = -1, what: str = "") -> ParseError:
        """``message`` at the line of ``row[position]``; or, when that is the
        ``""`` past the end of input, the end of input while reading ``what``."""
        if what and not self.row[position]:
            return self.ended(what)
        lines = self._row_lines
        return ParseError(message, self.line if lines is None else lines[position])

    def ended(self, what: str) -> ParseError:
        return ParseError(f"unexpected end of input while reading {what}", self.line)

    def expect(self, position: int, literal: str, context: str) -> None:
        token = self.row[position]
        if token != literal:
            what = f"{literal!r} {context}"
            raise self.error(f"expected {what}, found {token!r}", position, what)

    def natural(self, position: int, what: str, part: str = "", upper: int | None = None) -> int:
        """A count, or with ``upper`` an index below it, named ``what + part``."""
        token = self.row[position]
        if token.isascii() and token.isdigit():
            value = int_from_digits(token)
            if upper is None or value < upper:
                return value
        raise self.natural_error(position, what, part, upper)

    def natural_error(self, position: int, what: str, part: str, upper: int | None) -> ParseError:
        token = self.row[position]
        if token.isascii() and token.isdigit():
            value = format_rational(int_from_digits(token))
            return self.error(f"{what}{part} {value} out of range (must be < {upper})", position)
        kind = "count" if upper is None else "index"
        message = f"expected a nonnegative {kind} for {what}{part}, found {token!r}"
        return self.error(message, position, what + part)

    def rational(self, position: int, what: str, part: str = "") -> Number:
        try:
            return parse_rational(self.row[position])
        except ValueError as exc:
            raise self.rational_error(position, what, part, exc) from exc

    def rational_error(self, position: int, what: str, part: str, exc: ValueError) -> ParseError:
        return self.error(f"{what}{part}: {exc}", position, what + part)

    def count(self, keyword: str, context: str, what: str) -> int:
        """A section header: ``keyword`` and the count of what follows."""
        self.take(2)
        self.expect(0, keyword, context)
        return self.natural(1, what)


#: For :func:`_take_pairs`: the record built, its errors' name ("": the vector's), the pair fields.
_ENTRIES = (SparseVec, "", " variable index", " coefficient")
_TERMS = {
    "lin": (Lin, "lin reason", " row index", " multiplier"),
    "rnd": (Rnd, "rnd reason", " row index", " multiplier"),
}


def _take_pairs(
    tokens: _Tokens, count: int, upper: int, what: str, tail: int = 0, kind: tuple = _ENTRIES
) -> tuple[SparseVec | Lin | Rnd, int]:
    """``count`` pairs of an index below ``upper`` and a rational, named
    ``what`` plus the parts in ``kind``, then ``tail`` more tokens. Returns
    the record ``kind`` builds of them, whose own ValueError is reported at
    the vector's last token, and where the tail starts in ``tokens.row``,
    just past the vector's end."""
    build, label, index_part, value_part = kind
    pairs: list[tuple[int, Number]] = []
    while True:
        chunk = count if count < _PAIRS_PER_TAKE else _PAIRS_PER_TAKE
        count -= chunk
        end = 2 * chunk
        row = tokens.take(end if count else end + tail)
        for position in range(0, end, 2):  # tokens.natural and .rational, inlined
            token = row[position]
            try:
                index = int(token) if token.isascii() and token.isdigit() else upper
            except ValueError:  # too long for int(), so far beyond any row or variable count
                index = upper
            if index >= upper:
                raise tokens.natural_error(position, what, index_part, upper)
            try:
                pairs.append((index, parse_rational(row[position + 1])))
            except ValueError as exc:
                raise tokens.rational_error(position + 1, what, value_part, exc) from exc
        if not count:
            try:
                return build(pairs), end
            except ValueError as exc:
                raise tokens.error(f"{label or what}: {exc}", end - 1) from exc


def _parse_problem_sections(tokens: _Tokens) -> Problem:
    row = tokens.take(2)
    tokens.expect(0, "VER", "at start of file")
    if row[1] != "1":
        raise tokens.error(f"unsupported format version {row[1]!r}", 1, "format version")

    num_variables = tokens.count("VAR", "after VER section", "variables")
    variable_names: list[str] = []
    while len(variable_names) < num_variables:
        variable_names += tokens.take(min(num_variables - len(variable_names), _PAIRS_PER_TAKE))
        if not variable_names[-1]:
            raise tokens.ended("variable name")

    num_integers = tokens.count("INT", "after VAR section", "integer variables")
    # Past num_variables indices one repeats or is out of range, so the
    # checks below fail within the first num_variables + 1.
    tokens.take(min(num_integers, num_variables + 1))
    integer_set: set[int] = set()
    for position in range(len(tokens.row)):
        index = tokens.natural(position, "integer variable index", upper=num_variables)
        if index in integer_set:
            raise tokens.error(f"duplicate integer variable index {index}", position)
        integer_set.add(index)

    row = tokens.take(3)
    tokens.expect(0, "OBJ", "after INT section")
    try:
        objective_sense = ObjectiveSense(row[1])
    except ValueError:
        message = f"expected 'min' or 'max', found {row[1]!r}"
        raise tokens.error(message, 1, "objective sense") from None
    length = tokens.natural(2, "objective length")
    objective = _take_pairs(tokens, length, num_variables, "objective")[0]

    num_constraints = tokens.count("CON", "after OBJ section", "constraints")
    seen: set[str] = set()
    constraints = tuple(_take_row(tokens, num_variables, seen) for _ in range(num_constraints))
    names = tuple(variable_names)
    return Problem(names, frozenset(integer_set), objective, objective_sense, constraints)


def _parse_goal(tokens: _Tokens) -> RtpGoal:
    row = tokens.take(2)
    tokens.expect(0, "RTP", "after CON section")
    if row[1] == "infeas":
        return InfeasibleGoal()
    if row[1] != "range":
        raise tokens.error(f"expected 'infeas' or 'range', found {row[1]!r}", 1, "goal kind")
    row = tokens.take(2)
    lower = None if row[0] == "-inf" else tokens.rational(0, "range lower bound")
    upper = None if row[1] == "inf" else tokens.rational(1, "range upper bound")
    try:
        return RangeGoal(lower, upper)
    except ValueError as exc:
        raise tokens.error(str(exc)) from exc


def _take_row(
    tokens: _Tokens, width: int, seen: set[str], own_index: int = -1
) -> Constraint | Derivation:
    """``<name> G|L|E <rhs> <sparse>``, a constraint row whose name must be
    new; or, given its ``own_index``, a derivation row, which goes on with
    ``{ <reason> } <last_use>``."""
    derived = own_index >= 0
    what = "derivation" if derived else "constraint"
    row = tokens.take(4)
    name = row[0]
    if not name:
        raise tokens.ended(f"{what} name")
    sense = _SENSES.get(row[1])
    if sense is None:
        message = f"unknown sense code {row[1]!r} (expected G, L, or E)"
        raise tokens.error(message, 1, f"{what} sense")
    try:  # the checks of tokens.rational, .natural and .expect, inlined
        rhs = parse_rational(row[2])
    except ValueError as exc:
        raise tokens.rational_error(2, what, " right-hand side", exc) from exc
    lhs = _LEFT_HAND_SIDES[what]
    length = row[3]
    if not (length.isascii() and length.isdigit()):
        raise tokens.natural_error(3, lhs, " length", None)
    line = tokens.line  # where an empty left-hand side ends
    vector, at = _take_pairs(tokens, int_from_digits(length), width, lhs, 3 if derived else 0)
    if name in seen:
        message = f"duplicate constraint name {name!r}"
        raise tokens.error(message, at - 1) if at else ParseError(message, line)
    seen.add(name)
    constraint = Constraint(name, sense, vector, rhs)
    if not derived:
        return constraint

    row = tokens.row
    if row[at] != "{":
        tokens.expect(at, "{", "before derivation reason")
    keyword = row[at + 1]
    reason: Reason
    terms = _TERMS.get(keyword)
    if terms is not None:
        count = row[at + 2]
        if not (count.isascii() and count.isdigit()):
            raise tokens.natural_error(at + 2, "combination terms", "", None)
        count = int_from_digits(count)
        reason, brace = _take_pairs(tokens, count, own_index, "combination", 2, terms)
    elif keyword == "asm":
        tokens.expect(at + 2, "}", "after derivation reason")
        reason, brace = Asm(), -1  # its "}" sat in the head; last_use is taken next
        tokens.take(1)
    elif keyword == "uns":
        i1 = tokens.natural(at + 2, "unsplit row reference", upper=own_index)
        tokens.take(5)
        rest = [  # a1, i2 and a2
            tokens.natural(k, f"unsplit {part} reference", upper=own_index)
            for k, part in enumerate(("assumption", "row", "assumption"))
        ]
        reason, brace = Uns(i1, *rest), 3
    else:
        message = f"unknown reason keyword {keyword!r}"
        raise tokens.error(message, at + 1, "reason keyword")
    row = tokens.row
    if brace >= 0 and row[brace] != "}":
        tokens.expect(brace, "}", "after derivation reason")
    position = brace + 1
    token = row[position]
    if token == "-1":
        return Derivation(constraint, reason, KEEP_UNTIL_END)
    if not (token.isascii() and token.isdigit()):
        raise tokens.error(f"expected an integer last_use, found {token!r}", position, "last_use")
    last_use = int_from_digits(token)
    if last_use <= own_index:
        message = f"last_use {last_use} must be -1 or greater than the row's own index {own_index}"
        raise tokens.error(message, position)
    return Derivation(constraint, reason, last_use)


def _expect_end(tokens: _Tokens, section: str) -> None:
    extra = tokens.take(1)[0]
    if extra:
        raise tokens.error(f"trailing tokens after the {section} section: {extra!r}")


def parse_certificate(source: Iterable[str] | TextIO) -> Iterator[Event]:
    """Stream events from certificate text: the Header, solutions, derivations.

    Raises :class:`ParseError` (with a 1-based line number) on any grammar or
    invariant violation. The Header comes once the SOL count is read; each
    solution and derivation is yielded as parsed and never retained here. The
    generator returns after checking that nothing follows the DER section.
    """
    tokens = _Tokens(source)
    problem = _parse_problem_sections(tokens)
    goal = _parse_goal(tokens)
    num_variables = problem.num_variables

    num_solutions = tokens.count("SOL", "after RTP section", "solutions")
    if isinstance(goal, InfeasibleGoal) and num_solutions != 0:
        raise tokens.error("an infeasibility goal admits no solutions (SOL must be 0)")
    yield Header(problem, goal)
    seen_solution_names: set[str] = set()
    for _ in range(num_solutions):
        name = tokens.take(2)[0]
        if not name:
            raise tokens.ended("solution name")
        if name in seen_solution_names:
            raise tokens.error(f"duplicate solution name {name!r}", 0)
        seen_solution_names.add(name)
        length = tokens.natural(1, "solution length")
        yield Solution(name, _take_pairs(tokens, length, num_variables, "solution")[0])

    num_derivations = tokens.count("DER", "after SOL section", "derivations")
    seen_names = {constraint.name for constraint in problem.constraints}
    num_original = problem.num_constraints
    for own_index in range(num_original, num_original + num_derivations):
        yield _take_row(tokens, num_variables, seen_names, own_index)

    _expect_end(tokens, "DER")


def read_certificate(source: Iterable[str] | TextIO) -> Certificate:
    """Parse certificate text into an in-memory :class:`Certificate`."""
    header, events = split_header(parse_certificate(source))
    solutions: list[Solution] = []
    derivations: list[Derivation] = []
    for event in events:
        if isinstance(event, Solution):
            solutions.append(event)
        else:
            derivations.append(event)
    return Certificate(header.problem, header.goal, tuple(solutions), tuple(derivations))


def split_header(source: Certificate | Iterable[Event]) -> tuple[Header, Iterator[Event]]:
    """The header of a certificate or parsed event stream, and the events after it as they
    would parse. Raises ValueError when a stream does not start with a Header, or is empty."""
    if isinstance(source, Certificate):
        return Header(source.problem, source.goal), chain(source.solutions, source.derivations)
    events = iter(source)
    header = next(events, None)
    if not isinstance(header, Header):
        msg = "event stream has no header"
        raise ValueError(msg)
    return header, events


def parse_problem(source: Iterable[str] | TextIO) -> Problem:
    """Parse a problem file: the VER/VAR/INT/OBJ/CON sections only."""
    tokens = _Tokens(source)
    problem = _parse_problem_sections(tokens)
    _expect_end(tokens, "CON")
    return problem


def _format_pairs(pairs: SparseVec | tuple[tuple[int, Number], ...]) -> str:
    """``k i1 v1 ... ik vk``, the pairs as :func:`_take_pairs` reads them."""
    parts = [str(len(pairs))]
    for index, value in pairs:
        parts.append(str(index))
        parts.append(format_rational(value))
    return " ".join(parts)


def _format_reason(reason: Reason) -> str:
    if isinstance(reason, Asm):
        return "{ asm }"
    if isinstance(reason, (Lin, Rnd)):
        keyword = "lin" if isinstance(reason, Lin) else "rnd"
        return f"{{ {keyword} {_format_pairs(reason.terms)} }}"
    return f"{{ uns {reason.i1} {reason.a1} {reason.i2} {reason.a2} }}"


def _constraint_line(constraint: Constraint) -> str:
    return (
        f"{constraint.name} {constraint.sense.value} "
        f"{format_rational(constraint.rhs)} {_format_pairs(constraint.lhs)}"
    )


def write_problem(problem: Problem, sink: TextIO) -> None:
    """Write a problem file: the VER/VAR/INT/OBJ/CON sections only."""
    sink.write("VER 1\n")
    sink.write(f"VAR {problem.num_variables}\n")
    if problem.variable_names:
        sink.write(" ".join(problem.variable_names) + "\n")
    sink.write(f"INT {len(problem.integer_set)}\n")
    if problem.integer_set:
        sink.write(" ".join(str(index) for index in sorted(problem.integer_set)) + "\n")
    sink.write(f"OBJ {problem.objective_sense.value}\n")
    sink.write(_format_pairs(problem.objective) + "\n")
    sink.write(f"CON {problem.num_constraints}\n")
    for constraint in problem.constraints:
        sink.write(_constraint_line(constraint) + "\n")


def write_certificate(
    certificate: Certificate, sink: TextIO, rows: tuple[int, Iterable[Derivation]] | None = None
) -> None:
    """Write a certificate in canonical form; re-parsing yields an equal value.
    ``rows`` (a count, then that many rows, written as they arrive) replaces its own."""
    count, derivations = rows or (len(certificate.derivations), certificate.derivations)
    write_problem(certificate.problem, sink)
    goal = certificate.goal
    if isinstance(goal, InfeasibleGoal):
        sink.write("RTP infeas\n")
    else:
        lower, upper = format_bounds(goal)
        sink.write(f"RTP range {lower} {upper}\n")
    sink.write(f"SOL {len(certificate.solutions)}\n")
    for solution in certificate.solutions:
        sink.write(f"{solution.name} {_format_pairs(solution.assignment)}\n")
    sink.write(f"DER {count}\n")
    for derivation in derivations:
        sink.write(
            f"{_constraint_line(derivation.constraint)} "
            f"{_format_reason(derivation.reason)} {format_rational(derivation.last_use)}\n"
        )
