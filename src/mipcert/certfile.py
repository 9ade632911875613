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
has ended cleanly. It holds at most ``_BATCH`` derivations, parsed in a run
ahead of its consumer, so arbitrarily long certificates can be verified in
bounded memory. Every parse error comes after the rows before it and carries
the 1-based line number where it was detected. The order and nonzero rules of
a sparse vector or a combination are enforced by the model's constructors
once the whole vector has been read, so their errors carry the line where the
vector ends.

Each row is read from one token list with a running position: its line's
tokens, joined with later lines' only when the row runs past the line's end.
Fields are checked once, in file order, inline for a row's own fields; error
text is built, by the checks and builders of ``_Tokens``, only when one fails.
Rows of one parse whose short left-hand sides have the same tokens share one record.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable, Iterator, Sequence
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

#: The tokens of a left-hand side of at most 8 pairs, from its count on, by the count. One parse
#: shares at most _SHARED such vectors, each of at most _SHARED characters, by their tokens.
_SHORT_SPANS = {str(pairs): 2 * pairs + 1 for pairs in range(9)}
_SHARED = 256
_ASM = Asm()  # the reason of every asm row
#: Derivations parsed in a run before any of them is yielded, so that the parser and its consumer
#: each take rows in a run on a warm cache. The parser holds at most this many events.
_BATCH = 64


class _Tokens:
    """Whitespace tokens over lines: :attr:`row`, the current line's, is read from :attr:`at`,
    and a read past its end joins later lines on. The checks below take positions in ``row``."""

    def __init__(self, lines: Iterable[str]) -> None:
        self._lines = iter(lines)
        self._row_lines: list[int] | None = None  # each token's line, once the row spans lines
        self.row: list[str] = []
        self.at = 0
        self.line = 0
        self.vectors: dict[str, SparseVec] = {}  # the shared left-hand sides, by their tokens
        self.ends: set[str] = set()  # their last tokens: a row whose vector ends otherwise misses

    def take(self, n: int) -> tuple[list[str], int]:
        """The row and the position in it of the next ``n`` tokens, which are then passed."""
        if self.at + n > len(self.row):
            self.join(self.at, n)
        self.at += n
        return self.row, self.at - n

    def join(self, at: int, n: int) -> list[str]:
        """Drop the row's tokens before ``at``, join lines on until it holds ``n`` (ending it with
        ``""``, which no check accepts, if the input ends first) and return it, read from 0 on."""
        row = lines = None  # the tokens from ``at`` on and their lines, when any are left
        if at < len(self.row):
            row = self.row[at:]
            lines = self._row_lines[at:] if self._row_lines else [self.line] * len(row)
        for raw in self._lines:
            self.line += 1
            comment_start = raw.find("%")
            tokens = (raw if comment_start == -1 else raw[:comment_start]).split()
            if not row:
                if len(tokens) >= n:  # the line alone is the row
                    self.row, self.at, self._row_lines = tokens, 0, None
                    return tokens
                row, lines = [], []
            row += tokens
            lines += [self.line] * len(tokens)
            if len(row) >= n:
                break
        else:  # the input ended first
            row, lines = (row or []) + [""], (lines or []) + [self.line]
        self.row, self.at, self._row_lines = row, 0, lines if lines[0] != self.line else None
        return row

    def error(self, message: str, position: int = -1, what: str = "") -> ParseError:
        """``message`` at the line of ``row[position]``, by default the line read last;
        or, at the ``""`` past the end of input, the end of input while reading ``what``."""
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
            digits = token.lstrip("0")  # by its length first: a long token is never converted
            value = int(digits or "0") if len(digits) < 19 else 10**18  # more than any input holds
            if upper is None or value < upper:
                return value
        raise self.natural_error(position, what, part, upper)

    def natural_error(self, position: int, what: str, part: str, upper: int | None) -> ParseError:
        token = self.row[position]
        if token.isascii() and token.isdigit():
            value = token.lstrip("0") or "0"  # as format_rational writes it, in linear time
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
        row, at = self.take(2)
        self.expect(at, keyword, context)
        return self.natural(at + 1, what)


#: For :func:`_take_pairs`: the record built, its errors' name ("": the vector's), field names.
_ENTRIES = (SparseVec, "", " length", " variable index", " coefficient")
_TERMS = {
    "lin": (Lin, "lin reason", " terms", " row index", " multiplier"),
    "rnd": (Rnd, "rnd reason", " terms", " row index", " multiplier"),
}


def _take_pairs(
    tokens: _Tokens, at: int, upper: int, what: str, kind: tuple = _ENTRIES
) -> tuple[SparseVec | Lin | Rnd, int]:
    """``k i1 v1 ... ik vk`` from ``tokens.row[at]`` on: a count, then pairs of an index below
    ``upper`` and a rational, named ``what`` plus the parts in ``kind``. Returns the record
    ``kind`` builds of them (its ValueError reported at the last token) and the next position."""
    row = tokens.row
    end = at + 1 + 2 * tokens.natural(at, what, kind[2])  # a long count, by its length
    pairs: list[tuple[int, Number]] = []
    at += 1
    while True:
        stop = end
        if stop > len(row):  # join the rest, a bounded take at a time
            stop = min(end - at, 2 * _PAIRS_PER_TAKE)
            row, end, at = tokens.join(at, stop), end - at, 0
        for position in range(at, stop, 2):  # tokens.natural and .rational, inlined
            token = row[position]
            try:
                index = int(token) if token.isascii() and token.isdigit() else upper
            except ValueError:  # too long for int(), so far beyond any row or variable count
                index = upper
            if index >= upper:
                raise tokens.natural_error(position, what, kind[3], upper)
            try:
                pairs.append((index, parse_rational(row[position + 1])))
            except ValueError as exc:
                raise tokens.rational_error(position + 1, what, kind[4], exc) from exc
        if stop == end:
            break
        at = stop
    tokens.at = end
    try:
        return kind[0](pairs), end
    except ValueError as exc:
        raise tokens.error(f"{kind[1] or what}: {exc}", end - 1) from exc


def _parse_problem_sections(tokens: _Tokens) -> Problem:
    row, at = tokens.take(2)
    tokens.expect(at, "VER", "at start of file")
    if row[at + 1] != "1":
        raise tokens.error(f"unsupported format version {row[at + 1]!r}", at + 1, "format version")

    num_variables = tokens.count("VAR", "after VER section", "variables")
    variable_names: list[str] = []
    while len(variable_names) < num_variables:
        row, at = tokens.take(min(num_variables - len(variable_names), _PAIRS_PER_TAKE))
        variable_names += row[at : tokens.at]
        if not variable_names[-1]:
            raise tokens.ended("variable name")

    num_integers = tokens.count("INT", "after VAR section", "integer variables")
    # Past num_variables indices one repeats or is out of range, so the
    # checks below fail within the first num_variables + 1.
    row, at = tokens.take(min(num_integers, num_variables + 1))
    integer_set: set[int] = set()
    for position in range(at, tokens.at):
        index = tokens.natural(position, "integer variable index", upper=num_variables)
        if index in integer_set:
            raise tokens.error(f"duplicate integer variable index {index}", position)
        integer_set.add(index)

    row, at = tokens.take(3)
    tokens.expect(at, "OBJ", "after INT section")
    try:
        objective_sense = ObjectiveSense(row[at + 1])
    except ValueError:
        message = f"expected 'min' or 'max', found {row[at + 1]!r}"
        raise tokens.error(message, at + 1, "objective sense") from None
    objective = _take_pairs(tokens, at + 2, num_variables, "objective")[0]

    num_constraints = tokens.count("CON", "after OBJ section", "constraints")
    seen: set[str] = set()
    constraints = tuple(_take_row(tokens, num_variables, seen) for _ in range(num_constraints))
    names = tuple(variable_names)
    return Problem(names, frozenset(integer_set), objective, objective_sense, constraints)


def _parse_goal(tokens: _Tokens) -> RtpGoal:
    row, at = tokens.take(2)
    tokens.expect(at, "RTP", "after CON section")
    if row[at + 1] == "infeas":
        return InfeasibleGoal()
    if row[at + 1] != "range":
        message = f"expected 'infeas' or 'range', found {row[at + 1]!r}"
        raise tokens.error(message, at + 1, "goal kind")
    row, at = tokens.take(2)
    lower = None if row[at] == "-inf" else tokens.rational(at, "range lower bound")
    upper = None if row[at + 1] == "inf" else tokens.rational(at + 1, "range upper bound")
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
    what = "derivation" if own_index >= 0 else "constraint"
    row, at = tokens.row, tokens.at
    if at + 4 > len(row):
        row, at = tokens.join(at, 4), 0
    name = row[at]
    if not name:
        raise tokens.ended(f"{what} name")
    sense = _SENSES.get(row[at + 1])
    if sense is None:
        message = f"unknown sense code {row[at + 1]!r} (expected G, L, or E)"
        raise tokens.error(message, at + 1, f"{what} sense")
    try:  # the checks of tokens.rational, .natural and .expect, inlined
        rhs = parse_rational(row[at + 2])
    except ValueError as exc:
        raise tokens.rational_error(at + 2, what, " right-hand side", exc) from exc
    end = at + 3 + _SHORT_SPANS.get(row[at + 3], 0)  # past a short vector, else at its start
    key = vector = None  # no key is built for a vector that can be neither found nor stored
    if end <= len(row) and (row[end - 1] in tokens.ends or len(tokens.vectors) < _SHARED):
        key = " ".join(row[at + 3 : end])
        vector = tokens.vectors.get(key)
    if vector is not None:
        at = tokens.at = end
    else:  # so every error is _take_pairs'; the tokens of a stored key parsed without one
        vector, at = _take_pairs(tokens, at + 3, width, _LEFT_HAND_SIDES[what])
        if key and len(tokens.vectors) < _SHARED and len(key) <= _SHARED:
            tokens.vectors[key] = vector
            tokens.ends.add(row[end - 1])
    if name in seen:  # reported at the vector's last token, or at its length when empty
        raise tokens.error(f"duplicate constraint name {name!r}", at - 1)
    seen.add(name)
    constraint = Constraint(name, sense, vector, rhs)
    if own_index < 0:
        return constraint

    row = tokens.row
    if at + 3 > len(row):
        row, at = tokens.join(at, 3), 0
    if row[at] != "{":
        tokens.expect(at, "{", "before derivation reason")
    keyword = row[at + 1]
    reason: Reason
    terms = _TERMS.get(keyword)
    if terms is not None:
        reason, at = _take_pairs(tokens, at + 2, own_index, "combination", terms)
        row = tokens.row
    elif keyword == "asm":
        reason, at = _ASM, at + 2  # its "}" is read with last_use
    elif keyword == "uns":
        references, tokens.at = [], at + 2
        for part in ("row", "assumption", "row", "assumption"):
            row, at = tokens.take(1)
            references.append(tokens.natural(at, f"unsplit {part} reference", upper=own_index))
        reason, at = Uns(*references), at + 1
    else:
        raise tokens.error(f"unknown reason keyword {keyword!r}", at + 1, "reason keyword")
    if at + 2 > len(row):
        row, at = tokens.join(at, 2), 0
    tokens.at = at + 2
    if row[at] != "}":
        tokens.expect(at, "}", "after derivation reason")
    token = row[at + 1]
    if token == "-1":
        return Derivation(constraint, reason, KEEP_UNTIL_END)
    if not (token.isascii() and token.isdigit()):
        raise tokens.error(f"expected an integer last_use, found {token!r}", at + 1, "last_use")
    last_use = int_from_digits(token)
    if last_use <= own_index:
        message = f"last_use {last_use} must be -1 or greater than the row's own index {own_index}"
        raise tokens.error(message, at + 1)
    return Derivation(constraint, reason, last_use)


def _expect_end(tokens: _Tokens, section: str) -> None:
    row, at = tokens.take(1)
    if row[at]:
        raise tokens.error(f"trailing tokens after the {section} section: {row[at]!r}", at)


def _take_front(tokens: _Tokens) -> Generator[Header | Solution, None, Problem]:
    """The sections before DER: their Header once the SOL count is read, then each solution as
    parsed. Returns the problem."""
    problem = _parse_problem_sections(tokens)
    goal = _parse_goal(tokens)
    num_solutions = tokens.count("SOL", "after RTP section", "solutions")
    if isinstance(goal, InfeasibleGoal) and num_solutions != 0:
        raise tokens.error("an infeasibility goal admits no solutions (SOL must be 0)")
    yield Header(problem, goal)
    seen_solution_names: set[str] = set()
    for _ in range(num_solutions):
        row, at = tokens.take(2)
        name = row[at]
        if not name:
            raise tokens.ended("solution name")
        if name in seen_solution_names:
            raise tokens.error(f"duplicate solution name {name!r}", at)
        seen_solution_names.add(name)
        yield Solution(name, _take_pairs(tokens, at + 1, problem.num_variables, "solution")[0])
    return problem


def parse_certificate(source: Iterable[str] | TextIO) -> Iterator[Event]:
    """Stream events from certificate text: the Header, solutions, derivations.

    Raises :class:`ParseError` (with a 1-based line number) on any grammar or
    invariant violation. The Header comes once the SOL count is read; each
    solution is yielded as parsed, and derivations are parsed in runs of up to
    ``_BATCH``, at most that many held here, each run yielded before any error
    that stopped it. The generator returns after checking that nothing follows
    the DER section.
    """
    tokens = _Tokens(source)
    problem = yield from _take_front(tokens)
    num_variables, first = problem.num_variables, problem.num_constraints
    end = first + tokens.count("DER", "after SOL section", "derivations")
    seen_names = {constraint.name for constraint in problem.constraints}
    for start in range(first, end, _BATCH):
        batch = []
        try:  # the rows read are yielded, and then whatever stopped the batch is raised
            for own_index in range(start, min(start + _BATCH, end)):
                batch.append(_take_row(tokens, num_variables, seen_names, own_index))
        finally:
            yield from batch

    _expect_end(tokens, "DER")


def read_certificate(source: Iterable[str] | TextIO) -> Certificate:
    """Parse certificate text into an in-memory :class:`Certificate`."""
    header, events = split_header(parse_certificate(source))
    solutions: list[Solution] = []
    derivations: list[Derivation] = []
    for event in events:
        (solutions if isinstance(event, Solution) else derivations).append(event)
    solutions, derivations = tuple(solutions), tuple(derivations)  # free the lists first
    return Certificate(header.problem, header.goal, solutions, derivations)


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


def _write_front(
    problem: Problem, goal: RtpGoal, solutions: Sequence[Solution], sink: TextIO
) -> None:
    """Write the sections before DER in canonical form."""
    write_problem(problem, sink)
    if isinstance(goal, InfeasibleGoal):
        sink.write("RTP infeas\n")
    else:
        lower, upper = format_bounds(goal)
        sink.write(f"RTP range {lower} {upper}\n")
    sink.write(f"SOL {len(solutions)}\n")
    for solution in solutions:
        sink.write(f"{solution.name} {_format_pairs(solution.assignment)}\n")


def write_certificate(certificate: Certificate, sink: TextIO) -> None:
    """Write a certificate in canonical form; re-parsing yields an equal value."""
    _write_front(certificate.problem, certificate.goal, certificate.solutions, sink)
    sink.write(f"DER {len(certificate.derivations)}\n")
    for derivation in certificate.derivations:
        sink.write(
            f"{_constraint_line(derivation.constraint)} "
            f"{_format_reason(derivation.reason)} {format_rational(derivation.last_use)}\n"
        )
