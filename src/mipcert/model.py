"""Core certificate data model and inference rules.

A certificate claims either infeasibility of a mixed-integer linear program or
an objective-value range, and backs the claim with a sequentially checkable
list of derived constraints. Three inference rules produce derived rows:

* **linear combination** — a weighted sum of earlier rows, with multiplier
  signs disciplined by the target sense (nonnegative on >=-rows and
  nonpositive on <=-rows when deriving a >=-row, mirrored for <=, all rows
  equalities when deriving an equality);
* **rounding** — when a >=/<= combination has integer coefficients supported
  only on integer variables, its right-hand side may be rounded up/down;
* **unsplitting** — two rows proved under complementary assumptions
  ``a^T x <= delta`` / ``a^T x >= delta + 1`` (a split disjunction every
  integer point satisfies) merge into one row free of that case split.

Rows live in a single combined index space: original constraint ``j`` has
index ``j`` (``0 <= j < m``) and derivation ``k`` has index ``m + k``.
Acceptance of a derived row is by *domination*: the computed row must have the
identical left-hand side with an equal-or-stronger right-hand side, or be an
absurdity (``0 >= 1`` and sense mirrors), which dominates everything.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .numeric import (
    Number,
    Rational,
    format_rational,
    is_integral,
    rational_ceil,
    rational_floor,
)

__all__ = [
    "Asm",
    "AssumptionSet",
    "Certificate",
    "Constraint",
    "Derivation",
    "InfeasibleGoal",
    "KEEP_UNTIL_END",
    "Lin",
    "ObjectiveSense",
    "Problem",
    "RangeGoal",
    "Reason",
    "Rnd",
    "RtpGoal",
    "RuleViolation",
    "Sense",
    "Solution",
    "SparseVec",
    "Uns",
    "check_disjunction_pair",
    "dominates",
    "evaluate_solution",
    "format_constraint",
    "format_linear",
    "is_absurd",
    "linear_combine",
    "round_constraint",
]

#: Sentinel last_use value: the row is never evicted before the end.
KEEP_UNTIL_END = -1


class RuleViolation(ValueError):
    """An inference rule's precondition is violated (bad sign, bad rounding, ...)."""


class Sense(Enum):
    """Direction of a linear constraint."""

    GE = "G"
    LE = "L"
    EQ = "E"


class ObjectiveSense(Enum):
    """Optimization direction of the problem objective."""

    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class SparseVec:
    """Sparse rational vector: (index, coefficient) pairs.

    Indices are strictly increasing and no zero coefficient is ever stored,
    so equality of values is structural equality of entries.
    """

    entries: tuple[tuple[int, Number], ...]

    def __post_init__(self) -> None:
        entries = tuple((index, coeff) for index, coeff in self.entries)
        object.__setattr__(self, "entries", entries)
        previous = -1
        for index, coeff in entries:
            if index <= previous:
                msg = f"sparse indices not strictly increasing at index {index}"
                raise ValueError(msg)
            if coeff == 0:
                msg = f"zero coefficient stored at index {index}"
                raise ValueError(msg)
            previous = index

    @classmethod
    def from_dict(cls, coefficients: Mapping[int, Number]) -> SparseVec:
        """Build from an index->coefficient mapping, dropping zeros."""
        return cls(
            tuple(
                (index, coefficients[index])
                for index in sorted(coefficients)
                if coefficients[index] != 0
            )
        )

    def __iter__(self) -> Iterator[tuple[int, Number]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def max_index(self) -> int:
        """Largest index with a nonzero coefficient, or -1 if empty."""
        return self.entries[-1][0] if self.entries else -1

    def evaluate(self, point: Mapping[int, Number]) -> Number:
        """Dot product against a sparse point (missing coordinates are 0)."""
        total = 0
        for index, coeff in self.entries:
            value = point.get(index)
            if value is not None:
                total += coeff * value
        return total


@dataclass(frozen=True)
class Constraint:
    """A named linear constraint ``lhs sense rhs``."""

    name: str
    sense: Sense
    lhs: SparseVec
    rhs: Number


@dataclass(frozen=True)
class Problem:
    """The mixed-integer linear program a certificate talks about."""

    variable_names: tuple[str, ...]
    integer_set: frozenset[int]
    objective: SparseVec
    objective_sense: ObjectiveSense
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        n = len(self.variable_names)
        for index in self.integer_set:
            if not 0 <= index < n:
                msg = f"integer variable index {index} out of range for {n} variables"
                raise ValueError(msg)
        for where, vec in self._indexed_vectors():
            if vec.entries and vec.max_index() >= n:
                msg = f"variable index {vec.max_index()} in {where} out of range for {n} variables"
                raise ValueError(msg)

    def _indexed_vectors(self) -> Iterator[tuple[str, SparseVec]]:
        yield "objective", self.objective
        for constraint in self.constraints:
            yield f"constraint {constraint.name!r}", constraint.lhs

    @property
    def num_variables(self) -> int:
        return len(self.variable_names)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class Asm:
    """Reason: the row is introduced as an assumption, without proof."""


@dataclass(frozen=True)
class Lin:
    """Reason: the row follows from a linear combination of earlier rows.

    ``terms`` maps combined row indices to rational multipliers; indices are
    strictly increasing and multipliers nonzero.
    """

    terms: tuple[tuple[int, Number], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        _validate_terms(self.terms)


@dataclass(frozen=True)
class Rnd:
    """Reason: linear combination followed by right-hand-side rounding."""

    terms: tuple[tuple[int, Number], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        _validate_terms(self.terms)


@dataclass(frozen=True)
class Uns:
    """Reason: two rows proved under a complementary assumption pair merge.

    ``i1``/``i2`` are the rows proved under assumptions ``a1``/``a2``
    respectively; the assumptions form a split disjunction and are discharged.
    """

    i1: int
    a1: int
    i2: int
    a2: int


Reason = Union[Asm, Lin, Rnd, Uns]


def _validate_terms(terms: tuple[tuple[int, Number], ...]) -> None:
    previous = -1
    for index, multiplier in terms:
        if index <= previous:
            msg = f"combination indices not strictly increasing at index {index}"
            raise ValueError(msg)
        if multiplier == 0:
            msg = f"zero multiplier on row {index}"
            raise ValueError(msg)
        previous = index


@dataclass(frozen=True)
class Derivation:
    """A derived constraint, the reason it holds, and its last-use index.

    ``last_use`` is the combined index of the last later derivation that
    references this row, or ``KEEP_UNTIL_END`` (-1) when unknown/never — the
    checker may evict the row from memory once the referencing derivation has
    been processed.
    """

    constraint: Constraint
    reason: Reason
    last_use: int = KEEP_UNTIL_END

    def __post_init__(self) -> None:
        if self.last_use < KEEP_UNTIL_END:
            msg = f"invalid last_use {self.last_use}"
            raise ValueError(msg)


@dataclass(frozen=True)
class InfeasibleGoal:
    """Goal: prove the problem has no feasible point."""


@dataclass(frozen=True)
class RangeGoal:
    """Goal: prove the optimal objective value lies in [lower, upper].

    ``None`` bounds mean -infinity (lower) / +infinity (upper).
    """

    lower: Number | None
    upper: Number | None

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            msg = "range lower bound exceeds upper bound"
            raise ValueError(msg)


RtpGoal = Union[InfeasibleGoal, RangeGoal]


@dataclass(frozen=True)
class Solution:
    """A claimed feasible point, sparse over the problem variables."""

    name: str
    assignment: SparseVec


@dataclass(frozen=True)
class Certificate:
    """Problem data, goal, claimed solutions, and the derivation list.

    Combined index space: original constraint ``j`` has index ``j``;
    derivation ``k`` has index ``num_original + k``.
    """

    problem: Problem
    goal: RtpGoal
    solutions: tuple[Solution, ...] = ()
    derivations: tuple[Derivation, ...] = ()

    @property
    def num_original(self) -> int:
        return self.problem.num_constraints

    @property
    def num_rows(self) -> int:
        """Total rows in the combined index space."""
        return self.num_original + len(self.derivations)

    def constraint_at(self, index: int) -> Constraint:
        """The constraint at a combined index (original or derived)."""
        if index < self.num_original:
            return self.problem.constraints[index]
        return self.derivations[index - self.num_original].constraint


#: An assumption set: combined indices of the Asm rows a row depends on.
AssumptionSet = frozenset


def _sign_ok(row_sense: Sense, sign: int, target: Sense) -> bool:
    """May a row of ``row_sense`` enter a ``target`` combination with a
    multiplier of this ``sign``? Callers pass the multiplier's numerator: a
    denominator is always positive, so the numerator has the value's sign."""
    if target == Sense.EQ:
        return row_sense == Sense.EQ
    if row_sense == Sense.EQ:
        return True
    if row_sense == (Sense.GE if target == Sense.GE else Sense.LE):
        return sign >= 0
    return sign <= 0


def _reduced(numerator: int, denominator: int) -> Number:
    """``numerator/denominator`` (denominator > 0) as an int when integral."""
    if denominator == 1:
        return numerator
    if numerator % denominator == 0:
        return numerator // denominator
    return Rational(numerator, denominator)


def linear_combine(
    terms: Sequence[tuple[Constraint, Number]],
    target_sense: Sense,
    name: str = "_combined",
) -> Constraint:
    """Combine constraints with multipliers into one constraint of the target sense.

    Sign discipline: deriving a >=-row requires multipliers >= 0 on >=-rows
    and <= 0 on <=-rows (free on =-rows); deriving a <=-row mirrors the signs;
    deriving an =-row requires every participating row to be an equality.
    Raises RuleViolation identifying the first offending term.

    The sum runs on Python ints: each output coefficient and the right-hand
    side is kept as an unreduced ``[numerator, denominator]`` pair, adding
    numerators when the denominators match and cross-multiplying otherwise.
    Each entry is reduced once, at the end, to an ``int`` when integral and
    to a :data:`Rational` otherwise; entries that cancel to zero are dropped.
    """
    sums: dict[int, list[int]] = {}
    rhs_numerator, rhs_denominator = 0, 1
    for position, (constraint, multiplier) in enumerate(terms):
        m_numerator = multiplier.numerator
        if not _sign_ok(constraint.sense, m_numerator, target_sense):
            msg = (
                f"term {position} ({constraint.name!r}): multiplier "
                f"{format_rational(multiplier)} is not suitable for a "
                f"{constraint.sense.name} row in a {target_sense.name} combination"
            )
            raise RuleViolation(msg)
        if not m_numerator:
            continue
        m_denominator = multiplier.denominator
        for index, coeff in constraint.lhs.entries:
            numerator = m_numerator * coeff.numerator
            denominator = m_denominator * coeff.denominator
            pair = sums.get(index)
            if pair is None:
                sums[index] = [numerator, denominator]
            elif pair[1] == denominator:
                pair[0] += numerator
            else:
                pair[0] = pair[0] * denominator + numerator * pair[1]
                pair[1] *= denominator
        rhs = constraint.rhs
        numerator = m_numerator * rhs.numerator
        denominator = m_denominator * rhs.denominator
        if denominator == rhs_denominator:
            rhs_numerator += numerator
        else:
            rhs_numerator = rhs_numerator * denominator + numerator * rhs_denominator
            rhs_denominator *= denominator
    entries = tuple(
        (index, _reduced(pair[0], pair[1]))
        for index, pair in sorted(sums.items())
        if pair[0]
    )
    return Constraint(
        name, target_sense, SparseVec(entries), _reduced(rhs_numerator, rhs_denominator)
    )


def round_constraint(constraint: Constraint, integer_set: frozenset[int]) -> Constraint:
    """Round the right-hand side: up for >=-rows, down for <=-rows.

    Sound only when every nonzero coefficient is integral and sits on an
    integer variable; raises RuleViolation otherwise, and for =-rows.
    """
    if constraint.sense == Sense.EQ:
        msg = "rounding applies only to >= or <= constraints"
        raise RuleViolation(msg)
    for index, coeff in constraint.lhs:
        if index not in integer_set:
            msg = f"rounding requires integer variables only; variable {index} is continuous"
            raise RuleViolation(msg)
        if not is_integral(coeff):
            msg = (
                f"rounding requires integral coefficients; variable {index} "
                f"has coefficient {format_rational(coeff)}"
            )
            raise RuleViolation(msg)
    if constraint.sense == Sense.GE:
        rhs = rational_ceil(constraint.rhs)
    else:
        rhs = rational_floor(constraint.rhs)
    return Constraint(constraint.name, constraint.sense, constraint.lhs, rhs)


def is_absurd(constraint: Constraint) -> bool:
    """True iff the constraint is unsatisfiable with an empty left-hand side."""
    if not constraint.lhs.is_zero:
        return False
    if constraint.sense == Sense.GE:
        return constraint.rhs > 0
    if constraint.sense == Sense.LE:
        return constraint.rhs < 0
    return constraint.rhs != 0


def dominates(stronger: Constraint, weaker: Constraint) -> bool:
    """True iff ``stronger`` syntactically implies ``weaker``.

    Identical left-hand side with an equal-or-stronger right-hand side (in the
    weaker row's direction), or ``stronger`` is an absurdity, which dominates
    everything.
    """
    if is_absurd(stronger):
        return True
    if stronger.lhs != weaker.lhs:
        return False
    if weaker.sense == Sense.GE:
        if stronger.sense not in (Sense.GE, Sense.EQ):
            return False
        return stronger.rhs >= weaker.rhs
    if weaker.sense == Sense.LE:
        if stronger.sense not in (Sense.LE, Sense.EQ):
            return False
        return stronger.rhs <= weaker.rhs
    return stronger.sense == Sense.EQ and stronger.rhs == weaker.rhs


def check_disjunction_pair(
    first: Constraint, second: Constraint, integer_set: frozenset[int]
) -> bool:
    """True iff the two constraints form a split disjunction pair.

    One must read ``a^T x <= delta`` and the other ``a^T x >= delta + 1`` (in
    either order) with identical ``a``, integral ``delta``, and every nonzero
    coefficient integral and on an integer variable — so every point that is
    integral on the integer variables satisfies at least one of the two.
    """
    if {first.sense, second.sense} != {Sense.LE, Sense.GE}:
        return False
    lower, upper = (first, second) if first.sense == Sense.LE else (second, first)
    if lower.lhs != upper.lhs:
        return False
    if not is_integral(lower.rhs) or upper.rhs != lower.rhs + 1:
        return False
    for index, coeff in lower.lhs:
        if index not in integer_set or not is_integral(coeff):
            return False
    return True


_SENSE_TEXT = {Sense.GE: ">=", Sense.LE: "<=", Sense.EQ: "="}


def format_linear(vec: SparseVec, variable_names: Sequence[str] | None = None) -> str:
    """Render a linear expression conventionally, e.g. ``2x + y``.

    Variables are shown by name when ``variable_names`` is given, else as
    ``x<i>``; unit coefficients are elided and an empty expression reads 0.
    """

    def var(index: int) -> str:
        if variable_names is not None and index < len(variable_names):
            return variable_names[index]
        return f"x{index}"

    parts: list[str] = []
    for index, coeff in vec:
        if coeff == 1:
            term = var(index)
        elif coeff == -1:
            term = f"-{var(index)}"
        else:
            term = f"{format_rational(coeff)}{var(index)}"
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f" - {term[1:]}")
        else:
            parts.append(f" + {term}")
    return "".join(parts) if parts else "0"


def format_constraint(
    constraint: Constraint, variable_names: Sequence[str] | None = None
) -> str:
    """Render a constraint as a conventional inequality, e.g. ``2x + y >= 1``.

    The left-hand side is written by :func:`format_linear`.
    """
    lhs_text = format_linear(constraint.lhs, variable_names)
    return f"{lhs_text} {_SENSE_TEXT[constraint.sense]} {format_rational(constraint.rhs)}"


def _satisfies(constraint: Constraint, point: Mapping[int, Number]) -> bool:
    activity = constraint.lhs.evaluate(point)
    if constraint.sense == Sense.GE:
        return activity >= constraint.rhs
    if constraint.sense == Sense.LE:
        return activity <= constraint.rhs
    return activity == constraint.rhs


def evaluate_solution(problem: Problem, solution: Solution) -> tuple[bool, Number]:
    """Exact feasibility and objective value of a claimed solution.

    Feasible iff every constraint holds exactly and every integer variable's
    value is integral; the objective value is returned either way.
    """
    point = dict(solution.assignment.entries)
    feasible = all(_satisfies(constraint, point) for constraint in problem.constraints)
    if feasible:
        for index in problem.integer_set:
            value = point.get(index)
            if value is not None and not is_integral(value):
                feasible = False
                break
    return feasible, problem.objective.evaluate(point)
