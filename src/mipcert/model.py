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

from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from itertools import chain, pairwise
from math import gcd
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
    "format_bounds",
    "format_constraint",
    "format_linear",
    "is_absurd",
    "linear_combine",
    "replace",
    "round_constraint",
    "satisfies",
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


# For the per-row rules: ``Sense.GE`` goes through EnumType's __getattr__ hook.
_GE, _LE, _EQ = Sense.GE, Sense.LE, Sense.EQ


class ObjectiveSense(Enum):
    """Optimization direction of the problem objective."""

    MIN = "min"
    MAX = "max"


class _Record:
    """Base of the immutable records, whose fields are their ``__slots__``.

    Assigning or deleting a field raises AttributeError. A record equals only
    a record of its own type with equal fields, hashes by its fields and does
    not order. Records built once per certificate row have constructors of
    their own; this one takes fields by position or name, or ``_defaults``.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        fields = {**self._defaults, **kwargs, **dict(zip(names, args))}
        repeated = not kwargs.keys().isdisjoint(names[: len(args)])
        if len(args) > len(names) or repeated or fields.keys() != set(names):
            msg = f"{type(self).__name__}() takes the fields ({', '.join(names)})"
            raise TypeError(msg)
        for name in names:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def replace(record: _Record, **changes: object) -> _Record:
    """``record`` with some fields changed, rebuilt through its constructor, so
    its invariants are checked again."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def _validated_pairs(
    pairs: Iterable[tuple[int, Number]], sequence: str, zero: str
) -> tuple[tuple[int, Number], ...]:
    """``pairs`` as a tuple of tuples, with strictly increasing indices and no
    zero value; else a ValueError at the first pair that breaks this, which
    calls the indices ``sequence`` ones and says ``zero`` before the index."""
    pairs = tuple(pairs)  # the argument itself when it is a tuple
    normal = True
    previous = -1
    for pair in pairs:
        index, value = pair
        if index <= previous:
            msg = f"{sequence} indices not strictly increasing at index {index}"
            raise ValueError(msg)
        if value == 0:
            msg = f"{zero} {index}"
            raise ValueError(msg)
        previous = index
        normal = normal and type(pair) is tuple
    return pairs if normal else tuple((index, value) for index, value in pairs)


class SparseVec(_Record):
    """Sparse rational vector: (index, coefficient) pairs.

    Indices are strictly increasing and no zero coefficient is ever stored,
    so equality of values is structural equality of entries.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, Number]]) -> None:
        _set_entries(self, _validated_pairs(entries, "sparse", "zero coefficient stored at index"))

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


# The per-row records fill their slots through the slots' own setters, which
# skip the raising __setattr__ and cost less than object.__setattr__.
_set_entries = SparseVec.entries.__set__


class Constraint(_Record):
    """A named linear constraint ``lhs sense rhs``."""

    __slots__ = ("name", "sense", "lhs", "rhs")

    def __init__(self, name: str, sense: Sense, lhs: SparseVec, rhs: Number) -> None:
        _set_name(self, name)
        _set_sense(self, sense)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)


_set_name, _set_sense, _set_lhs, _set_rhs = (
    member.__set__ for member in (Constraint.name, Constraint.sense, Constraint.lhs, Constraint.rhs)
)


class Problem(_Record):
    """The mixed-integer linear program a certificate talks about."""

    __slots__ = ("variable_names", "integer_set", "objective", "objective_sense", "constraints")
    variable_names: tuple[str, ...]
    integer_set: frozenset[int]
    objective: SparseVec
    objective_sense: ObjectiveSense
    constraints: tuple[Constraint, ...]

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
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


class Asm(_Record):
    """Reason: the row is introduced as an assumption, without proof."""

    __slots__ = ()
    __init__ = object.__init__  # no fields to take: skip the generic constructor


class Lin(_Record):
    """Reason: the row follows from a linear combination of earlier rows.

    ``terms`` maps combined row indices to rational multipliers; indices are
    strictly increasing and multipliers nonzero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, Number]]) -> None:
        _set_lin_terms(self, _validated_pairs(terms, "combination", "zero multiplier on row"))


class Rnd(_Record):
    """Reason: linear combination followed by right-hand-side rounding."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, Number]]) -> None:
        _set_rnd_terms(self, _validated_pairs(terms, "combination", "zero multiplier on row"))


class Uns(_Record):
    """Reason: two rows proved under a complementary assumption pair merge.

    ``i1``/``i2`` are the rows proved under assumptions ``a1``/``a2``
    respectively; the assumptions form a split disjunction and are discharged.
    """

    __slots__ = ("i1", "a1", "i2", "a2")

    def __init__(self, i1: int, a1: int, i2: int, a2: int) -> None:
        _set_i1(self, i1)
        _set_a1(self, a1)
        _set_i2(self, i2)
        _set_a2(self, a2)


_set_lin_terms, _set_rnd_terms = Lin.terms.__set__, Rnd.terms.__set__
_set_i1, _set_a1, _set_i2, _set_a2 = (member.__set__ for member in (Uns.i1, Uns.a1, Uns.i2, Uns.a2))
Reason = Union[Asm, Lin, Rnd, Uns]


class Derivation(_Record):
    """A derived constraint, the reason it holds, and its last-use index.

    ``last_use`` is the combined index of the last later derivation that
    references this row, or ``KEEP_UNTIL_END`` (-1) when unknown/never — the
    checker may evict the row from memory once the referencing derivation has
    been processed.
    """

    __slots__ = ("constraint", "reason", "last_use")

    def __init__(
        self, constraint: Constraint, reason: Reason, last_use: int = KEEP_UNTIL_END
    ) -> None:
        if last_use < KEEP_UNTIL_END:
            msg = f"invalid last_use {last_use}"
            raise ValueError(msg)
        _set_constraint(self, constraint)
        _set_reason(self, reason)
        _set_last_use(self, last_use)


_set_constraint, _set_reason, _set_last_use = (
    member.__set__ for member in (Derivation.constraint, Derivation.reason, Derivation.last_use)
)


class InfeasibleGoal(_Record):
    """Goal: prove the problem has no feasible point."""

    __slots__ = ()


class RangeGoal(_Record):
    """Goal: prove the optimal objective value lies in [lower, upper].

    ``None`` bounds mean -infinity (lower) / +infinity (upper).
    """

    __slots__ = ("lower", "upper")
    lower: Number | None
    upper: Number | None

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            msg = "range lower bound exceeds upper bound"
            raise ValueError(msg)


RtpGoal = Union[InfeasibleGoal, RangeGoal]


class Solution(_Record):
    """A claimed feasible point, sparse over the problem variables."""

    __slots__ = ("name", "assignment")
    name: str
    assignment: SparseVec


class Certificate(_Record):
    """Problem data, goal, claimed solutions, and the derivation list.

    Combined index space: original constraint ``j`` has index ``j``;
    derivation ``k`` has index ``num_original + k``. Row names are unique, as are solution names;
    of several repeated names, the error names the least.
    """

    __slots__ = ("problem", "goal", "solutions", "derivations")
    _defaults = {"solutions": (), "derivations": ()}
    problem: Problem
    goal: RtpGoal
    solutions: tuple[Solution, ...]
    derivations: tuple[Derivation, ...]

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        rows = chain(self.problem.constraints, (row.constraint for row in self.derivations))
        for what, records in (("constraint", rows), ("solution", self.solutions)):
            names = sorted(record.name for record in records)  # a list: less memory than a set
            for name, following in pairwise(names):
                if name == following:
                    raise ValueError(f"duplicate {what} name {name!r}")

    @property
    def num_original(self) -> int:
        return self.problem.num_constraints


#: An assumption set: combined indices of the Asm rows a row depends on, increasing.
AssumptionSet = tuple[int, ...]


def _sign_ok(row_sense: Sense, sign: int, target: Sense) -> bool:
    """May a row of ``row_sense`` enter a ``target`` combination with a
    multiplier of this ``sign``? Callers pass the multiplier's numerator: a
    denominator is always positive, so the numerator has the value's sign."""
    if target is _EQ:
        return row_sense is _EQ
    if row_sense is _EQ:
        return True
    return sign >= 0 if row_sense is target else sign <= 0


def _reduced(numerator: int, denominator: int) -> Number:
    """``numerator/denominator`` (denominator > 1) as an int when integral."""
    if numerator % denominator == 0:
        return numerator // denominator
    return Rational(numerator, denominator)


def linear_combine(terms: Sequence[tuple[Constraint, Number]], target_sense: Sense) -> Constraint:
    """Combine constraints with multipliers into one constraint of the target sense.

    Sign discipline: deriving a >=-row requires multipliers >= 0 on >=-rows
    and <= 0 on <=-rows (free on =-rows); deriving a <=-row mirrors the signs;
    deriving an =-row requires every participating row to be an equality.
    Raises RuleViolation identifying the first offending term.

    The sum runs on Python ints. Each output coefficient and the right-hand
    side is kept as an unreduced ``[numerator, denominator]`` pair times
    ``scale``, the lcm of the multipliers' denominators so far, which a new
    denominator raises by rescaling every sum; so a pair's denominator is the
    lcm of its coefficients'. Each entry is reduced once, at the end, over
    ``scale``: to an ``int`` when integral, else a :data:`Rational`, dropping
    entries that cancel to zero. The entries are then sorted and nonzero, so
    the result's vector skips the validating :class:`SparseVec` constructor.
    """
    sums: dict[int, list[int]] = {}
    rhs_numerator, rhs_denominator = 0, 1
    scale = 1
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
        if scale % m_denominator:
            grow = m_denominator // gcd(scale, m_denominator)
            scale *= grow
            for pair in sums.values():
                pair[0] *= grow
            rhs_numerator *= grow
        m_numerator *= scale // m_denominator
        for index, coeff in constraint.lhs.entries:
            numerator = m_numerator * coeff.numerator
            denominator = coeff.denominator
            pair = sums.get(index)
            if pair is None:
                sums[index] = [numerator, denominator]
            elif pair[1] == denominator:
                pair[0] += numerator
            else:
                grow = denominator // gcd(pair[1], denominator)
                pair[1] *= grow  # the lcm of the two denominators
                pair[0] = pair[0] * grow + numerator * (pair[1] // denominator)
        rhs = constraint.rhs
        numerator = m_numerator * rhs.numerator
        denominator = rhs.denominator
        if denominator == rhs_denominator:
            rhs_numerator += numerator
        else:
            grow = denominator // gcd(rhs_denominator, denominator)
            rhs_denominator *= grow
            rhs_numerator = rhs_numerator * grow + numerator * (rhs_denominator // denominator)
    entries = []
    for index, (numerator, denominator) in sums.items():
        if numerator:
            denominator *= scale
            value = numerator if denominator == 1 else _reduced(numerator, denominator)
            entries.append((index, value))
    entries.sort()  # by index, as the indices differ
    lhs = object.__new__(SparseVec)
    _set_entries(lhs, tuple(entries))
    rhs_denominator *= scale
    rhs = rhs_numerator if rhs_denominator == 1 else _reduced(rhs_numerator, rhs_denominator)
    return Constraint("_combined", target_sense, lhs, rhs)


def round_constraint(constraint: Constraint, integer_set: frozenset[int]) -> Constraint:
    """Round the right-hand side: up for >=-rows, down for <=-rows.

    Sound only when every nonzero coefficient is integral and sits on an
    integer variable; raises RuleViolation otherwise, and for =-rows.
    """
    if constraint.sense is _EQ:
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
    if constraint.sense is _GE:
        rhs = rational_ceil(constraint.rhs)
    else:
        rhs = rational_floor(constraint.rhs)
    return Constraint(constraint.name, constraint.sense, constraint.lhs, rhs)


def is_absurd(constraint: Constraint) -> bool:
    """True iff the constraint is unsatisfiable with an empty left-hand side."""
    if constraint.lhs.entries:
        return False
    if constraint.sense is _GE:
        return constraint.rhs > 0
    if constraint.sense is _LE:
        return constraint.rhs < 0
    return constraint.rhs != 0


def dominates(stronger: Constraint, weaker: Constraint) -> bool:
    """True iff ``stronger`` syntactically implies ``weaker``.

    Identical left-hand side with an equal-or-stronger right-hand side (in the
    weaker row's direction), or ``stronger`` is an absurdity, which dominates
    everything. The first case is the common one, so it is tested first.
    """
    if stronger.lhs.entries == weaker.lhs.entries:
        sense = weaker.sense
        if sense is _GE:
            if stronger.sense is not _LE and stronger.rhs >= weaker.rhs:
                return True
        elif sense is _LE:
            if stronger.sense is not _GE and stronger.rhs <= weaker.rhs:
                return True
        elif stronger.sense is _EQ and stronger.rhs == weaker.rhs:
            return True
    return is_absurd(stronger)


def check_disjunction_pair(
    first: Constraint, second: Constraint, integer_set: frozenset[int]
) -> bool:
    """True iff the two constraints form a split disjunction pair.

    One must read ``a^T x <= delta`` and the other ``a^T x >= delta + 1`` (in
    either order) with identical ``a``, integral ``delta``, and every nonzero
    coefficient integral and on an integer variable — so every point that is
    integral on the integer variables satisfies at least one of the two.
    """
    if {first.sense, second.sense} != {_LE, _GE}:
        return False
    lower, upper = (first, second) if first.sense is _LE else (second, first)
    if lower.lhs.entries != upper.lhs.entries:
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


def format_constraint(constraint: Constraint, variable_names: Sequence[str] | None = None) -> str:
    """Render a constraint as a conventional inequality, e.g. ``2x + y >= 1``.

    The left-hand side is written by :func:`format_linear`.
    """
    lhs_text = format_linear(constraint.lhs, variable_names)
    return f"{lhs_text} {_SENSE_TEXT[constraint.sense]} {format_rational(constraint.rhs)}"


def format_bounds(goal: RangeGoal) -> tuple[str, str]:
    """A range goal's lower and upper bound as text; ``-inf``/``inf`` when absent."""
    lower = "-inf" if goal.lower is None else format_rational(goal.lower)
    upper = "inf" if goal.upper is None else format_rational(goal.upper)
    return lower, upper


def satisfies(constraint: Constraint, point: Mapping[int, Number]) -> bool:
    """True iff ``point`` meets the constraint exactly (missing coordinates are 0)."""
    activity = constraint.lhs.evaluate(point)
    if constraint.sense is _GE:
        return activity >= constraint.rhs
    if constraint.sense is _LE:
        return activity <= constraint.rhs
    return activity == constraint.rhs


def evaluate_solution(problem: Problem, solution: Solution) -> tuple[bool, Number]:
    """Exact feasibility and objective value of a claimed solution.

    Feasible iff every constraint holds exactly and every integer variable's
    value is integral; the objective value is returned either way.
    """
    point = dict(solution.assignment.entries)
    feasible = all(satisfies(constraint, point) for constraint in problem.constraints)
    if feasible:
        for index in problem.integer_set:
            value = point.get(index)
            if value is not None and not is_integral(value):
                feasible = False
                break
    return feasible, problem.objective.evaluate(point)
