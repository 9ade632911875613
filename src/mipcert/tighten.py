"""Certificate tightening: last-use indices and dead-derivation pruning.

One plan, over flat arrays: each derivation's references to derivations and where they end.
:func:`_schedule` marks the goal-proving rows and, backwards, every row a kept row cites, then
gives each kept row its new contiguous index and each derivation its last use, the new index of
the last later kept row citing it (-1: none). Original rows are never evicted or moved, and a
reference to no row (possible only in memory) stays as it is. :mod:`mipcert.ttn` runs the same
plan over a file.

``prune_unused`` verifies with each last use the earlier of the row's own hint and the computed
one, so it evicts as the tightened certificate will, while the verdict and failure message stay
the input's own. Each output derivation is built once, sharing the input's constraint, and its
reason when no reference moves. The result is idempotent and verification-preserving.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter, sub

from .certfile import Event
from .checker import CheckerState, Rejection
from .model import KEEP_UNTIL_END, Certificate, Derivation, Lin, Problem, Reason, Rnd, RtpGoal, Uns
from .model import replace

__all__ = ["NotVerified", "compute_last_use", "prune_unused", "tighten"]

_FIRST = itemgetter(0)


class NotVerified(ValueError):
    """Pruning was asked of a certificate that does not verify."""


def _references(reason: Reason) -> Iterable[int]:
    if isinstance(reason, (Lin, Rnd)):
        return map(_FIRST, reason.terms)
    return (reason.i1, reason.a1, reason.i2, reason.a2) if isinstance(reason, Uns) else ()


def _recorded(
    events: Iterable[Event], num_original: int, ends: array, targets: array, solutions: list
) -> Iterator[Event]:
    """``events``, each derivation's references to derivations appended to ``targets`` and
    their end to ``ends``, and each solution to ``solutions``, on the way."""
    derived = num_original.__le__
    for event in events:
        if isinstance(event, Derivation):
            targets.extend(filter(derived, _references(event.reason)))
            ends.append(len(targets))
        else:
            solutions.append(event)
        yield event


def _schedule(
    num_original: int, ends: array, targets: array, goals: bytearray | None = None
) -> tuple[bytearray | None, array, array]:
    """The kept derivations (None: all, else those ``goals`` marks and what kept rows cite),
    each row's index once the rest are dropped, and each derivation's last use among the kept
    rows."""
    count = len(ends)
    cited = map(sub, ends, chain((0,), ends))  # each derivation's number of references
    owners = array("q", chain.from_iterable(map(repeat, range(count), cited)))
    kept, new_index = None, array("q", range(num_original + count))
    if goals is not None:
        kept = goals + bytes(count - len(goals))
        # References point backwards, so a row's mark is final when the sweep reaches it.
        for owner, reference in zip(reversed(owners), reversed(targets)):
            if kept[owner]:
                kept[reference - num_original] = 1
        new_index[num_original:] = array("q", islice(accumulate(kept, initial=num_original), count))
    last_use = array("q", [KEEP_UNTIL_END]) * count
    for owner, reference in zip(owners, targets):
        if (kept is None or kept[owner]) and reference < num_original + owner:
            last_use[reference - num_original] = new_index[num_original + owner]
    return kept, new_index, last_use


def _goal_marks(problem: Problem, goal: RtpGoal, events: Iterable[Event]) -> bytearray:
    """A 1 for each derivation that proves the goal, a 0 for each other up to the last that does;
    NotVerified unless ``events`` verify."""
    marks, first = bytearray(), problem.num_constraints
    try:
        for index in CheckerState(problem, goal).run(events):
            marks += bytes(index - first - len(marks))
            marks.append(1)
    except Rejection as rejection:
        failure = rejection.failure
        msg = f"cannot prune a certificate that does not verify ({failure.rule}: {failure.message})"
        raise NotVerified(msg) from rejection
    return marks


def _earlier(hint: int, computed: int) -> int:
    """The earlier of two last uses, where -1 (none) is never the earlier."""
    return computed if hint == KEEP_UNTIL_END or KEEP_UNTIL_END < computed < hint else hint


def _renumbered(reason: Reason, new_index: array) -> Reason:
    """``reason`` with every reference ``r`` to a row replaced by ``new_index[r]``."""
    references = tuple(_references(reason))
    moved = tuple(new_index[r] if 0 <= r < len(new_index) else r for r in references)
    if moved == references:
        return reason
    if isinstance(reason, Uns):
        return Uns(*moved)
    return type(reason)(tuple(zip(moved, (mult for _, mult in reason.terms))))


def _tightened(certificate: Certificate, prune: bool) -> Certificate:
    num_original, ends, targets, goals = certificate.num_original, array("q"), array("q"), None
    for _ in _recorded(certificate.derivations, num_original, ends, targets, []):
        pass
    if prune:
        last_uses = _schedule(num_original, ends, targets)[2]
        scheduled = (
            Derivation(d.constraint, d.reason, _earlier(d.last_use, last))
            for d, last in zip(certificate.derivations, last_uses)
        )
        events = chain(certificate.solutions, scheduled)
        goals = _goal_marks(certificate.problem, certificate.goal, events)
    kept, new_index, last_use = _schedule(num_original, ends, targets, goals)
    derivations = tuple(
        Derivation(d.constraint, _renumbered(d.reason, new_index), last_use[position])
        for position, d in enumerate(certificate.derivations)
        if kept is None or kept[position]
    )
    return replace(certificate, derivations=derivations)


def compute_last_use(certificate: Certificate) -> Certificate:
    """Fill in every derivation's last_use; all other content is unchanged."""
    return _tightened(certificate, prune=False)


def prune_unused(certificate: Certificate) -> Certificate:
    """Drop derivations the goal proof does not need; ValueError unless it verifies."""
    return _tightened(certificate, prune=True)


def tighten(certificate: Certificate, *, prune: bool = False) -> Certificate:
    """Tighten a certificate: optional pruning, then last-use fill-in."""
    return prune_unused(certificate) if prune else compute_last_use(certificate)
