"""Certificate tightening: last-use indices and dead-derivation pruning.

Both run one plan. :func:`_schedule` sweeps the references once and gives each
derivation its last use, the index of the last later row citing it (-1: none);
original constraints are never evicted. ``prune_unused`` verifies with each
last use set to the earlier of the row's own hint and the computed one, so
the checker evicts as the tightened file will, while an early hint still
evicts before a later reference and the verdict and failure message stay the
input's own. It marks each goal-proving row as it is checked, and one
backward sweep marks the rows these reach (through combination terms and all
four unsplit references); the kept rows are renumbered contiguously, and a
reference to no row (possible only in memory) stays as it is. Each output
derivation is built once, sharing the input's constraint, and its reason when
no reference moves, by one generator, so ``ttn`` writes each row as it is
built. The result is idempotent and verification-preserving.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import chain

from .checker import CheckerState, Rejection
from .model import KEEP_UNTIL_END, Certificate, Derivation, Lin, Reason, Rnd, Uns, replace

__all__ = ["compute_last_use", "prune_unused", "tighten", "tightened_rows"]


def _references(reason: Reason) -> tuple[int, ...]:
    if isinstance(reason, (Lin, Rnd)):
        return tuple(index for index, _ in reason.terms)
    if isinstance(reason, Uns):
        return (reason.i1, reason.a1, reason.i2, reason.a2)
    return ()


def _renumbered(reason: Reason, new_index: array) -> Reason:
    """``reason`` with every reference ``r`` to a row replaced by ``new_index[r]``."""
    references = _references(reason)
    moved = tuple(new_index[r] if 0 <= r < len(new_index) else r for r in references)
    if moved == references:
        return reason
    if isinstance(reason, Uns):
        return Uns(*moved)
    return type(reason)(tuple(zip(moved, (mult for _, mult in reason.terms))))


def _schedule(certificate: Certificate, kept: bytearray | None = None) -> tuple[array, array]:
    """Each row's index once unkept derivations are dropped (None keeps all), and
    each derivation's last use among kept rows, counting only later rows' citations."""
    num_original = certificate.num_original
    new_index = array("q", range(num_original))
    last_use = array("q", [KEEP_UNTIL_END]) * len(certificate.derivations)
    count = num_original
    for own, derivation in enumerate(certificate.derivations, num_original):
        new_index.append(count)
        if kept is None or kept[own - num_original]:
            for reference in _references(derivation.reason):
                if num_original <= reference < own:
                    last_use[reference - num_original] = count
            count += 1
    return new_index, last_use


def _rebuilt(certificate: Certificate, kept: bytearray | None = None) -> Iterator[Derivation]:
    new_index, last_use = _schedule(certificate, kept)
    for position, d in enumerate(certificate.derivations):
        if kept is None or kept[position]:
            yield Derivation(d.constraint, _renumbered(d.reason, new_index), last_use[position])


def compute_last_use(certificate: Certificate) -> Certificate:
    """Fill in every derivation's last_use; all other content is unchanged."""
    return replace(certificate, derivations=tuple(_rebuilt(certificate)))


def _earlier(hint: int, computed: int) -> int:
    """The earlier of two last uses, where -1 (none) is never the earlier."""
    return computed if hint == KEEP_UNTIL_END or KEEP_UNTIL_END < computed < hint else hint


def _kept(certificate: Certificate) -> bytearray:
    """Mark the derivations the goal proof needs; ValueError unless it verifies."""
    scheduled = (
        Derivation(derivation.constraint, derivation.reason, _earlier(derivation.last_use, last))
        for derivation, last in zip(certificate.derivations, _schedule(certificate)[1])
    )
    num_original = certificate.num_original
    kept = bytearray(len(certificate.derivations))
    state = CheckerState(certificate.problem, certificate.goal)
    try:
        for index in state.run(chain(certificate.solutions, scheduled)):
            kept[index - num_original] = 1
    except Rejection as rejection:
        failure = rejection.failure
        msg = f"cannot prune a certificate that does not verify ({failure.rule}: {failure.message})"
        raise ValueError(msg) from rejection
    del state

    # References point backwards, so a row's mark is final when the sweep reaches it.
    for position in reversed(range(len(kept))):
        if kept[position]:
            for reference in _references(certificate.derivations[position].reason):
                if reference >= num_original:
                    kept[reference - num_original] = 1
    return kept


def prune_unused(certificate: Certificate) -> Certificate:
    """Drop derivations the goal proof does not need; ValueError unless it verifies."""
    return replace(certificate, derivations=tuple(_rebuilt(certificate, _kept(certificate))))


def tightened_rows(
    certificate: Certificate, *, prune: bool = False
) -> tuple[int, Iterator[Derivation]]:
    """How many rows :func:`tighten` keeps and a generator of them; pruning verifies first."""
    kept = _kept(certificate) if prune else None
    count = len(certificate.derivations) if kept is None else kept.count(1)
    return count, _rebuilt(certificate, kept)


def tighten(certificate: Certificate, *, prune: bool = False) -> Certificate:
    """Tighten a certificate: optional pruning, then last-use fill-in."""
    return prune_unused(certificate) if prune else compute_last_use(certificate)
