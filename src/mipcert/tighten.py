"""Certificate tightening: last-use indices and dead-derivation pruning.

``compute_last_use`` scans every derivation's references and stamps each
derivation with the largest index of any later derivation that references it
(or -1 when never referenced), so the checker can evict rows early and keep
peak memory at the number of simultaneously live rows. Original constraints
carry no last-use slot and are never evicted.

``prune_unused`` keeps exactly the derivations backward-reachable from the
goal-proving empty-assumption derivations (through combination terms and all
four unsplit references), found by one backward sweep over the derivations,
renumbers the combined index space contiguously, rewrites references, and
recomputes last-use indices. It is defined only for certificates that verify.

``tighten`` composes the two; the result is idempotent and verification-
preserving, and replaying the checker with eviction on a tightened
certificate never touches an evicted row.
"""

from __future__ import annotations

from dataclasses import replace

from .checker import verify_certificate
from .model import (
    KEEP_UNTIL_END,
    Certificate,
    Derivation,
    Lin,
    Reason,
    Rnd,
    Uns,
)

__all__ = ["compute_last_use", "prune_unused", "tighten"]


def _references(reason: Reason) -> tuple[int, ...]:
    if isinstance(reason, (Lin, Rnd)):
        return tuple(index for index, _ in reason.terms)
    if isinstance(reason, Uns):
        return (reason.i1, reason.a1, reason.i2, reason.a2)
    return ()


def _renumbered(reason: Reason, new_index: list[int]) -> Reason:
    """``reason`` with every reference ``r`` replaced by ``new_index[r]``."""
    if isinstance(reason, Uns):
        return Uns(*(new_index[r] for r in _references(reason)))
    if isinstance(reason, (Lin, Rnd)):
        return type(reason)(tuple((new_index[r], mult) for r, mult in reason.terms))
    return reason


def compute_last_use(certificate: Certificate) -> Certificate:
    """Fill in every derivation's last_use; all other content is unchanged.

    A derivation's last_use becomes the largest combined index among the
    derivations referencing it, or -1 when nothing references it.
    """
    num_original = certificate.num_original
    last_use = [KEEP_UNTIL_END] * len(certificate.derivations)
    for position, derivation in enumerate(certificate.derivations):
        own_index = num_original + position
        for reference in _references(derivation.reason):
            if reference >= num_original:
                target = reference - num_original
                last_use[target] = max(last_use[target], own_index)
    derivations = tuple(
        replace(derivation, last_use=last_use[position])
        for position, derivation in enumerate(certificate.derivations)
    )
    return replace(certificate, derivations=derivations)


def prune_unused(certificate: Certificate) -> Certificate:
    """Drop derivations not needed for the goal proof; renumber the rest.

    Keeps the derivations backward-reachable from all goal-proving
    empty-assumption derivations, marked in one backward sweep, rewrites
    references into the compacted combined index space with
    :func:`_renumbered`, and recomputes last_use. Raises ValueError when the
    certificate does not verify (pruning is only defined for valid input).
    """
    report = verify_certificate(certificate)
    if not report.verified:
        failure = report.failure
        msg = f"cannot prune a certificate that does not verify ({failure.rule}: {failure.message})"
        raise ValueError(msg)

    # References point backwards, so a row's mark is final when the sweep reaches it.
    num_original = certificate.num_original
    needed = set(report.goal_proven_by)
    for index in reversed(range(num_original, certificate.num_rows)):
        if index in needed:
            needed.update(_references(certificate.derivations[index - num_original].reason))

    # A dropped row's entry in new_index is never read: no kept row cites it.
    new_index = list(range(num_original))
    derivations = []
    for index, derivation in enumerate(certificate.derivations, num_original):
        new_index.append(num_original + len(derivations))
        if index in needed:
            reason = _renumbered(derivation.reason, new_index)
            derivations.append(Derivation(derivation.constraint, reason))
    pruned = replace(certificate, derivations=tuple(derivations))
    return compute_last_use(pruned)


def tighten(certificate: Certificate, *, prune: bool = False) -> Certificate:
    """Tighten a certificate: optional pruning, then last-use fill-in."""
    if prune:
        return prune_unused(certificate)
    return compute_last_use(certificate)
