"""Last-use computation, pruning, and their interaction with the checker."""

from __future__ import annotations

import importlib

import pytest
from conftest import (
    GOLDEN_NAMES,
    chain_lines,
    described_derivations,
    goal_reachable,
    goal_rows,
    load_golden,
)

from mipcert.certfile import read_certificate
from mipcert.checker import CheckerState, verify_certificate
from mipcert.model import (
    KEEP_UNTIL_END,
    Asm,
    Certificate,
    Constraint,
    Derivation,
    Lin,
    Reason,
    Rnd,
    Sense,
    SparseVec,
    Uns,
    replace,
)
from mipcert.numeric import Rational as R
from mipcert.tighten import compute_last_use, prune_unused, tighten


def strip_last_use(certificate: Certificate) -> Certificate:
    derivations = tuple(
        replace(derivation, last_use=KEEP_UNTIL_END)
        for derivation in certificate.derivations
    )
    return replace(certificate, derivations=derivations)


def inject_junk(
    certificate: Certificate, position: int, junk: tuple[Derivation, ...]
) -> Certificate:
    """Insert derivations at `position`, shifting later references up."""
    cut = certificate.num_original + position
    width = len(junk)

    def shift(reference: int) -> int:
        return reference + width if reference >= cut else reference

    def shift_reason(reason: Reason) -> Reason:
        if isinstance(reason, (Lin, Rnd)):
            terms = tuple((shift(ref), mult) for ref, mult in reason.terms)
            return Lin(terms) if isinstance(reason, Lin) else Rnd(terms)
        if isinstance(reason, Uns):
            return Uns(shift(reason.i1), shift(reason.a1), shift(reason.i2), shift(reason.a2))
        return reason

    head = certificate.derivations[:position]
    tail = tuple(
        replace(derivation, reason=shift_reason(derivation.reason))
        for derivation in certificate.derivations[position:]
    )
    spliced = replace(certificate, derivations=head + junk + tail)
    return strip_last_use(spliced)


def fig_junk() -> tuple[Derivation, ...]:
    """Three dead rows for the split_infeasible golden, spliced in at
    position 4 (combined indices 7-9): an assumption nothing discharges, a
    scaled copy of an original row, and a combination leaning on a real row.
    """
    unused_assumption = Derivation(
        Constraint("J1", Sense.LE, SparseVec(((0, R(1)),)), R(100)), Asm()
    )
    scaled_original = Derivation(
        Constraint("J2", Sense.GE, SparseVec(((0, R(4)), (1, R(6)))), R(2)),
        Lin(((0, R(2)),)),
    )
    leaning_on_real = Derivation(
        Constraint("J3", Sense.GE, SparseVec(((0, R(4)), (1, R(6)))), R(3)),
        Lin(((6, R(1)), (8, R(1)))),
    )
    return (unused_assumption, scaled_original, leaning_on_real)


FIG_SCHEDULE = (13, 13, 12, 12, 12, 12, 10, 11, 13, 13, -1)


class TestComputeLastUse:
    def test_split_infeasible_schedule(self) -> None:
        tight = compute_last_use(load_golden("split_infeasible"))
        assert tuple(d.last_use for d in tight.derivations) == FIG_SCHEDULE

    def test_rounding_chain_schedule(self) -> None:
        tight = compute_last_use(load_golden("rounding_chain"))
        assert tuple(d.last_use for d in tight.derivations) == (3, 4, 5, -1)

    def test_unreferenced_goal_row_is_kept_until_end(self) -> None:
        tight = compute_last_use(load_golden("small_range"))
        assert tight.derivations[0].last_use == KEEP_UNTIL_END

    def test_only_last_use_changes(self) -> None:
        certificate = load_golden("split_infeasible")
        tight = compute_last_use(certificate)
        assert strip_last_use(tight) == strip_last_use(certificate)

    def test_idempotent(self) -> None:
        tight = compute_last_use(load_golden("split_infeasible"))
        assert compute_last_use(tight) == tight

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_eviction_replay_verifies_with_lower_peak(self, name: str) -> None:
        certificate = load_golden(name)
        baseline = verify_certificate(certificate)
        tight = compute_last_use(certificate)
        replay = verify_certificate(tight)
        assert replay.verified
        assert goal_rows(tight) == goal_rows(certificate)
        assert replay.stats.peak_live <= baseline.stats.peak_live

    def test_tightened_peaks_are_exact(self) -> None:
        peaks = {
            name: verify_certificate(compute_last_use(load_golden(name))).stats.peak_live
            for name in GOLDEN_NAMES
        }
        assert peaks == {"small_range": 3, "rounding_chain": 4, "split_infeasible": 11}

    @pytest.mark.parametrize(
        ("row", "reason", "message"),
        [
            (13, Uns(-1, 4, 12, 3), "reference to row -1, which is not an earlier row"),
            (6, Lin(((99, R(1)),)), "reference to row 99, which is not an earlier row"),
        ],
        ids=("uns-minus-one", "lin-ninety-nine"),
    )
    def test_reference_to_no_row_is_kept_as_given(self, row: int, reason, message) -> None:
        # Only an in-memory certificate can cite a row outside [0, rows); the
        # tightened one must cite it unchanged and be rejected as the input is.
        golden = load_golden("split_infeasible")
        derivations = list(golden.derivations)
        position = row - golden.num_original
        derivations[position] = replace(derivations[position], reason=reason)
        certificate = replace(golden, derivations=tuple(derivations))
        tight = compute_last_use(certificate)
        assert tight.derivations[position].reason == reason
        failure = verify_certificate(certificate).failure
        assert (failure.index, failure.message) == (row, message)
        assert verify_certificate(tight).failure == failure


class TestPrune:
    def test_fully_reachable_certificate_survives_intact(self) -> None:
        certificate = load_golden("split_infeasible")
        assert prune_unused(certificate) == compute_last_use(certificate)

    def test_injected_junk_is_fully_removed(self) -> None:
        certificate = load_golden("split_infeasible")
        spliced = inject_junk(certificate, 4, fig_junk())
        assert verify_certificate(spliced).verified
        assert len(spliced.derivations) == 14
        pruned = prune_unused(spliced)
        assert len(pruned.derivations) == 11
        assert {d.constraint.name for d in pruned.derivations}.isdisjoint({"J1", "J2", "J3"})
        assert pruned == prune_unused(certificate)

    def test_kept_rows_match_a_fixpoint_reachability(self) -> None:
        spliced = inject_junk(load_golden("split_infeasible"), 4, fig_junk())
        expected = described_derivations(spliced, goal_reachable(spliced))
        assert described_derivations(prune_unused(spliced)) == expected

    def test_prune_is_idempotent(self) -> None:
        spliced = inject_junk(load_golden("split_infeasible"), 4, fig_junk())
        once = prune_unused(spliced)
        assert prune_unused(once) == once

    def test_prune_preserves_verdict_and_lowers_peak(self) -> None:
        spliced = inject_junk(load_golden("split_infeasible"), 4, fig_junk())
        baseline = verify_certificate(spliced)
        pruned = prune_unused(spliced)
        replay = verify_certificate(pruned)
        assert baseline.verified and replay.verified
        assert replay.stats.peak_live <= baseline.stats.peak_live

    def test_prune_requires_a_verifying_certificate(self) -> None:
        certificate = load_golden("small_range")
        broken_row = replace(
            certificate.derivations[0],
            constraint=replace(certificate.derivations[0].constraint, rhs=R(2)),
        )
        broken = replace(certificate, derivations=(broken_row,))
        with pytest.raises(ValueError, match="cannot prune"):
            prune_unused(broken)

    def test_verifies_on_the_tightened_schedule(self, monkeypatch) -> None:
        # Every hint of the raw chain is -1, so a check on the file's own
        # hints keeps all 2,001 rows live; the tightened schedule keeps 3.
        states = []

        class Recording(CheckerState):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                states.append(self)

        tighten_module = importlib.import_module("mipcert.tighten")
        monkeypatch.setattr(tighten_module, "CheckerState", Recording)
        certificate = read_certificate(iter(chain_lines(2_000)))
        pruned = prune_unused(certificate)
        assert len(states) == 1 and states[0].goal_proven
        assert states[0].stats.num_derivations == 2_000
        assert states[0].stats.peak_live <= 3
        assert verify_certificate(certificate).stats.peak_live == 2_001
        assert pruned == compute_last_use(certificate)

    def test_junk_with_empty_assumptions_is_still_dead(self) -> None:
        # J2 has an empty assumption set but proves nothing (it is not
        # absurd), so reachability from the goal rows must drop it.
        spliced = inject_junk(load_golden("split_infeasible"), 4, fig_junk())
        assert goal_rows(spliced) == (16,)


class TestTighten:
    def test_default_keeps_every_derivation(self) -> None:
        spliced = inject_junk(load_golden("split_infeasible"), 4, fig_junk())
        tight = tighten(spliced)
        assert len(tight.derivations) == len(spliced.derivations)
        assert tight == compute_last_use(spliced)

    def test_prune_flag_routes_to_pruning(self) -> None:
        spliced = inject_junk(load_golden("split_infeasible"), 4, fig_junk())
        assert tighten(spliced, prune=True) == prune_unused(spliced)

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    @pytest.mark.parametrize("prune", (False, True))
    def test_tighten_preserves_verification(self, name: str, prune: bool) -> None:
        tight = tighten(load_golden(name), prune=prune)
        assert verify_certificate(tight).verified
