"""Streaming verification: verdicts, statistics, assumption sets, rejections."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import (
    DATA_DIR,
    GOLDEN_NAMES,
    certificate_rows,
    chain_lines,
    checked_assumption_sets,
    goal_rows,
    golden_text,
    keep_every_row,
    load_golden,
)

import mipcert
from mipcert.certfile import Header, parse_certificate, read_certificate, split_header
from mipcert.checker import (
    NO_ASSUMPTIONS,
    CheckerState,
    Rejection,
    _goal_test,
    verify_certificate,
    verify_certificate_file,
)
from mipcert.cli import main
from mipcert.model import (
    Asm,
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Problem,
    RangeGoal,
    Rnd,
    Sense,
    Solution,
    SparseVec,
    Uns,
    replace,
)
from mipcert.numeric import Rational as R
from mipcert.tighten import compute_last_use

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded generators)


def verify_lines(lines: list[str]):
    return verify_certificate(parse_certificate(lines))


def recursive_assumption_sets(certificate: Certificate) -> dict[int, frozenset[int]]:
    """Reference recomputation of every derivation's assumption set."""
    sets: dict[int, frozenset[int]] = {
        index: frozenset() for index in range(certificate.num_original)
    }
    for position, derivation in enumerate(certificate.derivations):
        index = certificate.num_original + position
        reason = derivation.reason
        if isinstance(reason, Asm):
            current = frozenset((index,))
        elif isinstance(reason, (Lin, Rnd)):
            current = frozenset().union(*(sets[ref] for ref, _ in reason.terms))
        elif isinstance(reason, Uns):
            current = (sets[reason.i1] - {reason.a1}) | (sets[reason.i2] - {reason.a2})
        else:  # pragma: no cover
            raise AssertionError(reason)
        sets[index] = current
    return {
        index: sets[index]
        for index in range(certificate.num_original, len(sets))
    }


# --- golden certificates ----------------------------------------------------


class TestGoldens:
    def test_small_range(self) -> None:
        report = verify_certificate(load_golden("small_range"))
        assert report.verified and report.failure is None
        assert report.stats.reason_counts == {"asm": 0, "lin": 1, "rnd": 0, "uns": 0}
        assert report.stats.num_derivations == 1
        assert report.stats.num_solutions == 1
        assert report.stats.peak_live == 3
        assert goal_rows(load_golden("small_range")) == (2,)
        assert report.goal == RangeGoal(R(1), R(1))

    def test_rounding_chain(self) -> None:
        report = verify_certificate(load_golden("rounding_chain"))
        assert report.verified
        assert report.stats.reason_counts == {"asm": 0, "lin": 2, "rnd": 2, "uns": 0}
        assert report.stats.peak_live == 6
        assert goal_rows(load_golden("rounding_chain")) == (5,)

    def test_rounding_chain_rounded_rows_land_on_integers(self) -> None:
        certificate = load_golden("rounding_chain")
        rounded = [
            derivation.constraint.rhs
            for derivation in certificate.derivations
            if isinstance(derivation.reason, Rnd)
        ]
        assert rounded == [R(0), R(1)]

    def test_split_infeasible(self) -> None:
        report = verify_certificate(load_golden("split_infeasible"))
        assert report.verified
        assert report.stats.reason_counts == {"asm": 4, "lin": 4, "rnd": 1, "uns": 2}
        assert report.stats.num_solutions == 0
        assert report.stats.peak_live == 14
        assert goal_rows(load_golden("split_infeasible")) == (13,)
        assert report.goal == InfeasibleGoal()

    def test_split_infeasible_assumption_sets(self) -> None:
        certificate = load_golden("split_infeasible")
        index_of = {
            derivation.constraint.name: certificate.num_original + position
            for position, derivation in enumerate(certificate.derivations)
        }

        def named(*names: str) -> frozenset[int]:
            return frozenset(index_of[name] for name in names)

        assert checked_assumption_sets(certificate) == {
            index_of["A1"]: named("A1"),
            index_of["A2"]: named("A2"),
            index_of["A3"]: named("A3"),
            index_of["C4"]: named("A1", "A3"),
            index_of["A4"]: named("A4"),
            index_of["C5"]: named("A1", "A4"),
            index_of["C6"]: named("A2"),
            index_of["C7"]: named("A2"),
            index_of["C8"]: named("A2"),
            index_of["C9"]: named("A1"),
            index_of["C10"]: frozenset(),
        }

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_assumption_sets_match_reference_recomputation(self, name: str) -> None:
        certificate = load_golden(name)
        assert checked_assumption_sets(certificate) == recursive_assumption_sets(certificate)

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_eviction_toggle_changes_nothing_on_goldens(self, name: str) -> None:
        certificate = load_golden(name)
        with_eviction = verify_certificate(certificate)
        without = verify_certificate(keep_every_row(certificate))
        assert with_eviction.verified and without.verified
        assert with_eviction.stats == without.stats  # no last_use set, so equal peaks
        assert goal_rows(certificate) == goal_rows(keep_every_row(certificate))

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_verify_certificate_file(self, name: str) -> None:
        report = verify_certificate_file(str(DATA_DIR / f"{name}.crt"))
        assert report.verified


# --- eviction behavior ------------------------------------------------------


def annotated_rounding_chain() -> Certificate:
    """The rounding-chain golden with tight last-use annotations."""
    certificate = load_golden("rounding_chain")
    last_uses = (3, 4, 5, -1)
    derivations = tuple(
        replace(derivation, last_use=last_use)
        for derivation, last_use in zip(certificate.derivations, last_uses)
    )
    return replace(certificate, derivations=derivations)


class TestEviction:
    def test_eviction_lowers_peak_not_verdict(self) -> None:
        certificate = annotated_rounding_chain()
        with_eviction = verify_certificate(certificate)
        without = verify_certificate(keep_every_row(certificate))
        assert with_eviction.verified and without.verified
        assert with_eviction.stats.peak_live == 4
        assert without.stats.peak_live == 6

    def test_evicting_check_holds_nothing_per_row(self) -> None:
        # Every row of the chain proves the goal, and once tightened each is
        # evicted after the next row, so a check that keeps nothing per row
        # allocates a constant amount however long the chain is.
        certificate = compute_last_use(read_certificate(iter(chain_lines(20_000))))
        tracemalloc.start()
        try:
            report = verify_certificate(certificate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verified
        assert report.stats.peak_live == 3
        assert peak < 100_000

    def test_streamed_check_of_a_fully_live_chain_holds_under_360_bytes_a_row(self) -> None:
        # Every hint is -1, so the check keeps each row; the rows share one left-hand side.
        lines = chain_lines(20_000)
        tracemalloc.start()
        try:
            report = verify_certificate(parse_certificate(iter(lines)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verified
        assert report.stats.peak_live == 20_001
        assert peak < 360 * 20_000
        certificate = read_certificate(iter(lines))
        shared = certificate.problem.constraints[0].lhs
        assert all(derivation.constraint.lhs is shared for derivation in certificate.derivations)

    def test_streamed_check_of_a_kept_tree_holds_under_450_bytes_a_row(self) -> None:
        # Every hint of the split tree is -1, so the check keeps each row and its
        # assumption set. At depth 9 that traced 665 B a row with frozensets and
        # 308 B with sorted tuples.
        lines = workloads.tree_certificate(7, depth=9).text.splitlines()
        tracemalloc.start()
        try:
            report = verify_certificate(parse_certificate(iter(lines)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verified
        assert report.stats.peak_live == 1_804
        assert peak < 450 * report.stats.num_derivations, peak

    def test_reference_to_evicted_row_faults(self) -> None:
        certificate = load_golden("rounding_chain")
        derivations = list(certificate.derivations)
        derivations[0] = replace(derivations[0], last_use=3)
        late_reference = Derivation(
            Constraint("C7", Sense.GE, SparseVec(((1, R(1)),)), R(-1, 2)),
            Lin(((2, R(1)),)),
        )
        derivations.append(late_reference)
        bad = replace(certificate, derivations=tuple(derivations))
        report = verify_certificate(bad)
        assert not report.verified
        assert report.failure.index == 6
        assert report.failure.rule == "lin"
        assert "evicted" in report.failure.message
        # The annotation was the only thing wrong with the certificate, so
        # replaying it without eviction verifies.
        assert verify_certificate(keep_every_row(bad)).verified


# --- targeted rejections ----------------------------------------------------

FIG_LINES = golden_text("split_infeasible").splitlines()


def mutate_fig(lineno: int, replacement: str | None) -> list[str]:
    lines = list(FIG_LINES)
    if replacement is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = replacement
    return lines


class TestRejections:
    def test_dominance_failure_in_rounding(self) -> None:
        lines = mutate_fig(23, "C7 G 2 1 1 1 { rnd 1 9 1 } -1")
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index == 10
        assert report.failure.rule == "rnd"
        assert "does not dominate" in report.failure.message

    def test_sign_discipline_failure(self) -> None:
        lines = mutate_fig(21, "C5 G 1 0 { lin 3 2 -1/3 3 1/3 7 2 } -1")
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index == 8
        assert report.failure.rule == "lin"
        assert "not suitable" in report.failure.message

    def test_goal_never_proven(self) -> None:
        lines = mutate_fig(26, None)
        lines[14] = "DER 10"
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index is None
        assert report.failure.rule == "goal"
        assert report.stats.num_derivations == 10

    def test_weak_bound_passes_rules_but_not_goal(self) -> None:
        lines = golden_text("small_range").splitlines()
        lines[13] = "obj G 1/2 2 0 2 1 1 { lin 2 0 1 1 -1 } -1"
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index is None
        assert report.failure.rule == "goal"

    def test_unsplit_reference_not_an_assumption(self) -> None:
        lines = mutate_fig(25, "C9 G 1 0 { uns 6 6 8 7 } -1")
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index == 12
        assert report.failure.rule == "uns"
        assert "not an assumption" in report.failure.message

    def test_unsplit_pair_not_a_disjunction(self) -> None:
        lines = mutate_fig(25, "C9 G 1 0 { uns 6 5 8 3 } -1")
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index == 12
        assert report.failure.rule == "uns"
        assert "split disjunction" in report.failure.message

    def test_unsplit_branch_missing_dependency(self) -> None:
        lines = mutate_fig(25, "C9 G 1 0 { uns 11 5 8 7 } -1")
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index == 12
        assert report.failure.rule == "uns"
        assert "does not depend on assumption 5" in report.failure.message

    def test_unsplit_branch_must_dominate_stated(self) -> None:
        # Both golden unsplits discharge absurd branches, which dominate
        # everything; a non-absurd branch pair is needed to exercise the
        # dominance check. Here the down branch proves only 2x >= 0, so
        # unsplitting to 2x >= 1 must fail.
        lines = [
            "VER 1 VAR 1 x INT 1 0 OBJ min 0",
            "CON 1 C0 G 0 1 0 1",
            "RTP infeas SOL 0 DER 5",
            "A1 L 0 1 0 1 { asm } -1",
            "A2 G 1 1 0 1 { asm } -1",
            "B1 G 1 1 0 2 { lin 2 0 1 2 1 } -1",
            "B2 G 0 1 0 2 { lin 2 0 3 1 -1 } -1",
            "D G 1 1 0 2 { uns 4 1 3 2 } -1",
        ]
        report = verify_lines(lines)
        assert not report.verified
        assert report.failure.index == 5
        assert report.failure.rule == "uns"
        assert "does not dominate" in report.failure.message

    def test_unsplit_keeps_a_branch_dependence_on_the_other_assumption(self) -> None:
        # B rests on both A1 and A2, and is both branches of D. Each branch
        # sheds only its own assumption, so D still rests on {A1, A2} and
        # cannot prove the feasible problem (x = 0) infeasible.
        lines = [
            "VER 1 VAR 1 x INT 1 0 OBJ min 0",
            "CON 1 C0 G 0 1 0 1",
            "RTP infeas SOL 0 DER 4",
            "A1 L 0 1 0 1 { asm } -1",
            "A2 G 1 1 0 1 { asm } -1",
            "B G 1 0 { lin 2 1 -1 2 1 } -1",
            "D G 1 0 { uns 3 1 3 2 } -1",
        ]
        report = verify_lines(lines)
        assert not report.verified
        assert (report.failure.index, report.failure.rule) == (None, "goal")
        assert report.stats.reason_counts == {"asm": 2, "lin": 1, "rnd": 0, "uns": 1}
        assert checked_assumption_sets(read_certificate(iter(lines)))[4] == {1, 2}

    def test_out_of_order_event_stream(self) -> None:
        certificate = load_golden("small_range")
        state = CheckerState(certificate.problem, certificate.goal)
        with pytest.raises(Rejection) as caught:
            state.verify_derivation(certificate.derivations[0], 5)
        assert (caught.value.failure.index, caught.value.failure.rule) == (5, "order")

    def test_bad_last_use_in_memory(self) -> None:
        certificate = load_golden("small_range")
        derivations = (replace(certificate.derivations[0], last_use=2),)
        report = verify_certificate(replace(certificate, derivations=derivations))
        assert not report.verified
        assert report.failure.rule == "order"
        assert "last_use" in report.failure.message

    def test_unknown_reason_in_memory(self) -> None:
        # A reason that is none of the four, as a hand-made derivation can hold, is rejected.
        certificate = load_golden("small_range")
        derivations = (replace(certificate.derivations[0], reason="lin"),)
        report = verify_certificate(replace(certificate, derivations=derivations))
        assert not report.verified
        failure = report.failure
        assert (failure.index, failure.rule) == (2, "reason")
        assert failure.message == "unknown reason 'lin'"


# --- solutions and primal bounds --------------------------------------------


class TestSolutions:
    def test_infeasible_solution_rejected_with_ordinal(self) -> None:
        certificate = load_golden("small_range")
        bad = replace(certificate, solutions=(Solution("bad", SparseVec(())),))
        report = verify_certificate(bad)
        assert not report.verified
        assert report.failure.index == 0
        assert report.failure.rule == "solution"
        assert "not feasible" in report.failure.message

    def test_fractional_value_on_integer_variable_rejected(self) -> None:
        certificate = load_golden("rounding_chain")
        fractional = Solution("frac", SparseVec(((1, R(3, 2)),)))
        report = verify_certificate(replace(certificate, solutions=(fractional,)))
        assert not report.verified
        assert report.failure.index == 0
        assert report.failure.rule == "solution"

    def test_second_bad_solution_reported_at_ordinal_one(self) -> None:
        certificate = load_golden("small_range")
        good = certificate.solutions[0]
        bad = Solution("bad", SparseVec(()))
        report = verify_certificate(replace(certificate, solutions=(good, bad)))
        assert not report.verified
        assert report.failure.index == 1
        assert report.failure.rule == "solution"

    def test_missing_solution_for_finite_bound(self) -> None:
        certificate = load_golden("small_range")
        report = verify_certificate(replace(certificate, solutions=()))
        assert not report.verified
        assert report.failure.index is None
        assert report.failure.rule == "solution"
        assert "no solution is given" in report.failure.message

    def test_bound_not_met_by_any_solution(self) -> None:
        certificate = load_golden("small_range")
        slack = Solution("far", SparseVec(((0, R(1)), (1, R(1)))))
        report = verify_certificate(replace(certificate, solutions=(slack,)))
        assert not report.verified
        assert report.failure.index is None
        assert report.failure.rule == "solution"
        assert "primal bound" in report.failure.message

    def test_best_of_several_solutions_meets_bound(self) -> None:
        certificate = load_golden("small_range")
        slack = Solution("far", SparseVec(((0, R(1)), (1, R(1)))))
        both = (slack, certificate.solutions[0])
        assert verify_certificate(replace(certificate, solutions=both)).verified

    # max x with x <= 5: the solution x = 5 meets the claimed primal bound, x = 3 does not.
    MAX_HEAD = "VER 1 VAR 1 x INT 0 OBJ max 1 0 1 CON 1 c L 5 1 0 1 RTP range 5 5"
    MAX_DER = "DER 1 obj L 5 1 0 1 { lin 1 0 1 } -1"

    @pytest.mark.parametrize("order", ("lo 1 0 3 hi 1 0 5", "hi 1 0 5 lo 1 0 3"))
    def test_max_ranks_the_larger_value_best(self, order: str) -> None:
        assert verify_lines([self.MAX_HEAD, f"SOL 2 {order}", self.MAX_DER]).verified

    def test_max_bound_not_met_names_the_best_value(self, tmp_path, capsys) -> None:
        path = tmp_path / "lo.crt"
        path.write_text("\n".join([self.MAX_HEAD, "SOL 1 lo 1 0 3", self.MAX_DER]) + "\n")
        assert main(["check", str(path)]) == 1
        expected = "rejected (solution): no solution meets the claimed primal bound 5 (best is 3)\n"
        assert capsys.readouterr().out == expected

    def test_solutions_with_infeasibility_goal_rejected(self) -> None:
        certificate = load_golden("split_infeasible")
        zero = Solution("z", SparseVec(()))
        report = verify_certificate(replace(certificate, solutions=(zero,)))
        assert not report.verified
        assert report.failure.index == 0
        assert report.failure.rule == "solution"
        assert "infeasibility goal" in report.failure.message

    def test_variable_index_past_the_problem_rejected(self) -> None:
        certificate = load_golden("small_range")  # 2 variables; x* with x5 = 1 is still feasible
        point = SparseVec((*certificate.solutions[0].assignment.entries, (5, 1)))
        wide = replace(certificate, solutions=(Solution("s", point),))
        header, rest = split_header(wide)
        for source in (wide, [header, *rest]):
            failure = verify_certificate(source).failure
            assert failure.index == 0
            assert failure.rule == "solution"
            expected = "variable index 5 in solution 's' out of range for 2 variables"
            assert failure.message == expected


# --- goal semantics ----------------------------------------------------------


class TestGoalSemantics:
    def test_vacuous_dual_side_verifies_without_derivations(self) -> None:
        lines = [
            "VER 1 VAR 1 x INT 0 OBJ min 1 0 1",
            "CON 1 C1 G 0 1 0 1",
            "RTP range -inf inf SOL 0 DER 0",
        ]
        report = verify_lines(lines)
        assert report.verified
        assert goal_rows(parse_certificate(lines)) == ()

    def test_vacuous_dual_side_still_requires_primal_bound(self) -> None:
        base = "VER 1 VAR 2 x y INT 0 OBJ min 2 0 2 1 1 " \
               "CON 2 C1 G 2 2 0 5 1 -1 C2 L 1 2 0 3 1 -2 RTP range -inf 1"
        verified = verify_lines([base, "SOL 1 x* 2 0 3/7 1 1/7 DER 0"])
        assert verified.verified
        rejected = verify_lines([base, "SOL 0 DER 0"])
        assert not rejected.verified
        assert rejected.failure.rule == "solution"
        assert rejected.failure.index is None

    def test_max_sense_goal_uses_upper_bound(self) -> None:
        lines = [
            "VER 1 VAR 1 x INT 0 OBJ max 1 0 1",
            "CON 1 C1 L 2 1 0 1",
            "RTP range 2 2",
            "SOL 1 s 1 0 2",
            "DER 1 B L 2 1 0 1 { lin 1 0 1 } -1",
        ]
        report = verify_lines(lines)
        assert report.verified
        assert goal_rows(parse_certificate(lines)) == (1,)

    def test_check_goal_directly(self) -> None:
        problem = load_golden("small_range").problem
        goal = RangeGoal(R(1), R(1))
        exact = Constraint("d", Sense.GE, problem.objective, R(1))
        stronger = Constraint("d", Sense.GE, problem.objective, R(2))
        weaker = Constraint("d", Sense.GE, problem.objective, R(1, 2))
        proves, proves_infeasible = _goal_test(problem, goal), _goal_test(problem, InfeasibleGoal())
        assert proves(exact)
        assert proves(stronger)
        assert not proves(weaker)
        assert proves_infeasible(Constraint("a", Sense.GE, SparseVec(()), R(1)))
        assert not proves_infeasible(exact)
        assert _goal_test(problem, RangeGoal(None, R(1))) is None  # vacuous dual side

    def test_vacuous_dual_side_records_no_proving_rows(self) -> None:
        lines = [
            "VER 1 VAR 1 x INT 0 OBJ min 1 0 1",
            "CON 1 C1 G 0 1 0 1",
            "RTP range -inf inf SOL 0",
            "DER 2 D1 G 0 1 0 1 { lin 1 0 1 } -1 D2 G 0 1 0 2 { lin 1 1 2 } -1",
        ]
        report = verify_lines(lines)
        assert report.verified
        assert goal_rows(parse_certificate(lines)) == ()


# --- malformed event streams -------------------------------------------------


class TestCheckerState:
    def test_rows_and_assumption_sets_of_live_rows(self) -> None:
        certificate = load_golden("split_infeasible")
        state = CheckerState(certificate.problem, certificate.goal)
        for position, derivation in enumerate(certificate.derivations):
            state.verify_derivation(derivation, certificate.num_original + position)
        expected = recursive_assumption_sets(certificate)
        rows = certificate_rows(certificate)
        for index in range(certificate.num_original, len(rows)):
            assert state.row(index) == rows[index]
            assert state.assumptions(index) == tuple(sorted(expected[index]))
        assert state.assumptions(0) == ()

    def test_rejected_derivation_raises_with_its_failure(self) -> None:
        certificate = load_golden("split_infeasible")
        state = CheckerState(certificate.problem, certificate.goal)
        wrong_sign = replace(certificate.derivations[3], reason=Lin(((0, R(-1)),)))
        with pytest.raises(Rejection) as caught:
            state.verify_derivation(wrong_sign, certificate.num_original)
        failure = caught.value.failure
        assert (failure.index, failure.rule) == (certificate.num_original, "lin")
        assert str(caught.value) == failure.message
        assert state.next_index == certificate.num_original

    def test_assumption_free_rows_share_one_empty_set(self) -> None:
        certificate = read_certificate(iter(chain_lines(3)))
        state = CheckerState(certificate.problem, certificate.goal)
        for index, derivation in enumerate(certificate.derivations, certificate.num_original):
            state.verify_derivation(derivation, index)
        assert state.assumptions(1) is state.assumptions(2)
        assert state.assumptions(0) is state.assumptions(3) is NO_ASSUMPTIONS
        assert NO_ASSUMPTIONS == ()

    def test_per_row_records_have_no_instance_dict(self) -> None:
        lhs = SparseVec(((0, 1),))
        constraint = Constraint("c", Sense.GE, lhs, 0)
        records = (
            lhs,
            constraint,
            Asm(),
            Lin(((0, 1),)),
            Rnd(((0, 1),)),
            Uns(1, 2, 3, 4),
            Derivation(constraint, Asm()),
        )
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


class TestEventStream:
    def test_empty_stream_raises_value_error(self) -> None:
        for opener in (verify_certificate, split_header):
            with pytest.raises(ValueError, match="^event stream has no header$"):
                opener(iter([]))

    def test_stream_ending_before_the_goal_is_proven_is_rejected(self) -> None:
        problem = load_golden("small_range").problem  # feasible
        report = verify_certificate([Header(problem, InfeasibleGoal())])
        assert not report.verified
        assert report.failure.rule == "goal"

    def test_second_header_raises_value_error(self) -> None:
        header, rest = split_header(load_golden("small_range"))
        events = [header, *rest]
        with pytest.raises(ValueError, match="^event stream has a second header$"):
            verify_certificate(iter(events + events))
        header, rest = split_header(iter(events + events))  # opens; the checker raises
        with pytest.raises(ValueError, match="^event stream has a second header$"):
            list(CheckerState(header.problem, header.goal).run(rest))

    @pytest.mark.parametrize("skip", [1, 2])
    def test_stream_without_leading_header_raises_value_error(self, skip: int) -> None:
        header, rest = split_header(load_golden("small_range"))
        events = [header, *rest]
        for opener in (verify_certificate, split_header):
            with pytest.raises(ValueError, match="^event stream has no header$"):
                opener(iter(events[skip:]))

    def test_missing_header_is_reported_under_python_o(self) -> None:
        script = (
            "from mipcert.certfile import split_header\n"
            "from mipcert.checker import verify_certificate\n"
            "for opener in (verify_certificate, split_header):\n"
            "    try:\n"
            "        opener(iter([]))\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n"
        )
        src = str(Path(mipcert.__file__).resolve().parent.parent)
        completed = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "ValueError: event stream has no header\n" * 2
