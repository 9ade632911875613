"""Last-use computation, pruning, and their interaction with the checker."""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import (
    GAPS,
    GOLDEN_NAMES,
    chain_lines,
    described_derivations,
    goal_reachable,
    goal_rows,
    load_golden,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mipcert.certfile import parse_problem, read_certificate, write_certificate
from mipcert.cli import main
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
from mipcert.numeric import format_rational, parse_rational
from mipcert.solve import SolveConfig, solve
from mipcert.tighten import compute_last_use, prune_unused, tighten

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded generators)

tighten_module = importlib.import_module("mipcert.tighten")
ttn_module = importlib.import_module("mipcert.ttn")


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

    def test_verifies_on_the_inputs_own_hints(self, monkeypatch) -> None:
        # The one check is the input's own, as ``check`` and ``ttn --prune`` run it: every
        # hint of the raw chain is -1, so it keeps all 2,001 rows live, as check does.
        states = []

        class Recording(CheckerState):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                states.append(self)

        monkeypatch.setattr(tighten_module, "CheckerState", Recording)
        certificate = read_certificate(iter(chain_lines(2_000)))
        pruned = prune_unused(certificate)
        assert len(states) == 1 and states[0].goal_proven
        assert states[0].stats == verify_certificate(certificate).stats
        assert states[0].stats.peak_live == 2_001
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


# --- the file form: mipcert ttn ----------------------------------------------


def _number_tokens() -> st.SearchStrategy[str]:
    """``[-]p`` or ``[-]p/q`` (q > 0) as the parser accepts them: leading zeros, ``-0``, ``0/q``,
    ``q = 1`` and unreduced fractions included."""
    digits = st.integers(min_value=0, max_value=10**40).map(str)
    zeros = st.sampled_from(("", "0", "000"))
    numerator = st.builds(lambda s, z, d: s + z + d, st.sampled_from(("", "-")), zeros, digits)
    denominator = st.builds(lambda z, d: z + d, zeros, st.integers(1, 10**40).map(str))
    scaled = st.builds(  # p/q with a common factor
        lambda p, q, k: f"{p * k}/{q * k}", st.integers(-(10**20), 10**20), st.integers(1, 10**20),
        st.integers(1, 10**6),
    )
    return st.one_of(numerator, st.builds(lambda p, q: f"{p}/{q}", numerator, denominator), scaled)


class TestCanonical:
    @settings(max_examples=400, deadline=None)
    @given(_number_tokens())
    @example("-0")
    @example("0/7")
    @example("-0/7")
    @example("12/1")
    @example("-6/4")
    @example("4" * 4400)  # past the interpreter's 4,300-digit int-string limit
    @example("-0" + "7" * 4400)
    @example("6" * 4400 + "/4")
    @example("1/" + "3" * 4400)
    @example("3" * 5000 + "/" + "3" * 5000)
    def test_copier_writes_what_the_writer_writes(self, token: str) -> None:
        assert ttn_module._canonical(token) == format_rational(parse_rational(token))


def _non_canonical(token: str, previous: str, choice: int) -> str:
    """``token`` or, for a number the grammar accepts there, an equal one in another form."""
    if re.fullmatch(r"[0-9]+", token):  # also a count, an index or a last use
        return "0" + token if choice % 2 else token
    if re.fullmatch(r"-[0-9]+", token) and previous != "}":  # not a last use of -1
        return ("-0" + token[1:], f"{2 * int(token)}/2", token)[choice % 3]
    match = re.fullmatch(r"(-?)([0-9]+)/([0-9]+)", token)
    if match is None:
        return token
    sign, p, q = match.groups()
    return (f"{sign}0{p}/{q}", f"{sign}{2 * int(p)}/{2 * int(q)}", token)[choice % 3]


def _written(certificate: Certificate) -> str:
    sink = io.StringIO()
    write_certificate(certificate, sink)
    return sink.getvalue()


# Canonical texts of the goldens, a depth-5 split tree (fractional pairs, uns rows, dead
# subtrees), and solver certificates with solutions and rnd and uns rows.
SOLVED = (
    parse_problem(io.StringIO(workloads.knapsack_problem(1203, 10).text)),
    parse_problem(io.StringIO(workloads.parity_problem(4).text)),
    load_golden("rounding_chain").problem,
)
TTN_TEXTS = [_written(load_golden(name)) for name in GOLDEN_NAMES] + [
    _written(read_certificate(io.StringIO(workloads.tree_certificate(7, depth=5).text))),
    *(_written(solve(problem, SolveConfig(cg_objective=True)).certificate) for problem in SOLVED),
]


class TestTightenedFile:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ttn_writes_what_the_in_memory_tightener_writes(self, data) -> None:
        # The two emitters, tokens copied from the file and records written, agree on any
        # layout (rows split over lines, comments, several rows on one line) and any number form.
        text, prune = data.draw(st.sampled_from(TTN_TEXTS)), data.draw(st.booleans())
        tokens = text.split()
        forms = data.draw(st.lists(st.integers(0, 5), min_size=len(tokens), max_size=len(tokens)))
        tokens[2:] = map(_non_canonical, tokens[2:], tokens[1:], forms[2:])  # not VER's 1
        gaps = st.lists(st.sampled_from(GAPS), min_size=len(tokens), max_size=len(tokens))
        text = "".join(map(str.__add__, data.draw(gaps), tokens)) + data.draw(st.sampled_from(GAPS))
        expected = io.StringIO()
        write_certificate(tighten(read_certificate(io.StringIO(text)), prune=prune), expected)
        with tempfile.TemporaryDirectory() as directory:
            source, output = Path(directory, "in.crt"), Path(directory, "out.crt")
            source.write_text(text)
            argv = ["ttn", str(source), str(output)] + (["--prune"] if prune else [])
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0
            assert output.read_text() == expected.getvalue()
        kept = len(read_certificate(io.StringIO(expected.getvalue())).derivations)
        assert out.getvalue().startswith(f"tightened: {kept} derivations")

    @pytest.mark.parametrize("end", ("\n", ""))
    def test_a_line_longer_than_a_read_is_copied_as_rows_on_lines_are(self, tmp_path, end) -> None:
        # The second pass reads line by line, as the parser does; a whole certificate on one line
        # is one line of many rows, each copied from the one token list of that line.
        lines = chain_lines(5000)
        one_line, row_lines = tmp_path / "one_line.crt", tmp_path / "row_lines.crt"
        one_line.write_text(" ".join(lines) + end)
        row_lines.write_text("\n".join(lines) + "\n")
        assert one_line.stat().st_size > 2 << 16
        written = []
        for source in (one_line, row_lines):
            sink = io.StringIO()
            ttn_module.TightenedFile(str(source), prune=True).write(sink)
            written.append(sink.getvalue())
        assert written[0] == written[1]

    @pytest.mark.parametrize("prune", (False, True))
    def test_a_header_longer_than_a_take_is_skipped_to_der(self, tmp_path, prune) -> None:
        # The second pass reads the header as the parser does, taking variable names at most
        # 4,096 at a time: 5,000 names, one a line, make that two takes.
        lines = chain_lines(50)
        lines[1:3] = ["VAR 5000", *(f"x{index}" for index in range(5000))]
        text = "\n".join(lines) + "\n"
        source = tmp_path / "in.crt"
        source.write_text(text)
        expected, sink = io.StringIO(), io.StringIO()
        write_certificate(tighten(read_certificate(io.StringIO(text)), prune=prune), expected)
        ttn_module.TightenedFile(str(source), prune=prune).write(sink)
        assert sink.getvalue() == expected.getvalue()

    def test_the_file_form_builds_no_certificate(self, monkeypatch, tmp_path) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("a certificate was built")

        monkeypatch.setattr("mipcert.model.Certificate.__init__", refuse)
        monkeypatch.setattr("mipcert.certfile.read_certificate", refuse)
        chain = tmp_path / "chain.crt"
        chain.write_text("\n".join(chain_lines(50)) + "\n")
        tightened = ttn_module.TightenedFile(str(chain), prune=True)
        sink = io.StringIO()
        tightened.write(sink)
        assert (tightened.derivations, tightened.kept) == (50, 50)
        assert sink.getvalue().count("\n") == 11 + 50
