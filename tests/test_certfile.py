"""Certificate text format: streaming parser, writer, and error positions."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import GOLDEN_NAMES, golden_text, load_golden

import mipcert

from mipcert.certfile import (
    DerivationEvent,
    End,
    Header,
    ParseError,
    SolutionEvent,
    events_from_certificate,
    parse_certificate,
    parse_problem,
    read_certificate,
    write_certificate,
    write_problem,
)
from mipcert.model import InfeasibleGoal, RangeGoal
from mipcert.numeric import Rational as R


def parse_lines(lines: list[str]):
    return read_certificate(lines)


def written_text(certificate) -> str:
    sink = io.StringIO()
    write_certificate(certificate, sink)
    return sink.getvalue()


# --- round trips ----------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_write_then_read_is_identity(self, name: str) -> None:
        certificate = load_golden(name)
        again = read_certificate(io.StringIO(written_text(certificate)))
        assert again == certificate

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_writer_is_idempotent(self, name: str) -> None:
        first = written_text(load_golden(name))
        second = written_text(read_certificate(io.StringIO(first)))
        assert second == first

    @pytest.mark.parametrize("name", ("small_range", "rounding_chain"))
    def test_canonical_files_are_written_verbatim(self, name: str) -> None:
        text = golden_text(name)
        assert written_text(read_certificate(io.StringIO(text))) == text

    def test_comment_lines_are_the_only_noncanonical_part(self) -> None:
        text = golden_text("split_infeasible")
        lines = text.splitlines()
        assert lines[0].startswith("%")
        out = written_text(read_certificate(io.StringIO(text)))
        assert out.splitlines() == lines[1:]

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_problem_round_trip(self, name: str) -> None:
        problem = load_golden(name).problem
        sink = io.StringIO()
        write_problem(problem, sink)
        assert parse_problem(io.StringIO(sink.getvalue())) == problem

    def test_empty_problem_round_trip(self) -> None:
        text = "VER 1 VAR 0 INT 0 OBJ min 0 CON 0 RTP infeas SOL 0 DER 0"
        certificate = parse_lines([text])
        assert certificate.problem.num_variables == 0
        assert certificate.goal == InfeasibleGoal()
        again = read_certificate(io.StringIO(written_text(certificate)))
        assert again == certificate


# --- event stream ---------------------------------------------------------


class TestEventStream:
    def test_order_and_indices(self) -> None:
        with open_golden("small_range") as f:
            events = list(parse_certificate(f))
        assert [type(e) for e in events] == [Header, SolutionEvent, DerivationEvent, End]
        header = events[0]
        assert header.problem.variable_names == ("x", "y")
        assert header.goal == RangeGoal(R(1), R(1))
        assert events[1].solution.name == "x*"
        assert events[2].index == header.problem.num_constraints == 2

    def test_derivation_indices_follow_originals(self) -> None:
        with open_golden("split_infeasible") as f:
            indices = [e.index for e in parse_certificate(f) if isinstance(e, DerivationEvent)]
        assert indices == list(range(3, 14))

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_events_from_certificate_matches_parser(self, name: str) -> None:
        with open_golden(name) as f:
            parsed = list(parse_certificate(f))
        replayed = list(events_from_certificate(load_golden(name)))
        assert replayed == parsed


def open_golden(name: str):
    from conftest import DATA_DIR

    return open(DATA_DIR / f"{name}.crt", encoding="utf-8")


# --- tokenizer flexibility ------------------------------------------------


class TestTokenizer:
    def test_newlines_are_not_structural(self) -> None:
        tokens = golden_text("small_range").split()
        one_line = parse_lines([" ".join(tokens)])
        assert one_line == load_golden("small_range")
        one_token_per_line = parse_lines(tokens)
        assert one_token_per_line == load_golden("small_range")

    def test_comments_and_blank_lines_are_ignored(self) -> None:
        noisy: list[str] = []
        for line in golden_text("small_range").splitlines():
            noisy.extend(["% a note", "", "   ", line + " % trailing remark"])
        assert parse_lines(noisy) == load_golden("small_range")


# --- positioned parse errors ----------------------------------------------

BASE = golden_text("small_range").splitlines()


def _mut(lineno: int, replacement: str) -> list[str]:
    lines = list(BASE)
    lines[lineno - 1] = replacement
    return lines


def _splice(lineno: int, *replacement: str) -> list[str]:
    """Replace one line with several, shifting the rest down."""
    lines = list(BASE)
    lines[lineno - 1 : lineno] = list(replacement)
    return lines


DER_ROW = "obj G 1 2 0 2 1 1 {{ {reason} }} {last_use}"


def _der(reason: str, last_use: str = "-1") -> list[str]:
    return _mut(14, DER_ROW.format(reason=reason, last_use=last_use))


INVALID_CASES = [
    pytest.param([], 0, "unexpected end of input", id="empty-file"),
    pytest.param(_mut(1, "VRE 1"), 1, "expected 'VER'", id="missing-ver"),
    pytest.param(_mut(1, "VER 2"), 1, "unsupported format version", id="bad-version"),
    pytest.param(_mut(3, "x y z"), 3, "expected 'INT'", id="extra-variable-name"),
    pytest.param(_mut(3, "x"), 4, "expected 'INT'", id="missing-variable-name"),
    pytest.param(_splice(4, "INT 2", "0 0"), 5, "duplicate integer variable index", id="duplicate-integer-index"),
    pytest.param(_splice(4, "INT 1", "5"), 5, "out of range", id="integer-index-out-of-range"),
    pytest.param(_mut(5, "OBJ middle"), 5, "expected 'min' or 'max'", id="bad-objective-sense"),
    pytest.param(_mut(6, "2 0 0 1 1"), 6, "zero coefficient", id="zero-objective-coefficient"),
    pytest.param(_mut(7, "CON -1"), 7, "nonnegative count", id="negative-count"),
    pytest.param(_mut(8, "C1 Q 2 2 0 5 1 -1"), 8, "unknown sense code", id="unknown-sense"),
    pytest.param(_mut(8, "C1 G 2.5 2 0 5 1 -1"), 8, "right-hand side", id="decimal-rhs"),
    pytest.param(_mut(8, "C1 G 1/0 2 0 5 1 -1"), 8, "right-hand side", id="zero-denominator-rhs"),
    pytest.param(_mut(8, "C1 G 2 2 1 5 0 -1"), 8, "not strictly increasing", id="unsorted-lhs"),
    pytest.param(_mut(8, "C1 G 2 2 0 5 7 -1"), 8, "out of range", id="lhs-index-out-of-range"),
    pytest.param(_mut(9, "C1 L 1 2 0 3 1 -2"), 9, "duplicate constraint name", id="duplicate-constraint-name"),
    pytest.param(_mut(10, "RTP range 2 1"), 10, "exceeds upper bound", id="inverted-range"),
    pytest.param(_mut(10, "RTP maybe"), 10, "expected 'infeas' or 'range'", id="unknown-goal"),
    pytest.param(_mut(10, "RTP range 1 oops"), 10, "range upper bound", id="bad-range-bound"),
    pytest.param(_mut(10, "RTP infeas"), 11, "admits no solutions", id="solutions-with-infeas-goal"),
    pytest.param(_splice(11, "SOL 2", BASE[11], BASE[11]), 13, "duplicate solution name", id="duplicate-solution-name"),
    pytest.param(_mut(12, "x* 2 0 3/7 5 1/7"), 12, "out of range", id="solution-index-out-of-range"),
    pytest.param(_mut(14, "C1 G 1 2 0 2 1 1 { lin 2 0 1 1 -1 } -1"), 14, "duplicate constraint name", id="derivation-name-clash"),
    pytest.param(_der("lin 2 0 1 2 -1"), 14, "out of range", id="forward-reference"),
    pytest.param(_der("lin 2 0 1 1 0"), 14, "zero multiplier", id="zero-multiplier"),
    pytest.param(_der("lin 2 1 -1 0 1"), 14, "not strictly increasing", id="unsorted-references"),
    pytest.param(_der("mix 1 0 1"), 14, "unknown reason keyword", id="unknown-reason"),
    pytest.param(_der("asm ]"), 14, "expected '}'", id="unclosed-reason"),
    pytest.param(_der("lin 2 0 1 1 -1", last_use="2"), 14, "last_use", id="last-use-not-after-row"),
    pytest.param(_der("lin 2 0 1 1 -1", last_use="x"), 14, "integer last_use", id="last-use-not-integer"),
    pytest.param(_mut(14, "obj G 1 0 { uns 0 5 1 0 } -1"), 14, "out of range", id="unsplit-reference-out-of-range"),
    pytest.param(list(BASE) + ["EXTRA"], 15, "trailing tokens", id="trailing-tokens"),
    pytest.param(BASE[:13], 13, "unexpected end of input", id="truncated-file"),
    pytest.param(_mut(13, "DER 2"), 14, "unexpected end of input", id="derivation-count-overrun"),
    # The grammar is ASCII: no Unicode digits, no int() extensions.
    pytest.param(_mut(2, "VAR \u00b2"), 2, "nonnegative count", id="superscript-count"),
    pytest.param(_mut(2, "VAR \u0662"), 2, "nonnegative count", id="arabic-indic-count"),
    pytest.param(_mut(6, "2 0 \u0662 1 1"), 6, "objective coefficient", id="arabic-indic-coefficient"),
    pytest.param(_mut(6, "2 \u00b9 2 1 1"), 6, "nonnegative index", id="superscript-index"),
    pytest.param(_mut(8, "C1 G \uff12 2 0 5 1 -1"), 8, "right-hand side", id="fullwidth-rhs"),
    pytest.param(_der("lin 2 0 1 1 -\u0661"), 14, "combination multiplier", id="arabic-indic-multiplier"),
    pytest.param(_der("lin 2 0 1 1 -1", last_use="+5"), 14, "integer last_use", id="last-use-plus-sign"),
    pytest.param(_der("lin 2 0 1 1 -1", last_use="1_0"), 14, "integer last_use", id="last-use-underscore"),
    pytest.param(_der("lin 2 0 1 1 -1", last_use="\u0665"), 14, "integer last_use", id="last-use-arabic-indic"),
    pytest.param(_der("lin 2 0 1 1 -1", last_use="-01"), 14, "integer last_use", id="last-use-padded-minus-one"),
    pytest.param(_der("lin 2 0 1 1 -1", last_use="-2"), 14, "integer last_use", id="last-use-negative"),
    # Order and nonzero rules are checked once the whole vector is read, so
    # a zero on the first of two lines is reported on the second.
    pytest.param(_splice(6, "2 0 0", "1 1"), 7, "zero coefficient", id="zero-coefficient-line-before-end"),
    pytest.param(_splice(14, "obj G 1 2 0 2 1 1 { lin 2 0 0", "1 -1 } -1"), 15, "zero multiplier", id="zero-multiplier-line-before-end"),
]


class TestParseErrors:
    @pytest.mark.parametrize(("lines", "line", "fragment"), INVALID_CASES)
    def test_rejected_with_position(self, lines: list[str], line: int, fragment: str) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_lines(lines)
        assert excinfo.value.line == line
        assert fragment in excinfo.value.message
        assert str(excinfo.value).startswith(f"line {line}:")

    def test_every_case_keeps_its_position_under_python_o(self) -> None:
        cases = {case.id: case.values for case in INVALID_CASES}
        script = (
            "import json, sys\n"
            "from mipcert.certfile import ParseError, read_certificate\n"
            "found = {}\n"
            "for case_id, lines in json.load(sys.stdin).items():\n"
            "    try:\n"
            "        read_certificate(lines)\n"
            "    except ParseError as exc:\n"
            "        found[case_id] = [exc.line, exc.message]\n"
            "json.dump({'optimize': sys.flags.optimize, 'found': found}, sys.stdout)\n"
        )
        src = str(Path(mipcert.__file__).resolve().parent.parent)
        completed = subprocess.run(
            [sys.executable, "-O", "-c", script],
            input=json.dumps({case_id: lines for case_id, (lines, _, _) in cases.items()}),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        output = json.loads(completed.stdout)
        assert output["optimize"] == 1
        assert sorted(output["found"]) == sorted(cases)
        for case_id, (_, line, fragment) in cases.items():
            found_line, message = output["found"][case_id]
            assert found_line == line, case_id
            assert fragment in message, case_id

    def test_parse_problem_rejects_certificate_tail(self) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_problem(BASE)
        assert excinfo.value.line == 10
        assert "trailing tokens" in excinfo.value.message


# --- numbers beyond CPython's int-string digit limit --------------------------


def _long_number_certificate(digits: int):
    """``small_range`` with a ``digits``-digit value in every number kind:
    coefficient, right-hand side, solution value, multiplier and bound.

    Returns the certificate, the value and its text; the text is built by
    hand because ``str()`` of the value would hit the limit under test.
    """
    big = 10 ** (digits - 1) + 7
    text = "1" + "0" * (digits - 2) + "7"
    lines = list(BASE)
    lines[5] = f"2 0 {text} 1 1"
    lines[7] = f"C1 G -{text} 2 0 5 1 -1"
    lines[11] = f"x* 2 0 1/{text} 1 {text}/3"
    lines[13] = f"obj G -{text} 2 0 2 1 1 {{ lin 2 0 1 1 -{text}/{text} }} -1"
    return parse_lines(lines), big, text


class TestLongNumbers:
    @pytest.mark.parametrize("digits", [5000, 20_000])
    def test_round_trip(self, digits: int) -> None:
        certificate, big, big_text = _long_number_certificate(digits)
        assert certificate.problem.objective.entries[0] == (0, big)
        assert certificate.problem.constraints[0].rhs == -big
        assert certificate.solutions[0].assignment.entries == ((0, R(1, big)), (1, R(big, 3)))
        assert certificate.derivations[0].reason.terms[1] == (1, -1)
        written = written_text(certificate)
        assert f"C1 G -{big_text} 2 0 5 1 -1\n" in written
        assert f"x* 2 0 1/{big_text} 1 {big_text}/3\n" in written
        assert read_certificate(io.StringIO(written)) == certificate
        assert written_text(read_certificate(io.StringIO(written))) == written

    def test_5000_digit_multiplier_verifies(self) -> None:
        from mipcert.checker import verify_certificate

        threes = "3" * 5000
        text = "\n".join(
            [
                "VER 1 VAR 1 x INT 0 OBJ min 1 0 1",
                "CON 1 C1 G 0 1 0 1",
                "RTP range 0 inf SOL 0",
                "DER 2",
                f"D1 G 0 1 0 {threes} {{ lin 1 0 {threes} }} 2",
                f"D2 G 0 1 0 1 {{ lin 1 1 1/{threes} }} -1",
            ]
        )
        report = verify_certificate(parse_certificate(io.StringIO(text)))
        assert report.verified, report.failure
        assert report.goal_proven_by == (2,)
