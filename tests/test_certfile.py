"""Certificate text format: streaming parser, writer, and error positions."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import GOLDEN_NAMES, chain_lines, goal_rows, golden_text, load_golden
from hypothesis import given, settings
from hypothesis import strategies as st
from parse_error_corpus import CORPUS_PATH, corpus_outcomes, corpus_texts

import mipcert
import mipcert.certfile

from mipcert.certfile import (
    Header,
    ParseError,
    parse_certificate,
    parse_problem,
    read_certificate,
    split_header,
    write_certificate,
    write_problem,
)
from mipcert.checker import verify_certificate
from mipcert.model import (
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    RangeGoal,
    Sense,
    Solution,
    SparseVec,
)
from mipcert.numeric import Rational as R
from mipcert.numeric import format_rational
from mipcert.solve import solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's seeded generators)


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
        assert [type(e) for e in events] == [Header, Solution, Derivation]
        header = events[0]
        assert header.problem.variable_names == ("x", "y")
        assert header.goal == RangeGoal(R(1), R(1))
        assert events[1].name == "x*"
        assert header.problem.num_constraints == 2
        assert goal_rows(events) == (2,)

    def test_derivation_indices_follow_originals(self) -> None:
        with open_golden("split_infeasible") as f:
            header, *derivations = parse_certificate(f)
        unproven = Derivation(Constraint("bad", Sense.GE, SparseVec(()), 1), Lin(((0, 1),)))
        indices = [
            verify_certificate([header, *derivations[:position], unproven]).failure.index
            for position in range(len(derivations) + 1)
        ]
        assert indices == list(range(3, 15))

    def test_each_solution_is_yielded_before_the_next_is_read(self) -> None:
        lines = golden_text("small_range").splitlines()
        sol = lines.index("SOL 1")
        lines[sol : sol + 2] = ["SOL 2", "first 1 0 2", "second 1 0 zz"]
        events = parse_certificate(lines)
        assert isinstance(next(events), Header)
        assert next(events).name == "first"
        with pytest.raises(ParseError, match="line 13"):
            next(events)

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_split_header_matches_parser(self, name: str) -> None:
        with open_golden(name) as f:
            parsed = list(parse_certificate(f))
        header, rest = split_header(load_golden(name))
        assert [header, *rest] == parsed


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

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_layout_parses_like_the_canonical_text(self, data) -> None:
        name = data.draw(st.sampled_from(sorted(CANONICAL_TEXTS)))
        tokens = CANONICAL_TEXTS[name].split()
        gaps = data.draw(st.lists(st.sampled_from(GAPS), min_size=len(tokens), max_size=len(tokens)))
        text = "".join(gap + token for gap, token in zip(gaps, tokens))
        text += data.draw(st.sampled_from(("", "\n", "\n% a closing note\n", "\n\n")))
        expected = read_certificate(io.StringIO(CANONICAL_TEXTS[name]))
        assert read_certificate(io.StringIO(text)) == expected

    def test_vectors_longer_than_one_take(self) -> None:
        width = 9000
        names = " ".join(f"v{index}" for index in range(width))
        pairs = [f"{index} 1" for index in range(width)]
        head = ["VER 1", f"VAR {width}", names, "INT 0", "OBJ min", str(width)]
        problem = parse_problem(head + pairs + ["CON 0"])
        assert problem.objective == SparseVec(tuple((index, 1) for index in range(width)))
        end = len(head) + width  # the line of the last pair
        with pytest.raises(ParseError, match="found 'CON'") as excinfo:
            parse_problem([*head[:-1], str(width + 1), *pairs, "CON 0"])
        assert excinfo.value.line == end + 1
        swapped = pairs[:-2] + [pairs[-1], pairs[-2]]
        with pytest.raises(ParseError, match="not strictly increasing") as excinfo:
            parse_problem(head + swapped + ["CON 0"])
        assert excinfo.value.line == end


def _solver_certificate_text() -> str:
    result = solve(load_golden("split_infeasible").problem)
    assert result.certificate is not None
    return written_text(result.certificate)


# Each golden, one solver certificate and a depth-4 split tree (rows of many
# fractional pairs, and uns rows) in canonical form, and the gaps a re-layout
# may put between their tokens.
CANONICAL_TEXTS = {name: written_text(load_golden(name)) for name in GOLDEN_NAMES}
CANONICAL_TEXTS["solver split_infeasible"] = _solver_certificate_text()
CANONICAL_TEXTS["tree depth 4"] = written_text(
    read_certificate(io.StringIO(workloads.tree_certificate(7, depth=4).text))
)
GAPS = (" ", "  ", "\t", "\n", "\n\n", " \n  \n ", " % a note\n", "\n% a whole-line note\n")


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
    # A row split over two lines with its fault on the first is reported on
    # the first; input that ends inside a row is reported on its last line.
    pytest.param(_splice(8, "C1 G 2 2 0 5 7", "-1"), 8, "variable index 7 out of range", id="lhs-index-out-of-range-split-row"),
    pytest.param(_splice(14, "obj G 1 2 0 2 1 1 { lin 2 0 1.5", "1 -1 } -1"), 14, "combination multiplier: malformed", id="malformed-multiplier-split-row"),
    pytest.param(_splice(14, "obj G 1 2 0 2 1 1 { lin 2 0 1 2", "-1 } -1"), 14, "combination row index 2 out of range", id="forward-reference-split-row"),
    pytest.param(BASE[:13] + ["obj G 1 2 0", "2", "% cut here"], 16, "end of input while reading derivation left-hand side variable index", id="end-inside-derivation-vector"),
    pytest.param(_splice(14, "C1 G 1 0", "{ asm } -1"), 14, "duplicate constraint name", id="name-clash-empty-lhs-split-row"),
    # Each field of a derivation's head whose check is inlined, starting its
    # own line, fails with the whole message, on that line.
    pytest.param(BASE[:13] + ["", "% no row"], 15, "unexpected end of input while reading derivation name", id="derivation-name-at-end-of-input"),
    pytest.param(_splice(14, "obj", "Q 1 2 0 2 1 1 { lin 2 0 1 1 -1 } -1"), 15, "unknown sense code 'Q' (expected G, L, or E)", id="derivation-sense-own-line"),
    pytest.param(_splice(14, "obj G", "1.5 2 0 2 1 1 { lin 2 0 1 1 -1 } -1"), 15, "derivation right-hand side: malformed rational token '1.5'", id="derivation-rhs-own-line"),
    pytest.param(_splice(14, "obj G 1", "two 0 2 1 1 { lin 2 0 1 1 -1 } -1"), 15, "expected a nonnegative count for derivation left-hand side length, found 'two'", id="derivation-lhs-length-own-line"),
    pytest.param(_splice(14, "obj G 1 2 0 2 1 1", "lin 2 0 1 1 -1 } -1"), 15, "expected '{' before derivation reason, found 'lin'", id="missing-brace-own-line"),
    pytest.param(_splice(14, "obj G 1 2 0 2 1 1 { lin", "two 0 1 1 -1 } -1"), 15, "expected a nonnegative count for combination terms, found 'two'", id="lin-count-own-line"),
    pytest.param(_splice(14, "obj G 1 0 { uns 0", "5 1 0 } -1"), 15, "unsplit assumption reference 5 out of range (must be < 2)", id="second-uns-reference-own-line"),
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

    def test_variable_count_past_the_end_of_a_long_file(self) -> None:
        # Names cannot be checked, so the parser reads them, a bounded take
        # at a time, until the input ends.
        lines = chain_lines(100_000)
        lines[1] = "VAR 99999999999"
        with pytest.raises(ParseError) as excinfo:
            parse_lines(lines)
        expected = "line 100011: unexpected end of input while reading variable name"
        assert str(excinfo.value) == expected

    def test_parse_problem_rejects_certificate_tail(self) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_problem(BASE)
        assert excinfo.value.line == 10
        assert "trailing tokens" in excinfo.value.message


# Every case of tests/parse_error_corpus.py keeps its line and message.
CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
CORPUS_TEXTS = corpus_texts()


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_parse_error_corpus_is_unchanged(name: str) -> None:
    assert sorted(CORPUS) == sorted(CORPUS_TEXTS)
    found = corpus_outcomes(CORPUS_TEXTS[name])
    assert found.keys() == CORPUS[name].keys()
    for kind, cases in CORPUS[name].items():
        assert len(found[kind]) == len(cases), kind
        changed = [(k, a, b) for k, (a, b) in enumerate(zip(cases, found[kind])) if a != b]
        assert not changed, (kind, changed[:5])


# --- the parser's rational tokens ------------------------------------------


def _rationals_in_file_order(certificate) -> list[str]:
    """Each rational a certificate holds, written, in the order its file holds them:
    right-hand sides, coefficients, range bounds, solution values and multipliers."""
    problem = certificate.problem
    values = [value for _, value in problem.objective]
    for constraint in problem.constraints:
        values += [constraint.rhs, *(value for _, value in constraint.lhs)]
    goal = certificate.goal
    if isinstance(goal, RangeGoal):
        values += [bound for bound in (goal.lower, goal.upper) if bound is not None]
    for solution in certificate.solutions:
        values += [value for _, value in solution.assignment]
    for derivation in certificate.derivations:
        constraint = derivation.constraint
        values += [constraint.rhs, *(value for _, value in constraint.lhs)]
        values += [multiplier for _, multiplier in getattr(derivation.reason, "terms", ())]
    return [format_rational(value) for value in values]


@pytest.mark.parametrize(
    "text",
    [*(golden_text(name) for name in GOLDEN_NAMES), workloads.tree_certificate(7, depth=3).text],
    ids=[*GOLDEN_NAMES, "tree depth 3"],
)
def test_every_rational_token_goes_through_the_module_parse_rational(text, monkeypatch) -> None:
    # bench/run.py counts and times rational parsing by patching this name.
    original = mipcert.certfile.parse_rational
    seen: list[str] = []

    def collect(token: str):
        seen.append(token)
        return original(token)

    monkeypatch.setattr(mipcert.certfile, "parse_rational", collect)
    certificate = read_certificate(io.StringIO(text))
    assert seen == _rationals_in_file_order(certificate)
    assert len(seen) > 10


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
        assert goal_rows(parse_certificate(io.StringIO(text))) == (2,)
