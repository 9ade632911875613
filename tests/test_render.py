"""HTML rendering: anchors, links, reason cells, assumption sets, escaping."""

from __future__ import annotations

import html
import re
from dataclasses import replace

import pytest
from conftest import GOLDEN_NAMES, checked_assumption_sets, load_golden

from mipcert.checker import verify_certificate
from mipcert.model import (
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    ObjectiveSense,
    Problem,
    RangeGoal,
    Sense,
    Solution,
    SparseVec,
    Uns,
)
from mipcert.numeric import Rational as R
from mipcert.render import render_html
from mipcert.tighten import compute_last_use

ID_PATTERN = re.compile(r'id="([cs])-([^"]*)"')
HREF_PATTERN = re.compile(r'href="#c-([^"]*)"')
CELL_PATTERN = re.compile(r"<td>(.*?)</td>")


def rendered_assumption_sets(certificate: Certificate) -> dict[int, frozenset[int]]:
    """The Assumptions column of every derivation row, as sets of row indices."""
    by_name = {
        certificate.constraint_at(index).name: index
        for index in range(certificate.num_rows)
    }
    sets: dict[int, frozenset[int]] = {}
    for line in render_html(certificate).splitlines():
        cells = CELL_PATTERN.findall(line)
        if line.startswith('<tr id="c-') and len(cells) == 6:
            names = HREF_PATTERN.findall(cells[4])
            sets[int(cells[0])] = frozenset(by_name[html.unescape(n)] for n in names)
    return sets


class TestDocumentShape:
    def test_deterministic(self) -> None:
        certificate = load_golden("split_infeasible")
        assert render_html(certificate) == render_html(certificate)

    def test_standalone_document(self) -> None:
        document = render_html(load_golden("small_range"))
        assert document.startswith("<!DOCTYPE html>")
        assert document.endswith("</html>\n")
        assert "<script" not in document

    def test_one_anchor_per_row(self) -> None:
        certificate = load_golden("split_infeasible")
        document = render_html(certificate)
        row_anchors = [m for m in ID_PATTERN.finditer(document) if m.group(1) == "c"]
        assert len(row_anchors) == certificate.num_rows == 14

    def test_every_link_resolves(self) -> None:
        for name in ("small_range", "rounding_chain", "split_infeasible"):
            document = render_html(load_golden(name))
            anchors = {m.group(2) for m in ID_PATTERN.finditer(document) if m.group(1) == "c"}
            targets = set(HREF_PATTERN.findall(document))
            assert targets <= anchors
            assert targets  # at least one reference rendered as a link


class TestReferencesToNoRow:
    """In-memory certificates may cite indices no file could: no link is made."""

    def with_reason(self, position: int, reason) -> Certificate:
        golden = load_golden("split_infeasible")
        derivations = list(golden.derivations)
        derivations[position] = replace(derivations[position], reason=reason)
        return replace(golden, derivations=tuple(derivations))

    def test_reference_past_the_end_is_plain_text(self) -> None:
        certificate = self.with_reason(6, Lin(((1, R(-1, 4)), (99, R(3, 4)))))  # C6
        document = render_html(certificate)
        assert 'lin: (-1/4)&middot;<a href="#c-C2">C2</a> + 3/4&middot;row 99</td>' in document

    def test_negative_reference_is_plain_text(self) -> None:
        certificate = self.with_reason(9, Uns(-1, 5, 8, 7))  # C9
        document = render_html(certificate)
        expected = (
            'unsplit row -1, <a href="#c-C5">C5</a>'
            ' on <a href="#c-A3">A3</a>, <a href="#c-A4">A4</a>'
        )
        assert expected in document


class TestCells:
    def test_constraint_text(self) -> None:
        document = render_html(load_golden("small_range"))
        assert "5x - y &gt;= 2" in document
        assert "3x - 2y &lt;= 1" in document
        assert "2x + y &gt;= 1" in document

    def test_goal_and_objective_header(self) -> None:
        small = render_html(load_golden("small_range"))
        assert "prove the optimal value lies in [1, 1]" in small
        assert "Objective: min 2x + y" in small
        fig = render_html(load_golden("split_infeasible"))
        assert "prove infeasibility" in fig
        assert "Variables: x1 (integer), x2 (integer)" in fig

    def test_solution_row(self) -> None:
        document = render_html(load_golden("small_range"))
        assert 'id="s-x*"' in document
        assert "x = 3/7, y = 1/7" in document

    def test_assumption_reason_cell(self) -> None:
        document = render_html(load_golden("split_infeasible"))
        assert "<td>assumption</td>" in document

    def test_combination_cell_links_and_parenthesizes(self) -> None:
        document = render_html(load_golden("split_infeasible"))
        expected = (
            'lin: (-1/3)&middot;<a href="#c-C3">C3</a>'
            ' + (-1/3)&middot;<a href="#c-A1">A1</a>'
            ' + 2&middot;<a href="#c-A4">A4</a>'
        )
        assert expected in document

    def test_rounding_cell(self) -> None:
        document = render_html(load_golden("split_infeasible"))
        assert 'round: 1&middot;<a href="#c-C6">C6</a>' in document

    def test_unsplit_cell(self) -> None:
        document = render_html(load_golden("split_infeasible"))
        expected = (
            'unsplit <a href="#c-C4">C4</a>, <a href="#c-C5">C5</a>'
            ' on <a href="#c-A3">A3</a>, <a href="#c-A4">A4</a>'
        )
        assert expected in document

    def test_assumption_set_cells(self) -> None:
        document = render_html(load_golden("split_infeasible"))
        assert "&empty;" in document  # C10 carries no assumptions
        discharged = '<td><a href="#c-A1">A1</a></td>'  # C9 depends on A1 only
        assert discharged in document

    def test_last_use_column_reflects_tightening(self) -> None:
        certificate = load_golden("split_infeasible")
        untightened = render_html(certificate)
        assert "<td>-1</td>" in untightened
        tightened = render_html(compute_last_use(certificate))
        c6_row = next(
            line for line in tightened.splitlines() if 'id="c-C6"' in line
        )
        assert c6_row.endswith("<td>10</td></tr>")

    def test_empty_assignment_renders_as_all_zero(self) -> None:
        certificate = load_golden("small_range")
        zero = replace(certificate, solutions=(Solution("z", SparseVec(())),))
        document = render_html(zero)
        assert "all zero" in document


class TestAssumptionColumn:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_matches_the_checker(self, name: str) -> None:
        certificate = load_golden(name)
        assert verify_certificate(certificate).verified
        assert rendered_assumption_sets(certificate) == checked_assumption_sets(certificate)

    def test_rejected_certificate_renders_a_set_for_every_row(self) -> None:
        golden = load_golden("split_infeasible")
        derivations = list(golden.derivations)
        assert derivations[6].constraint.name == "C6"  # row 9
        # C6 cites the later row C9, which no file could say but memory can.
        forward = Lin(((1, R(-1, 4)), (12, R(3, 4))))
        derivations[6] = replace(derivations[6], reason=forward)
        certificate = replace(golden, derivations=tuple(derivations))
        report = verify_certificate(certificate)
        assert not report.verified and report.failure.index == 9
        checked = checked_assumption_sets(certificate)
        rendered = rendered_assumption_sets(certificate)
        assert sorted(rendered) == list(
            range(certificate.num_original, certificate.num_rows)
        )
        assert {index: rendered[index] for index in checked} == checked
        assert rendered[9] == frozenset()  # the missing reference adds nothing


class TestEscaping:
    def hostile_certificate(self) -> Certificate:
        problem = Problem(
            variable_names=('<y>"',),
            integer_set=frozenset(),
            objective=SparseVec(((0, R(1)),)),
            objective_sense=ObjectiveSense.MIN,
            constraints=(
                Constraint('<C&"1">', Sense.GE, SparseVec(((0, R(1)),)), R(0)),
            ),
        )
        derivation = Derivation(
            Constraint("D<script>", Sense.GE, SparseVec(((0, R(1)),)), R(0)),
            Lin(((0, R(1)),)),
        )
        return Certificate(
            problem,
            RangeGoal(None, None),
            (Solution('s<"', SparseVec(((0, R(2)),))),),
            (derivation,),
        )

    def test_hostile_names_are_escaped_everywhere(self) -> None:
        document = render_html(self.hostile_certificate())
        assert "<script" not in document
        assert "<y>" not in document
        assert "&lt;y&gt;" in document
        assert "D&lt;script&gt;" in document
        assert 'href="#c-&lt;C&amp;&quot;1&quot;&gt;"' in document
        assert 'id="c-&lt;C&amp;&quot;1&quot;&gt;"' in document
        assert 'id="s-s&lt;&quot;"' in document

    def test_infeasible_goal_renders(self) -> None:
        certificate = replace(
            self.hostile_certificate(), goal=InfeasibleGoal(), solutions=()
        )
        assert "prove infeasibility" in render_html(certificate)
