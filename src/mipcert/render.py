"""Static HTML rendering of a certificate for human inspection.

The output is a deterministic, self-contained document with no scripts: one
table row per original constraint, per claimed solution, and per derivation.
Constraints are shown as conventional inequalities (``2x + y >= 1``), every
reason's referenced rows are intra-document links to the referenced row
anchors (a reference to no row at all, possible only in memory, is plain
text such as ``row 99``), and each derivation's assumption set is displayed alongside. The
sets come from :func:`mipcert.checker.assumptions_of`, the checker's own
rule, with a missing reference read as the empty set.

Rendering only requires the certificate to parse — a certificate that fails
verification still renders, which is precisely when a human wants to look.
"""

from __future__ import annotations

import html

from .checker import assumptions_of
from .model import (
    Asm,
    AssumptionSet,
    Certificate,
    InfeasibleGoal,
    Lin,
    Rnd,
    evaluate_solution,
    format_constraint,
    format_linear,
)
from .numeric import Number, format_rational

__all__ = ["render_html"]

_STYLE = """
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #999; padding: 0.3em 0.7em; text-align: left; }
th { background: #eee; }
caption { font-weight: bold; text-align: left; padding: 0.3em 0; }
""".strip()


def _assumption_sets(certificate: Certificate) -> dict[int, AssumptionSet]:
    """Every row's assumption set; a reference to no earlier row adds nothing."""
    sets: dict[int, AssumptionSet] = {
        index: frozenset() for index in range(certificate.num_original)
    }

    def lookup(reference: int) -> AssumptionSet:
        return sets.get(reference, frozenset())

    for position, derivation in enumerate(certificate.derivations):
        index = certificate.num_original + position
        sets[index] = assumptions_of(derivation.reason, index, lookup)
    return sets


def _link(certificate: Certificate, index: int) -> str:
    """A link to row ``index``; plain text when no such row exists."""
    if not 0 <= index < certificate.num_rows:
        return html.escape(f"row {index}")
    name = certificate.constraint_at(index).name
    return f'<a href="#c-{html.escape(name, quote=True)}">{html.escape(name)}</a>'


def _multiplier_text(value: Number) -> str:
    text = format_rational(value)
    return f"({text})" if text.startswith("-") else text


def _reason_cell(certificate: Certificate, reason) -> str:
    if isinstance(reason, Asm):
        return "assumption"
    if isinstance(reason, (Lin, Rnd)):
        keyword = "lin" if isinstance(reason, Lin) else "round"
        terms = " + ".join(
            f"{_multiplier_text(mult)}&middot;{_link(certificate, ref)}"
            for ref, mult in reason.terms
        )
        return f"{keyword}: {terms}" if terms else f"{keyword}: (empty sum)"
    return (
        f"unsplit {_link(certificate, reason.i1)}, {_link(certificate, reason.i2)} "
        f"on {_link(certificate, reason.a1)}, {_link(certificate, reason.a2)}"
    )


def _assumptions_cell(certificate: Certificate, assumptions: AssumptionSet) -> str:
    if not assumptions:
        return "&empty;"
    return ", ".join(_link(certificate, index) for index in sorted(assumptions))


def _goal_text(certificate: Certificate) -> str:
    goal = certificate.goal
    if isinstance(goal, InfeasibleGoal):
        return "prove infeasibility"
    lower = "-inf" if goal.lower is None else format_rational(goal.lower)
    upper = "inf" if goal.upper is None else format_rational(goal.upper)
    return f"prove the optimal value lies in [{lower}, {upper}]"


def render_html(certificate: Certificate) -> str:
    """Render the certificate as a complete standalone HTML document."""
    problem = certificate.problem
    names = problem.variable_names
    sets = _assumption_sets(certificate)
    out: list[str] = []
    emit = out.append

    emit("<!DOCTYPE html>")
    emit('<html lang="en">')
    emit('<head><meta charset="utf-8"><title>MILP certificate</title>')
    emit(f"<style>{_STYLE}</style></head>")
    emit("<body>")
    emit("<h1>MILP certificate</h1>")

    integer_marks = ", ".join(
        f"{html.escape(name)}{' (integer)' if index in problem.integer_set else ''}"
        for index, name in enumerate(names)
    )
    emit("<ul>")
    emit(f"<li>Variables: {integer_marks if names else '(none)'}</li>")
    emit(
        f"<li>Objective: {problem.objective_sense.value} "
        f"{html.escape(format_linear(problem.objective, names))}</li>"
    )
    emit(f"<li>Goal: {html.escape(_goal_text(certificate))}</li>")
    emit("</ul>")

    emit('<table><caption>Constraints</caption>')
    emit("<tr><th>Index</th><th>Name</th><th>Constraint</th></tr>")
    for index, constraint in enumerate(problem.constraints):
        anchor = html.escape(constraint.name, quote=True)
        emit(
            f'<tr id="c-{anchor}"><td>{index}</td>'
            f"<td>{html.escape(constraint.name)}</td>"
            f"<td>{html.escape(format_constraint(constraint, names))}</td></tr>"
        )
    emit("</table>")

    emit("<table><caption>Solutions</caption>")
    emit("<tr><th>Name</th><th>Assignment</th><th>Objective value</th></tr>")
    for solution in certificate.solutions:
        assignment = ", ".join(
            f"{html.escape(names[index])} = {format_rational(value)}"
            for index, value in solution.assignment
        )
        _, value = evaluate_solution(problem, solution)
        anchor = html.escape(solution.name, quote=True)
        emit(
            f'<tr id="s-{anchor}"><td>{html.escape(solution.name)}</td>'
            f"<td>{assignment or 'all zero'}</td>"
            f"<td>{format_rational(value)}</td></tr>"
        )
    emit("</table>")

    emit("<table><caption>Derivations</caption>")
    emit(
        "<tr><th>Index</th><th>Name</th><th>Constraint</th>"
        "<th>Reason</th><th>Assumptions</th><th>Last use</th></tr>"
    )
    for position, derivation in enumerate(certificate.derivations):
        index = certificate.num_original + position
        constraint = derivation.constraint
        anchor = html.escape(constraint.name, quote=True)
        emit(
            f'<tr id="c-{anchor}"><td>{index}</td>'
            f"<td>{html.escape(constraint.name)}</td>"
            f"<td>{html.escape(format_constraint(constraint, names))}</td>"
            f"<td>{_reason_cell(certificate, derivation.reason)}</td>"
            f"<td>{_assumptions_cell(certificate, sets[index])}</td>"
            f"<td>{derivation.last_use}</td></tr>"
        )
    emit("</table>")

    emit("</body>")
    emit("</html>")
    return "\n".join(out) + "\n"
