"""Static HTML rendering of a certificate for human inspection.

The output is a deterministic, self-contained document with no scripts: one
table row per original constraint, per claimed solution, and per derivation,
built in one pass over a certificate or its parsed event stream. Constraints
are shown as conventional inequalities (``2x + y >= 1``), a reason's cited
rows as links to their row anchors (a reference to no earlier row is plain
text such as ``row 99``), and each derivation's assumption set alongside, by
:func:`mipcert.checker.assumptions_of`, the checker's own rule, with a
missing reference read as the empty set.

Rendering only requires the certificate to parse — a certificate that fails
verification still renders, which is precisely when a human wants to look.
"""

from __future__ import annotations

import html
from collections.abc import Iterable

from .certfile import Event, split_header
from .checker import NO_ASSUMPTIONS, assumptions_of
from .model import (
    Asm,
    AssumptionSet,
    Certificate,
    Constraint,
    Derivation,
    InfeasibleGoal,
    Lin,
    Rnd,
    RtpGoal,
    Solution,
    format_bounds,
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


def _add_row(links: list[str], constraint: Constraint, names: tuple[str, ...]) -> str:
    """Add the next row's link to ``links``; return its opening tag and first three cells."""
    name = html.escape(constraint.name)
    cells = f'<tr id="c-{name}"><td>{len(links)}</td><td>{name}</td>'
    links.append(f'<a href="#c-{name}">{name}</a>')
    return f"{cells}<td>{html.escape(format_constraint(constraint, names))}</td>"


def _link(links: list[str], index: int) -> str:
    """The link to row ``index``; plain text when no such row exists yet."""
    return links[index] if 0 <= index < len(links) else html.escape(f"row {index}")


def _multiplier_text(value: Number) -> str:
    text = format_rational(value)
    return f"({text})" if text.startswith("-") else text


def _reason_cell(links: list[str], reason) -> str:
    if isinstance(reason, Asm):
        return "assumption"
    if isinstance(reason, (Lin, Rnd)):
        keyword = "lin" if isinstance(reason, Lin) else "round"
        terms = " + ".join(
            f"{_multiplier_text(mult)}&middot;{_link(links, ref)}"
            for ref, mult in reason.terms
        )
        return f"{keyword}: {terms}" if terms else f"{keyword}: (empty sum)"
    return (
        f"unsplit {_link(links, reason.i1)}, {_link(links, reason.i2)} "
        f"on {_link(links, reason.a1)}, {_link(links, reason.a2)}"
    )


def _assumptions_cell(links: list[str], assumptions: AssumptionSet) -> str:
    return ", ".join(_link(links, index) for index in sorted(assumptions)) or "&empty;"


def _goal_text(goal: RtpGoal) -> str:
    if isinstance(goal, InfeasibleGoal):
        return "prove infeasibility"
    lower, upper = format_bounds(goal)
    return f"prove the optimal value lies in [{lower}, {upper}]"


def render_html(source: Certificate | Iterable[Event]) -> str:
    """Render a certificate or its parsed event stream as a standalone HTML document.

    Raises ValueError when the stream holds a second header or, by
    :func:`~mipcert.certfile.split_header`, does not start with one."""
    header, events = split_header(source)
    problem = header.problem
    names = problem.variable_names
    links: list[str] = []  # the link to every row so far, in combined index order
    sets: dict[int, AssumptionSet] = {}  # every non-empty assumption set so far

    def lookup(reference: int) -> AssumptionSet:
        return sets.get(reference, NO_ASSUMPTIONS)

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
    emit(f"<li>Goal: {html.escape(_goal_text(header.goal))}</li>")
    emit("</ul>")

    emit('<table><caption>Constraints</caption>')
    emit("<tr><th>Index</th><th>Name</th><th>Constraint</th></tr>")
    for constraint in problem.constraints:
        emit(f"{_add_row(links, constraint, names)}</tr>")
    emit("</table>")

    emit("<table><caption>Solutions</caption>")
    emit("<tr><th>Name</th><th>Assignment</th><th>Objective value</th></tr>")
    derivation_rows = [
        "<table><caption>Derivations</caption>",
        "<tr><th>Index</th><th>Name</th><th>Constraint</th>"
        "<th>Reason</th><th>Assumptions</th><th>Last use</th></tr>",
    ]
    for event in events:
        if isinstance(event, Derivation):
            index = len(links)
            cells = _add_row(links, event.constraint, names)  # first: an asm row's set links to it
            assumptions = assumptions_of(event.reason, index, lookup)
            if assumptions:
                sets[index] = assumptions
            derivation_rows.append(
                f"{cells}<td>{_reason_cell(links, event.reason)}</td>"
                f"<td>{_assumptions_cell(links, assumptions)}</td>"
                f"<td>{event.last_use}</td></tr>"
            )
        elif isinstance(event, Solution):
            point = dict(event.assignment.entries)
            assignment = ", ".join(  # a variable with no name is x<i>, as in format_linear
                f"{html.escape(names[index] if index < len(names) else f'x{index}')} = "
                f"{format_rational(value)}"
                for index, value in point.items()
            )
            name = html.escape(event.name)
            emit(
                f'<tr id="s-{name}"><td>{name}</td>'
                f"<td>{assignment or 'all zero'}</td>"
                f"<td>{format_rational(problem.objective.evaluate(point))}</td></tr>"
            )
        else:
            msg = "event stream has a second header"
            raise ValueError(msg)
    emit("</table>")
    out += derivation_rows
    emit("</table>")

    emit("</body>")
    emit("</html>")
    return "\n".join(out) + "\n"
