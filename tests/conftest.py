"""Shared fixtures and the acceptance summary hook."""

from __future__ import annotations

import re
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

import pytest

from mipcert import KEEP_UNTIL_END, Certificate, Constraint, Uns, read_certificate
from mipcert.certfile import Event, split_header
from mipcert.checker import CheckerState, Rejection
from mipcert.model import replace

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_NAMES = ("small_range", "rounding_chain", "split_infeasible")

#: Whitespace a re-layout may put between two tokens of a certificate: rows split
#: over lines, comments, several rows on one line.
GAPS = (" ", "  ", "\t", "\n", "\n\n", " \n  \n ", " % a note\n", "\n% a whole-line note\n")


def load_golden(name: str) -> Certificate:
    with open(DATA_DIR / f"{name}.crt", encoding="utf-8") as handle:
        return read_certificate(handle)


def golden_text(name: str) -> str:
    return (DATA_DIR / f"{name}.crt").read_text(encoding="utf-8")


def chain_lines(length: int) -> list[str]:
    """The criterion-9 chain: ``D_k: x >= 0`` from row ``k - 1``, every hint -1."""
    lines = [
        "VER 1",
        "VAR 1",
        "x",
        "INT 0",
        "OBJ min",
        "1 0 1",
        "CON 1",
        "C1 G 0 1 0 1",
        "RTP range 0 inf",
        "SOL 0",
        f"DER {length}",
    ]
    for step in range(1, length + 1):
        lines.append(f"D{step} G 0 1 0 1 {{ lin 1 {step - 1} 1 }} -1")
    return lines


def certificate_rows(certificate: Certificate) -> tuple[Constraint, ...]:
    """Every row's constraint, in combined index order: originals, then derivations."""
    derived = (derivation.constraint for derivation in certificate.derivations)
    return tuple(chain(certificate.problem.constraints, derived))


def goal_rows(source: Certificate | Iterable[Event]) -> tuple[int, ...]:
    """Indices of the derivations that prove the goal, as ``CheckerState.run``
    yields them, up to the first rejected row if there is one."""
    header, events = split_header(source)
    rows: list[int] = []
    try:
        for index in CheckerState(header.problem, header.goal).run(events):
            rows.append(index)
    except Rejection:
        pass
    return tuple(rows)


def keep_every_row(certificate: Certificate) -> Certificate:
    """The certificate with every last use cleared to -1, so no row is evicted."""
    derivations = tuple(
        replace(derivation, last_use=KEEP_UNTIL_END) for derivation in certificate.derivations
    )
    return replace(certificate, derivations=derivations)


def checked_assumption_sets(certificate: Certificate) -> dict[int, frozenset[int]]:
    """Each derivation's assumption set as the checker computes it, as a frozenset.

    A :class:`CheckerState` checks the derivations in order, and each set is
    read right after its row is checked, while the row is live. Each stored
    set must be a strictly increasing tuple; its contents are returned as a
    frozenset, to compare with sets written in any order. Collection stops at
    the first rejected row.
    """
    state = CheckerState(certificate.problem, certificate.goal)
    sets: dict[int, frozenset[int]] = {}
    for position, derivation in enumerate(certificate.derivations):
        index = certificate.num_original + position
        try:
            state.verify_derivation(derivation, index)
        except Rejection:
            break
        stored = state.assumptions(index)
        assert type(stored) is tuple and all(a < b for a, b in zip(stored, stored[1:])), stored
        sets[index] = frozenset(stored)
    return sets


def _cited(reason) -> tuple[int, ...]:
    if isinstance(reason, Uns):
        return (reason.i1, reason.a1, reason.i2, reason.a2)
    return tuple(index for index, _ in getattr(reason, "terms", ()))


def goal_reachable(certificate: Certificate) -> set[int]:
    """Combined indices the goal proof depends on, found by a fixpoint.

    Starts from the rows the checker reports as proving the goal and adds
    every row a reached derivation cites until nothing new is reached.
    """
    num_original = certificate.num_original
    reached = set(goal_rows(certificate))
    while True:
        grown = reached | {
            cited
            for index in reached
            if index >= num_original
            for cited in _cited(certificate.derivations[index - num_original].reason)
        }
        if grown == reached:
            return reached
        reached = grown


def described_derivations(
    certificate: Certificate, indices: set[int] | None = None
) -> list[tuple]:
    """Derivations in file order as (name, rule, cited names, multipliers).

    Rows are named rather than numbered, so a certificate whose references
    were renumbered describes the same rows. ``indices`` selects rows by
    combined index; by default every derivation is described.
    """
    rows = certificate_rows(certificate)
    described = []
    for position, derivation in enumerate(certificate.derivations):
        if indices is not None and certificate.num_original + position not in indices:
            continue
        reason = derivation.reason
        cited = tuple(rows[i].name for i in _cited(reason))
        multipliers = tuple(m for _, m in getattr(reason, "terms", ()))
        described.append((derivation.constraint.name, type(reason).__name__, cited, multipliers))
    return described


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture()
def small_range() -> Certificate:
    return load_golden("small_range")


@pytest.fixture()
def rounding_chain() -> Certificate:
    return load_golden("rounding_chain")


@pytest.fixture()
def split_infeasible() -> Certificate:
    return load_golden("split_infeasible")


_CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Print one pass/fail line per acceptance criterion that ran."""
    outcomes: dict[int, str] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, ()):
            nodeid = getattr(report, "nodeid", "")
            match = _CRITERION_PATTERN.search(nodeid)
            if match:
                number = int(match.group(1))
                if outcomes.get(number) != "FAIL":
                    outcomes[number] = label
    if not outcomes:
        return
    from test_acceptance import CRITERIA

    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        summary = CRITERIA.get(number, "")
        terminalreporter.write_line(f"[{outcomes[number]}] criterion {number}: {summary}")
