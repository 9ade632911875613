"""Shared fixtures and the acceptance summary hook."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest

from mipcert import KEEP_UNTIL_END, Certificate, read_certificate
from mipcert.checker import CheckerState, Rejection

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_NAMES = ("small_range", "rounding_chain", "split_infeasible")


def load_golden(name: str) -> Certificate:
    with open(DATA_DIR / f"{name}.crt", encoding="utf-8") as handle:
        return read_certificate(handle)


def golden_text(name: str) -> str:
    return (DATA_DIR / f"{name}.crt").read_text(encoding="utf-8")


def keep_every_row(certificate: Certificate) -> Certificate:
    """The certificate with every last use cleared to -1, so no row is evicted."""
    derivations = tuple(
        replace(derivation, last_use=KEEP_UNTIL_END) for derivation in certificate.derivations
    )
    return replace(certificate, derivations=derivations)


def checked_assumption_sets(certificate: Certificate) -> dict[int, frozenset[int]]:
    """Each derivation's assumption set as the checker computes it.

    A :class:`CheckerState` checks the derivations in order, and each set is
    read right after its row is checked, while the row is live. Collection
    stops at the first rejected row.
    """
    state = CheckerState(certificate.problem, certificate.goal)
    sets: dict[int, frozenset[int]] = {}
    for position, derivation in enumerate(certificate.derivations):
        index = certificate.num_original + position
        try:
            state.verify_derivation(derivation, index)
        except Rejection:
            break
        sets[index] = state.assumptions(index)
    return sets


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
