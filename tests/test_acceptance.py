"""End-to-end acceptance gate.

Each test covers one numbered criterion; the terminal summary hook in
conftest.py prints a PASS/FAIL line per criterion after the run. Tolerances
(timing budgets, instance counts, mutation counts) are pinned in the tests.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest
from conftest import GOLDEN_NAMES, DATA_DIR, checked_assumption_sets, golden_text, load_golden
from test_tighten import fig_junk, inject_junk

from mipcert.certfile import parse_certificate, read_certificate, write_certificate, ParseError
from mipcert.checker import verify_certificate, verify_certificate_file
from mipcert.model import (
    Asm,
    Certificate,
    Constraint,
    Derivation,
    Lin,
    ObjectiveSense,
    Problem,
    Rnd,
    Sense,
    SparseVec,
    Uns,
    is_absurd,
)
from mipcert.numeric import Rational as R
from mipcert.solve import SolveConfig, solve
from mipcert.tighten import tighten

CRITERIA = {
    1: "golden small optimality certificate verifies in under 10 ms",
    2: "golden rounding-chain certificate verifies with rounded rhs exactly 0 and 1",
    3: "golden infeasibility certificate verifies with the expected assumption sets",
    4: "every single-token mutation of each golden is rejected with a failing index",
    5: "200 random pure-integer problems match brute-force enumeration and all certificates verify",
    6: "regenerated infeasibility proof has 4 assumptions, 2 unsplits, >=3 absurd combinations",
    7: "tightening preserves verdicts, is idempotent, prunes all junk, and never raises peak memory",
    8: "round trips are structurally identical and fuzzed invalid files fail with positions",
    9: "a 10,000-step chain checks in under 2 s and streams with peak live rows under 100",
}


def test_criterion_1() -> None:
    path = str(DATA_DIR / "small_range.crt")
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        report = verify_certificate_file(path)
        timings.append(time.perf_counter() - started)
        assert report.verified
    assert min(timings) < 0.010, f"verification took {min(timings):.4f}s"


def test_criterion_2() -> None:
    certificate = load_golden("rounding_chain")
    assert verify_certificate(certificate).verified
    reasons = [type(d.reason) for d in certificate.derivations]
    assert reasons == [Lin, Rnd, Lin, Rnd]
    rounded_rhs = [
        d.constraint.rhs for d in certificate.derivations if isinstance(d.reason, Rnd)
    ]
    assert rounded_rhs == [R(0), R(1)]


def test_criterion_3() -> None:
    certificate = load_golden("split_infeasible")
    report = verify_certificate(certificate)
    assert report.verified
    index_of = {
        d.constraint.name: certificate.num_original + position
        for position, d in enumerate(certificate.derivations)
    }

    def named(*names: str) -> frozenset[int]:
        return frozenset(index_of[name] for name in names)

    expected = {
        "A1": named("A1"),
        "A2": named("A2"),
        "A3": named("A3"),
        "C4": named("A1", "A3"),
        "A4": named("A4"),
        "C5": named("A1", "A4"),
        "C6": named("A2"),
        "C7": named("A2"),
        "C8": named("A2"),
        "C9": named("A1"),
        "C10": frozenset(),
    }
    assert checked_assumption_sets(certificate) == {
        index_of[name]: assumption_set for name, assumption_set in expected.items()
    }
    assert report.goal_proven_by == (index_of["C10"],)


# single-token mutations: (1-based line, whitespace token position, new token)
MUTATIONS = {
    "small_range": [
        (14, 2, "2"), (14, 2, "3/2"),
        (14, 5, "3"), (14, 5, "1"),
        (14, 7, "2"), (14, 7, "3"),
        (14, 12, "-1"), (14, 12, "2"), (14, 12, "1/2"),
        (14, 14, "1"), (14, 14, "-2"), (14, 14, "-1/2"),
        (12, 3, "4/7"), (12, 3, "2/7"), (12, 3, "1"), (12, 3, "-3/7"),
        (12, 5, "2/7"), (12, 5, "1"), (12, 5, "-1/7"), (12, 5, "6/7"),
    ],
    "rounding_chain": [
        (13, 3, "-1"), (13, 3, "1/2"), (13, 3, "3/2"), (13, 2, "0"),
        (15, 2, "0"), (15, 2, "-1/4"),
        (15, 10, "1"), (15, 10, "-1/2"),
        (15, 12, "1/2"), (15, 12, "-1"),
        (16, 9, "0"), (16, 9, "1"),
        (16, 2, "1"), (16, 2, "-1"),
        (16, 10, "-1"), (16, 10, "2"),
        (17, 13, "2"),
        (17, 14, "1/4"), (17, 14, "-3/4"),
        (17, 2, "1/2"),
        (18, 11, "3"), (18, 11, "2"),
        (18, 2, "2"),
        (18, 12, "1/3"), (18, 12, "-1"),
    ],
    "split_infeasible": [
        (16, 2, "-1"), (16, 2, "1/2"),
        (17, 2, "2"), (17, 2, "0"),
        (18, 2, "1"), (18, 2, "-1"),
        (20, 2, "2"), (20, 2, "0"),
        (19, 8, "-1"), (19, 10, "2"),
        (23, 2, "2"), (23, 10, "1/2"),
        (24, 8, "1/3"), (24, 12, "3"),
        (25, 6, "5"), (25, 7, "4"), (25, 8, "6"), (25, 9, "5"),
        (26, 6, "10"), (26, 7, "7"), (26, 8, "9"), (26, 9, "5"),
    ],
}


def mutate_token(lines: list[str], lineno: int, position: int, token: str) -> list[str]:
    mutated = list(lines)
    tokens = mutated[lineno - 1].split()
    assert tokens[position] != token, "mutation must change the file"
    tokens[position] = token
    mutated[lineno - 1] = " ".join(tokens)
    return mutated


def test_criterion_4() -> None:
    for name, mutations in MUTATIONS.items():
        lines = golden_text(name).splitlines()
        assert verify_certificate(parse_certificate(lines)).verified
        assert len(mutations) >= 20
        for lineno, position, token in mutations:
            mutated = mutate_token(lines, lineno, position, token)
            report = verify_certificate(parse_certificate(mutated))
            label = f"{name} line {lineno} token {position} -> {token!r}"
            assert not report.verified, f"false accept: {label}"
            assert report.failure.index is not None, f"no failing index: {label}"


# --- random pure-integer instances vs. exhaustive enumeration ---------------


def random_integer_problem(rng: random.Random) -> tuple[Problem, list[tuple[int, int]]]:
    num_variables = rng.randint(1, 6)
    boxes = []
    rows = []
    for index in range(num_variables):
        width = rng.randint(0, 3)
        low = rng.randint(-10, 10 - width)
        boxes.append((low, low + width))
        rows.append(
            Constraint(f"lo{index}", Sense.GE, SparseVec(((index, R(1)),)), R(low))
        )
        rows.append(
            Constraint(f"hi{index}", Sense.LE, SparseVec(((index, R(1)),)), R(low + width))
        )
    for row_number in range(rng.randint(1, 8)):
        entries = tuple(
            (index, R(value))
            for index, value in enumerate(
                rng.randint(-10, 10) for _ in range(num_variables)
            )
            if value != 0
        )
        sense = rng.choice((Sense.GE, Sense.GE, Sense.LE, Sense.LE, Sense.EQ))
        rows.append(Constraint(f"r{row_number}", sense, SparseVec(entries), R(rng.randint(-10, 10))))
    objective = SparseVec(
        tuple(
            (index, R(value))
            for index, value in enumerate(
                rng.randint(-10, 10) for _ in range(num_variables)
            )
            if value != 0
        )
    )
    problem = Problem(
        variable_names=tuple(f"x{i}" for i in range(num_variables)),
        integer_set=frozenset(range(num_variables)),
        objective=objective,
        objective_sense=rng.choice((ObjectiveSense.MIN, ObjectiveSense.MAX)),
        constraints=tuple(rows),
    )
    return problem, boxes


def enumerate_optimum(problem: Problem, boxes: list[tuple[int, int]]):
    """Exact optimum by integer grid enumeration (int64 stays exact here)."""
    grids = np.meshgrid(
        *[np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in boxes], indexing="ij"
    )
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    feasible = np.ones(points.shape[0], dtype=bool)
    for row in problem.constraints:
        coeffs = np.zeros(problem.num_variables, dtype=np.int64)
        for index, value in row.lhs:
            coeffs[index] = int(value)
        activity = points @ coeffs
        rhs = int(row.rhs)
        if row.sense is Sense.GE:
            feasible &= activity >= rhs
        elif row.sense is Sense.LE:
            feasible &= activity <= rhs
        else:
            feasible &= activity == rhs
    if not feasible.any():
        return None
    objective = np.zeros(problem.num_variables, dtype=np.int64)
    for index, value in problem.objective:
        objective[index] = int(value)
    values = points[feasible] @ objective
    if problem.objective_sense is ObjectiveSense.MIN:
        return int(values.min())
    return int(values.max())


def test_criterion_5() -> None:
    rng = random.Random(574218)
    started = time.perf_counter()
    for instance in range(200):
        problem, boxes = random_integer_problem(rng)
        expected = enumerate_optimum(problem, boxes)
        result = solve(problem, SolveConfig(cg_objective=bool(instance % 2)))
        if expected is None:
            assert result.status == "infeasible", f"instance {instance}"
        else:
            assert result.status == "optimal", f"instance {instance}"
            assert result.value == R(expected), f"instance {instance}"
        assert verify_certificate(result.certificate).verified, f"instance {instance}"
    assert time.perf_counter() - started < 300


def test_criterion_6() -> None:
    problem = load_golden("split_infeasible").problem
    result = solve(problem, SolveConfig(cg_objective=True))
    assert result.status == "infeasible"
    report = verify_certificate(result.certificate)
    assert report.verified
    counts = report.stats.reason_counts
    assert counts["asm"] == 4
    assert counts["uns"] == 2
    absurd_combinations = [
        d
        for d in result.certificate.derivations
        if isinstance(d.reason, Lin) and is_absurd(d.constraint)
    ]
    assert len(absurd_combinations) >= 3


# --- tightening across a corpus ---------------------------------------------


def generic_junk(certificate: Certificate) -> tuple[Derivation, ...]:
    """Two dead rows valid for any certificate with at least one constraint:
    an undischarged assumption and a strictly weakened scaling of row 0
    (weakened so it can never become a goal prover)."""
    row = certificate.problem.constraints[0]
    scaled = Constraint(
        "ZJ2",
        row.sense,
        SparseVec(tuple((i, 2 * c) for i, c in row.lhs)),
        2 * row.rhs + (R(-1) if row.sense is Sense.GE else R(1)),
    )
    assumption = Derivation(
        Constraint("ZJ1", Sense.LE, SparseVec(((0, R(1)),)), R(10**6)), Asm()
    )
    return (assumption, Derivation(scaled, Lin(((0, R(2)),))))


def solver_corpus() -> list[Certificate]:
    rng = random.Random(91190)
    certificates = []
    for instance in range(20):
        problem, _ = random_integer_problem(rng)
        result = solve(problem, SolveConfig(cg_objective=bool(instance % 2)))
        certificates.append(result.certificate)
    return certificates


def test_criterion_7() -> None:
    corpus = [(load_golden(name), None) for name in GOLDEN_NAMES]
    corpus.append((inject_junk(load_golden("split_infeasible"), 4, fig_junk()), 3))
    for certificate in solver_corpus():
        corpus.append((certificate, None))
        if all(row.sense is not Sense.EQ for row in certificate.problem.constraints[:1]):
            junk = generic_junk(certificate)
            corpus.append((inject_junk(certificate, 0, junk), len(junk)))

    for certificate, junk_count in corpus:
        baseline = verify_certificate(certificate)
        assert baseline.verified
        for prune in (False, True):
            tightened = tighten(certificate, prune=prune)
            replay = verify_certificate(tightened)
            assert replay.verified  # verdict preserved; eviction never faults
            assert replay.stats.peak_live <= baseline.stats.peak_live
            assert tighten(tightened, prune=prune) == tightened
            if prune and junk_count is not None:
                dropped = len(certificate.derivations) - len(tightened.derivations)
                assert dropped == junk_count  # 100% of the injected junk
                names = {d.constraint.name for d in tightened.derivations}
                assert names.isdisjoint({"J1", "J2", "J3", "ZJ1", "ZJ2"})


# --- round trips and fuzzing --------------------------------------------------


def is_numeric_token(token: str) -> bool:
    body = token[1:] if token.startswith("-") else token
    if "/" in body:
        numerator, _, denominator = body.partition("/")
        return numerator.isdigit() and denominator.isdigit()
    return body.isdigit()


def test_criterion_8(tmp_path) -> None:
    # Structural identity: parse -> write -> parse is the identity, for the
    # goldens and for freshly generated certificates of every reason kind.
    generated = solve(
        load_golden("split_infeasible").problem, SolveConfig(cg_objective=True)
    ).certificate
    reasons = {type(d.reason) for d in generated.derivations}
    assert reasons == {Asm, Lin, Rnd, Uns}
    corpus = [load_golden(name) for name in GOLDEN_NAMES] + [generated]
    for certificate in corpus:
        path = tmp_path / "out.crt"
        with open(path, "w", encoding="utf-8") as sink:
            write_certificate(certificate, sink)
        with open(path, encoding="utf-8") as source:
            again = read_certificate(source)
        assert again == certificate

    # Fuzzing: corrupting any numeric token, and truncating at any line,
    # must be rejected with a positioned error.
    fuzz_cases = 0
    for name in GOLDEN_NAMES:
        lines = golden_text(name).splitlines()
        for lineno, line in enumerate(lines, start=1):
            for position, token in enumerate(line.split()):
                if not is_numeric_token(token):
                    continue
                for garbage in ("xyz", "1/0"):
                    mutated = mutate_token(lines, lineno, position, garbage)
                    with pytest.raises(ParseError) as excinfo:
                        for _ in parse_certificate(mutated):
                            pass
                    error = excinfo.value
                    assert 0 <= error.line <= len(lines)
                    assert str(error).startswith(f"line {error.line}:")
                    fuzz_cases += 1
        for prefix_length in range(len(lines)):
            with pytest.raises(ParseError) as excinfo:
                for _ in parse_certificate(lines[:prefix_length]):
                    pass
            assert 0 <= excinfo.value.line <= prefix_length
            fuzz_cases += 1
    assert fuzz_cases > 300


def chain_lines(length: int) -> list[str]:
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


def test_criterion_9() -> None:
    lines = chain_lines(10_000)
    started = time.perf_counter()
    report = verify_certificate(parse_certificate(iter(lines)))
    elapsed = time.perf_counter() - started
    assert report.verified
    assert report.stats.num_derivations == 10_000
    assert elapsed < 2.0, f"chain verification took {elapsed:.3f}s"
    assert report.stats.peak_live == 10_001  # nothing evicted without hints

    tightened = tighten(read_certificate(iter(lines)))
    replay = verify_certificate(tightened)
    assert replay.verified
    assert replay.stats.peak_live < 100
