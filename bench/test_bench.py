"""Tests of the benchmark's generators, oracles and mutants, at small sizes.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from mipcert import parse_certificate, parse_problem, read_certificate, tighten, verify_certificate  # noqa: E402
from mipcert.solve import SolveConfig, solve  # noqa: E402


def verdict_of(text: str) -> str:
    return run.describe_report(verify_certificate(parse_certificate(io.StringIO(text))))


def solved_text(problem: wl.Problem, cg: bool = False) -> str:
    result = solve(parse_problem(io.StringIO(problem.text)), SolveConfig(cg_objective=cg))
    sink = io.StringIO()
    from mipcert import write_certificate

    write_certificate(result.certificate, sink)
    return sink.getvalue()


SMALL_CERTS = [
    wl.chain_certificate(40),
    *(wl.tree_certificate(seed, depth=4) for seed in range(4)),
]
SMALL_PROBLEMS = [
    wl.chain_problem(),
    wl.tree_problem(depth=3),
    wl.knapsack_problem(7, 6),
    wl.parity_problem(3),
    *wl.bnb_problems()[2:],
]


@pytest.mark.parametrize("cert", SMALL_CERTS, ids=lambda c: f"{c.name}-{c.derivations}")
def test_generated_certificates_verify(cert: wl.CertInput) -> None:
    assert verdict_of(cert.text) == cert.verdict


@pytest.mark.parametrize("problem", SMALL_PROBLEMS, ids=lambda p: p.name)
@pytest.mark.parametrize("cg", [False, True])
def test_solver_matches_the_oracles(problem: wl.Problem, cg: bool) -> None:
    text = solved_text(problem, cg)
    assert verdict_of(text) == problem.verdict()


def test_split_tree_prunes_and_uses_every_rule() -> None:
    cert = wl.tree_certificate(3, depth=5)
    assert cert.info["asm"] == 2 * (2**5 - 1) and cert.info["lin"] == 2**5
    assert 0 < cert.info["uns"] < 2**5 - 1
    assert wl.expected_kept(cert.text) < cert.derivations


@pytest.mark.parametrize("workload", ["chain", "tree", "bnb"])
def test_same_seed_same_files(tmp_path: Path, monkeypatch, workload: str) -> None:
    monkeypatch.setattr(wl, "CHAIN_ROWS", 30)
    monkeypatch.setattr(wl, "TREE_DEPTH", 4)

    def files(seed: int, name: str) -> dict[str, bytes]:
        run.setup(workload, seed, tmp_path / name)
        return {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}

    first = files(9, "a")
    assert first and first == files(9, "b")
    if workload != "bnb":  # the bnb problems are fixed; its mutant is cut from solver output
        assert first != files(10, "c")  # for the chain, only the mutant moves


def mutant_texts() -> list[tuple[str, str]]:
    texts = [(c.name, c.text) for c in SMALL_CERTS]
    texts.append(("tree12", wl.tree_certificate(1, depth=6).text))
    # Parity's last tenth holds only unsplits of absurd rows, which no edit
    # provably breaks; the benchmark mutates the knapsack certificate.
    knapsack = SMALL_PROBLEMS[2]
    texts += [(f"{knapsack.name}-cg{cg}", solved_text(knapsack, cg)) for cg in (False, True)]
    return texts


@pytest.mark.parametrize("name,text", mutant_texts(), ids=lambda value: value[:20])
def test_every_mutant_is_rejected_at_its_row(name: str, text: str) -> None:
    counts = {line.split()[0]: int(line.split()[1]) for line in text.splitlines() if line[:4] in ("CON ", "DER ")}
    last_tenth = counts["CON"] + counts["DER"] - max(1, counts["DER"] // 10)
    for seed in range(3):
        built = wl.mutate(text, seed)
        assert built is not None, name
        mutated, index = built
        assert index >= last_tenth
        report = verify_certificate(parse_certificate(io.StringIO(mutated)))
        assert not report.verified and report.failure.index == index, (name, seed)


@pytest.mark.parametrize("name,text", mutant_texts(), ids=lambda value: value[:20])
def test_expected_kept_matches_tighten(name: str, text: str) -> None:
    lean = tighten(read_certificate(io.StringIO(text)), prune=True)
    assert wl.expected_kept(text) == len(lean.derivations)


def test_knapsack_dp_by_hand() -> None:
    assert wl.knapsack_optimum([2, 3, 4, 5], [3, 4, 5, 6], 5) == 7
    assert wl.knapsack_optimum([5], [10], 4) == 0
    assert wl.knapsack_optimum([1, 1, 1], [1, 2, 3], 2) == 5


def test_enumeration_by_hand() -> None:
    # 0 <= x, y <= 3, x + y <= 4, 2x - y >= 1: max x + 2y is 6 at (2, 2).
    rows = [("a", "L", 4, [(0, 1), (1, 1)]), ("b", "G", 1, [(0, 2), (1, -1)])]
    assert wl.enumerate_optimum([(0, 3), (0, 3)], rows, [(0, 1), (1, 2)], "max") == 6
    assert wl.enumerate_optimum([(0, 3), (0, 3)], rows, [(0, 1), (1, 2)], "min") == 1
    parity = [("p", "E", 1, [(0, 2), (1, -2)])]
    assert wl.enumerate_optimum([(0, 10), (0, 10)], parity, [(0, 1)], "min") is None


def test_dp_and_enumeration_agree_on_random_knapsacks() -> None:
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 6)
        weights = [rng.randint(1, 9) for _ in range(n)]
        values = [rng.randint(1, 9) for _ in range(n)]
        capacity = rng.randint(0, sum(weights))
        rows = [("cap", "L", capacity, list(enumerate(weights)))]
        by_enumeration = wl.enumerate_optimum([(0, 1)] * n, rows, list(enumerate(values)), "max")
        assert wl.knapsack_optimum(weights, values, capacity) == by_enumeration


def test_size_reads_every_coefficient() -> None:
    cert = wl.tree_certificate(2, depth=3)
    values = [Fraction(t) for t in cert.text.split() if "/" in t]
    size = wl.size(cert.text)
    assert size["max_coef_bits"] == max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)
    assert size["rows"] == cert.derivations and size["bytes"] == len(cert.text)
    assert wl.size(wl.parity_problem(4).text)["rows"] == 3


def test_benchmark_json_names_the_metrics_run_prints() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WHY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path: Path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "chain", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_tracer_self_time_and_restore() -> None:
    from tracing import Tracer

    class Layer:
        @staticmethod
        def inner(x: int) -> int:
            return sum(range(x))

        @staticmethod
        def outer(x: int) -> int:
            return Layer.inner(x) + Layer.inner(x)

    original = vars(Layer)["inner"]
    tracer = Tracer()
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "outer", lambda x: f"outer{x}")
    with tracer.operation("op"):
        assert Layer.outer(50_000) == 2 * sum(range(50_000))
    tracer.restore()
    assert vars(Layer)["inner"] is original
    spans = tracer.summary()
    assert spans["inner"][2] == 2 and spans["outer50000"][2] == 1
    outer_total, outer_self, _ = spans["outer50000"]
    assert abs(outer_total - outer_self - spans["inner"][0]) < 1e-9
    assert list(tracer.parent) == [-1, 0, 1, 1] and set(tracer.op) == {0}
