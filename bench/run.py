"""End-to-end benchmark of the mipcert command line, with a traced per-layer run.

Run from the repository root::

    python3 bench/run.py --workload chain|tree|bnb --seed N --seconds S --trace 0|1

The seed generates the workload's inputs (see ``workloads.py``); the program
only sees the files written. With ``--trace 0`` the harness runs the CLI as
child processes, one at a time, in cycles of ``solve``, ``check``,
``ttn --prune``, ``check`` of the tightened file and ``html``: two cycles,
then more until the next would overrun ``--seconds``. It reports each
end-to-end metric as the median over cycles. Times are calibrated seconds
(see :func:`calibrate`); peak RSS is each child's own ``wait4`` rusage. With
``--trace 1`` it runs one cycle in process with spans around the package's
public functions (see ``tracing.py``) and reports per-layer metrics.

Every verdict is compared with an oracle that does not use mipcert: the
generator's known verdict, a knapsack DP, enumeration of the criterion-5
boxes, and an independent count of the rows ``ttn --prune`` must keep. Every
emitted certificate and ``ttn`` output is re-verified in process outside the
timed region, and a seeded must-reject mutant is checked once per run. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads as wl
from tracing import Tracer

WHY = {
    "chain": "criterion-9 chain: integer tokens, one lin row each, no simplex; "
    "per-row parse and checker overhead, and ttn eviction of a fully live file",
    "tree": "split-tree infeasibility proof: Fraction-heavy linear_combine, assumption "
    "sets, uns, real pruning and a heavy render; only a tiny solve",
    "bnb": "solve with and without --cg-objective on knapsack, parity and criterion-5 "
    "problems: exact simplex pivots dominate; certificates are small",
}
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX = 20
CHILD_TIMEOUT_S = 90.0
STARTUP_REPEATS = 5
MICRO_REPEATS = 3
SMALL_CERT = Path("tests/data/small_range.crt")
CALIBRATION_REFERENCE_S = 0.025


def calibrate() -> float:
    """Seconds taken by a fixed slice of pure-Python work (Fraction
    arithmetic, dict updates, string splits): 25 to 50 ms on a shared 2-core
    x86-64 VM.

    On such a host the speed drifts by up to 1.9x over stretches of seconds,
    as other tenants come and go, and the drift moves every process alike.
    A timing is therefore scaled by ``CALIBRATION_REFERENCE_S`` over the mean
    of the calibrations just before and after it, which gives seconds at a
    fixed reference speed; the raw wall times go to the provenance line.
    """
    gc.disable()  # so that the harness's own heap does not weigh in
    try:
        started = time.perf_counter()
        total, counts = Fraction(0), {}
        for i in range(1, 10_000):
            total += Fraction(i % 17 + 1, i % 13 + 2)
            counts[i % 101] = counts.get(i % 101, 0) + i
            str(i).split("1")
        return time.perf_counter() - started
    finally:
        gc.enable()


# --- inputs --------------------------------------------------------------------


@dataclass
class Cert:
    """A certificate file the pipeline checks, tightens and renders."""

    path: Path
    verdict: str
    derivations: int
    kept: int
    html_rows: int


@dataclass
class Solve:
    problem: wl.Problem
    path: Path
    flags: tuple[str, ...]
    output: Path
    piped: bool  # its certificate also goes through check, ttn and html


@dataclass
class Inputs:
    certs: list[Cert]
    solves: list[Solve]
    mutant: tuple[Path, int] | None = None


def describe_text(text: str) -> tuple[int, int, int]:
    """Derivations, rows ``ttn --prune`` keeps, and table rows ``html`` renders."""
    header = dict(line.split()[:2] for line in text.splitlines() if line[:4] in ("CON ", "SOL ", "DER "))
    derivations = int(header["DER"])
    return derivations, wl.expected_kept(text), int(header["CON"]) + int(header["SOL"]) + derivations


def cert_for(path: Path, verdict: str) -> Cert:
    return Cert(path, verdict, *describe_text(path.read_text()))


def piped_certs(inputs: Inputs) -> list[Cert]:
    """The generated certificates, then those ``solve`` wrote for the pipeline.

    A missing output is skipped: the solve that failed to write it has
    already been counted as failed.
    """
    return inputs.certs + [
        cert_for(job.output, job.problem.verdict())
        for job in inputs.solves
        if job.piped and job.output.exists()
    ]


def size_of(path: Path) -> dict:
    return {"input": path.name, **wl.size(path.read_text())}


def setup(workload: str, seed: int, directory: Path) -> Inputs:
    """Generate and write the workload's inputs and their oracle answers."""
    directory.mkdir(parents=True)
    if workload == "bnb":
        solves = []
        for problem in wl.bnb_problems():
            path = directory / f"{problem.name}.prb"
            path.write_text(problem.text)
            for flags in ((), ("--cg-objective",)):
                tag = "-cg" if flags else ""
                piped = not flags and not problem.name.startswith("crit5")
                solves.append(Solve(problem, path, flags, directory / f"{problem.name}{tag}.crt", piped))
        return Inputs([], solves)

    if workload == "chain":
        generated, problem = wl.chain_certificate(wl.CHAIN_ROWS), wl.chain_problem()
    else:
        generated, problem = wl.tree_certificate(seed, wl.TREE_DEPTH), wl.tree_problem()
    path = directory / f"{generated.name}.crt"
    path.write_text(generated.text)
    problem_path = directory / f"{problem.name}.prb"
    problem_path.write_text(problem.text)
    mutant_text, mutant_index = wl.mutate(generated.text, seed)
    mutant_path = directory / f"{generated.name}-mutant.crt"
    mutant_path.write_text(mutant_text)
    cert = Cert(path, generated.verdict, *describe_text(generated.text))
    solve = Solve(problem, problem_path, (), directory / f"{problem.name}-solved.crt", False)
    return Inputs([cert], [solve], (mutant_path, mutant_index))


# --- running the CLI -------------------------------------------------------------


class Runner:
    """Runs and checks operations, counting attempts and failures.

    Child processes are started by ``spawner.py``, which this class starts
    before the harness grows, so each child's peak RSS is its own.
    """

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, tuple[str, str]] = {}  # digest -> (text, verdict)
        self._spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            text=True,
        )
        calibrate()  # the first run in a process is cold
        self.calibrations = [calibrate()]

    def scaled(self, wall: float) -> float:
        """``wall`` at the reference speed, from the calibrations around it."""
        self.calibrations.append(calibrate())
        return wall * CALIBRATION_REFERENCE_S * 2 / (self.calibrations[-2] + self.calibrations[-1])

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def cli(self, args: list, rc: int, lines: list[str]) -> tuple[float, float, float]:
        """Run ``mipcert`` once and check its exit code and standard output.

        Each stdout line must fully match the corresponding regular
        expression. Returns calibrated seconds, wall seconds and peak RSS in MB.
        """
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        request = {
            "argv": [sys.executable, "-m", "mipcert.cli", *map(str, args)],
            "cwd": str(self.root),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())),
        }
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        stdout = out_path.read_text().splitlines()
        stderr = err_path.read_text()
        matches = len(stdout) == len(lines) and all(
            re.fullmatch(want, got) for got, want in zip(stdout, lines)
        )
        self.expect(
            reply["status"] == rc and matches and "Traceback" not in stderr,
            f"mipcert {' '.join(map(str, args))}: exit {reply['status']}, "
            f"stdout {stdout[:3]!r}, stderr {stderr[-300:]!r}; wanted exit {rc}, {lines!r}",
        )
        return self.scaled(reply["wall_s"]), reply["wall_s"], reply["maxrss_kb"] / 1024

    def keep_output(self, path: Path, verdict: str) -> None:
        """Remember an emitted certificate for re-verification after timing."""
        text = path.read_text() if path.exists() else ""
        self.outputs.setdefault(hashlib.sha256(text.encode()).hexdigest(), (text, verdict))

    def reverify(self) -> None:
        from mipcert import parse_certificate, verify_certificate

        for text, verdict in self.outputs.values():
            try:
                report = verify_certificate(parse_certificate(io.StringIO(text)))
                got = describe_report(report)
            except Exception as exc:  # a crash on our own output is a failure to report
                got = f"error: {exc!r}"
            self.expect(got == verdict, f"in-process re-verification: {got!r}, wanted {verdict!r}")

    def check_mutant(self, mutant: tuple[Path, int] | None) -> None:
        """``check`` must reject the seeded mutant at the mutated row."""
        if not self.expect(mutant is not None, "no row qualified for a mutant"):
            return
        path, index = mutant
        self.cli(["check", path], 1, [re.escape(f"rejected at index {index} (") + ".*"])


def describe_report(report) -> str:
    """A verification report in the words of ``mipcert check``."""
    from mipcert import InfeasibleGoal, format_rational

    if not report.verified:
        return f"rejected at index {report.failure.index}"
    goal = report.goal
    if isinstance(goal, InfeasibleGoal):
        return "verified: infeasible"
    lower = "-inf" if goal.lower is None else format_rational(goal.lower)
    upper = "inf" if goal.upper is None else format_rational(goal.upper)
    return f"verified: range [{lower}, {upper}]"


# --- end-to-end cycles -----------------------------------------------------------------


def solve_lines(job: Solve) -> list[str]:
    return [re.escape(job.problem.expected_stdout()), re.escape(f"wrote {job.output} (") + r"\d+ nodes\)"]


def ttn_line(cert: Cert) -> str:
    return f"tightened: {cert.kept} derivations ({cert.derivations - cert.kept} pruned)"


def measured_cycle(run: Runner, inputs: Inputs) -> tuple[dict[str, float], dict[str, float]]:
    """solve, then check / ttn --prune / check / html on every certificate.

    Returns the cycle's metrics with calibrated times and with wall times.
    """
    seconds = {kind: [0.0, 0.0] for kind in ("solve", "check", "ttn", "html")}
    rss = dict.fromkeys(("solve", "check", "ttn", "recheck"), 0.0)

    def add(kind: str, result: tuple[float, float, float]) -> None:
        if kind in seconds:
            seconds[kind][0] += result[0]
            seconds[kind][1] += result[1]
        if kind in rss:
            rss[kind] = max(rss[kind], result[2])

    for job in inputs.solves:
        job.output.unlink(missing_ok=True)
        add("solve", run.cli(["solve", job.path, job.output, *job.flags], 0, solve_lines(job)))
        run.keep_output(job.output, job.problem.verdict())
    rows = 0
    for cert in piped_certs(inputs):
        tight = run.work / f"{cert.path.stem}-tight.crt"
        page = run.work / f"{cert.path.stem}.html"
        add("check", run.cli(["check", cert.path], 0, [re.escape(cert.verdict)]))
        rows += cert.derivations
        add("ttn", run.cli(["ttn", cert.path, tight, "--prune"], 0, [re.escape(ttn_line(cert))]))
        run.keep_output(tight, cert.verdict)
        add("recheck", run.cli(["check", tight], 0, [re.escape(cert.verdict)]))
        add("html", run.cli(["html", cert.path, page], 0, [re.escape(f"wrote {page}")]))
        rendered = page.read_text().count("<tr id=") if page.exists() else -1
        run.expect(rendered == cert.html_rows, f"{page.name}: {rendered} rows, wanted {cert.html_rows}")

    def metrics(clock: int) -> dict[str, float]:
        return {
            "check_rows_per_s": rows / seconds["check"][clock],
            "check_peak_rss_mb": rss["check"],
            "recheck_peak_rss_mb": rss["recheck"],
            "ttn_s": seconds["ttn"][clock],
            "ttn_peak_rss_mb": rss["ttn"],
            "html_s": seconds["html"][clock],
            "solve_s": seconds["solve"][clock],
            "solve_peak_rss_mb": rss["solve"],
        }

    return metrics(0), metrics(1)


def measured(run: Runner, inputs: Inputs, seconds: float) -> tuple[dict, dict, int]:
    """Run two cycles, then more while the next one fits in ``seconds``.

    Returns the per-metric medians over cycles, calibrated and wall, and the
    number of cycles.
    """
    calibrated: list[dict[str, float]] = []
    wall: list[dict[str, float]] = []
    durations: list[float] = []
    started = time.monotonic()
    while len(durations) < 2 or time.monotonic() - started + statistics.median(durations) <= seconds:
        cycle_start = time.monotonic()
        scaled, raw = measured_cycle(run, inputs)
        calibrated.append(scaled)
        wall.append(raw)
        durations.append(time.monotonic() - cycle_start)

    def medians(samples: list[dict[str, float]]) -> dict[str, float]:
        return {name: statistics.median(s[name] for s in samples) for name in samples[0]}

    return medians(calibrated), medians(wall), len(durations)


# --- traced run ------------------------------------------------------------------


def _modules():
    import importlib

    names = ("certfile", "checker", "model", "numeric", "render", "simplex", "solve", "tighten")
    return {name: importlib.import_module(f"mipcert.{name}") for name in names}


def traced_cycle(run: Runner, inputs: Inputs, tracer: Tracer, m: dict) -> dict[str, int]:
    """The end-to-end cycle in process, one top-level span per CLI command."""
    certfile, checker = m["certfile"], m["checker"]
    counts = dict.fromkeys(("peak_raw", "peak_tight", "rows_in", "rows_out", "bytes", "nodes", "tokens"), 0)
    for job in inputs.solves:
        with open(job.path) as handle:
            problem = certfile.parse_problem(handle)
        config = m["solve"].SolveConfig(cg_objective=bool(job.flags))
        with tracer.operation("solve.solve"):
            result = m["solve"].solve(problem, config)
        expected = job.problem.optimum
        got = result.value if result.status == "optimal" else None
        run.expect(got == expected, f"solve {job.problem.name}: {result.status} {got}, wanted {expected}")
        counts["nodes"] += result.num_nodes
        with open(job.output, "w") as handle:
            certfile.write_certificate(result.certificate, handle)
        run.keep_output(job.output, job.problem.verdict())
    for cert in piped_certs(inputs):
        tight = run.work / f"{cert.path.stem}-tight.crt"
        with tracer.operation("cli.check"):
            report = checker.verify_certificate_file(str(cert.path))
        run.expect(describe_report(report) == cert.verdict, f"check {cert.path.name}")
        counts["peak_raw"] = max(counts["peak_raw"], report.stats.peak_live)
        with tracer.operation("certfile.parse"), open(cert.path) as handle:
            for _ in certfile.parse_certificate(handle):
                pass
        counts["tokens"] += len(cert.path.read_text().split())
        with tracer.operation("cli.ttn"):
            with open(cert.path) as handle:
                full = certfile.read_certificate(handle)
            lean = m["tighten"].tighten(full, prune=True)
            with tracer.span("certfile.write"), open(tight, "w") as handle:
                certfile.write_certificate(lean, handle)
        run.expect(len(lean.derivations) == cert.kept, f"ttn {cert.path.name}: {len(lean.derivations)} kept")
        counts["rows_in"] += len(full.derivations)
        counts["rows_out"] += len(lean.derivations)
        run.keep_output(tight, cert.verdict)
        with tracer.operation("cli.recheck"):
            report = checker.verify_certificate_file(str(tight))
        run.expect(describe_report(report) == cert.verdict, f"recheck {tight.name}")
        counts["peak_tight"] = max(counts["peak_tight"], report.stats.peak_live)
        with tracer.operation("cli.html"):
            with open(cert.path) as handle:
                full = certfile.read_certificate(handle)
            with tracer.span("render.html"):
                page = m["render"].render_html(full)
        run.expect(page.count("<tr id=") == cert.html_rows, f"html {cert.path.name}")
        counts["bytes"] += len(page.encode())
    return counts


def install(tracer: Tracer, m: dict, lp_rows: list[int]) -> None:
    checker = m["checker"]
    for name in ("linear_combine", "dominates", "round_constraint", "check_disjunction_pair"):
        tracer.wrap(checker, name, f"model.{name}")
    tracer.wrap(
        checker.CheckerState,
        "verify_derivation",
        lambda state, derivation, index: f"checker.{type(derivation.reason).__name__.lower()}",
    )
    tracer.wrap(m["tighten"], "compute_last_use", "tighten.compute_last_use")
    tracer.wrap(m["tighten"], "prune_unused", "tighten.prune_unused")
    tracer.wrap(
        m["solve"], "solve_lp", "simplex.lp",
        observe=lambda num_variables, constraints, objective: lp_rows.append(len(constraints)),
    )


def _timed(function, repeats: int = MICRO_REPEATS, keep=statistics.median) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return keep(times)


def micro_parse_rational(certs: list[Cert], m: dict) -> tuple[float, int]:
    """Mean ``parse_rational`` time over the tokens the parser hands it, and
    the largest numerator or denominator among them, in bits."""
    certfile = m["certfile"]
    original = certfile.parse_rational
    tokens: list[str] = []

    def collect(token: str):
        tokens.append(token)
        return original(token)

    certfile.parse_rational = collect
    try:
        for cert in certs:
            with open(cert.path) as handle:
                for _ in certfile.parse_certificate(handle):
                    pass
    finally:
        certfile.parse_rational = original
    parse = m["numeric"].parse_rational
    seconds = _timed(lambda: [parse(token) for token in tokens])
    bits = max(max(int(part).bit_length() for part in token.lstrip("-").split("/")) for token in tokens)
    return seconds / len(tokens) * 1e9, bits


LP_KNAPSACK = (1201, 12)


def micro_lp(m: dict) -> tuple[float, float]:
    """``solve_lp`` on a 12-item knapsack root LP and on the same LP with
    12 branch rows that fix every item as a greedy packing would."""
    model = m["model"]
    problem = m["certfile"].parse_problem(io.StringIO(wl.knapsack_problem(*LP_KNAPSACK).text))
    objective = model.SparseVec(tuple((index, -value) for index, value in problem.objective))
    capacity_row = problem.constraints[0]
    room, branch = capacity_row.rhs, []
    for index, weight in capacity_row.lhs:
        take = weight <= room
        room -= weight if take else 0
        sense = model.Sense.GE if take else model.Sense.LE
        unit = model.SparseVec(((index, m["numeric"].Rational(1)),))
        branch.append(model.Constraint(f"b{index}", sense, unit, m["numeric"].Rational(int(take))))
    n, rows = problem.num_variables, list(problem.constraints)
    solve_lp = m["simplex"].solve_lp
    root = _timed(lambda: solve_lp(n, rows, objective))
    deep = _timed(lambda: solve_lp(n, rows + branch, objective))
    return root * 1e3, deep * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced(run: Runner, inputs: Inputs, trace_path: Path) -> dict[str, float]:
    m = _modules()
    # The overhead report times the cycle's first operation untraced, then
    # traced by a tracer of its own, each warm and calibrated like the CLI.
    if inputs.certs:
        path = str(inputs.certs[0].path)

        def reference():
            m["checker"].verify_certificate_file(path)
    else:
        job = inputs.solves[0]
        with open(job.path) as handle:
            problem = m["certfile"].parse_problem(handle)
        config = m["solve"].SolveConfig(cg_objective=bool(job.flags))

        def reference():
            m["solve"].solve(problem, config)

    reference()
    run.calibrations.append(calibrate())
    untraced = run.scaled(_timed(reference, 1))
    overhead_tracer = Tracer()
    install(overhead_tracer, m, [])
    try:
        traced_s = run.scaled(_timed(reference, 1))
    finally:
        overhead_tracer.restore()

    tracer, lp_rows = Tracer(), []
    install(tracer, m, lp_rows)
    try:
        counts = traced_cycle(run, inputs, tracer, m)
    finally:
        tracer.restore()
    tracer.write(trace_path)

    startup = statistics.median(
        run.cli(["check", run.root / SMALL_CERT], 0, [re.escape("verified: range [1, 1]")])[1]
        for _ in range(STARTUP_REPEATS)
    )
    rational_ns, max_bits = micro_parse_rational(piped_certs(inputs), m)
    root_ms, deep_ms = micro_lp(m)

    spans = tracer.summary()

    def total(name: str) -> float:
        return spans.get(name, (0.0, 0.0, 0))[0]

    def own(name: str) -> float:
        return spans.get(name, (0.0, 0.0, 0))[1]

    def calls(name: str) -> int:
        return spans.get(name, (0.0, 0.0, 0))[2]

    kinds = ("asm", "lin", "rnd", "uns")
    checker_s = sum(total(f"checker.{kind}") for kind in kinds)
    solve_s, lp_s = total("solve.solve"), total("simplex.lp")
    metrics = {
        "cli.startup_s": startup,
        "certfile.parse_s": total("certfile.parse"),
        "certfile.tokens_per_s": _ratio(counts["tokens"], total("certfile.parse")),
        "certfile.write_s": total("certfile.write"),
        "numeric.parse_rational_ns": rational_ns,
        "numeric.max_coef_bits": max_bits,
        "model.linear_combine_s": total("model.linear_combine"),
        "model.linear_combine_calls": calls("model.linear_combine"),
        "model.linear_combine_share": _ratio(total("model.linear_combine"), checker_s),
        "model.dominates_s": total("model.dominates"),
        "model.round_constraint_s": total("model.round_constraint"),
        "model.check_disjunction_pair_s": total("model.check_disjunction_pair"),
    }
    for kind in kinds:
        metrics[f"checker.{kind}_s"] = total(f"checker.{kind}")
        metrics[f"checker.{kind}_calls"] = calls(f"checker.{kind}")
    metrics.update({
        "checker.peak_live_raw": counts["peak_raw"],
        "checker.peak_live_tight": counts["peak_tight"],
        "tighten.compute_last_use_s": total("tighten.compute_last_use"),
        "tighten.prune_unused_s": total("tighten.prune_unused"),
        "tighten.pruned_share": _ratio(counts["rows_in"] - counts["rows_out"], counts["rows_in"]),
        "render.html_s": total("render.html"),
        "render.bytes_out": counts["bytes"],
        "simplex.lp_calls": calls("simplex.lp"),
        "simplex.lp_busy_s": lp_s,
        "simplex.lp_rows_max": max(lp_rows, default=0),
        "simplex.lp_share": _ratio(lp_s, solve_s),
        "simplex.root_lp_ms": root_ms,
        "simplex.deep_lp_ms": deep_ms,
        "solve.nodes": counts["nodes"],
        "solve.s_per_node": _ratio(solve_s, counts["nodes"]),
        "solve.self_s": own("solve.solve"),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced_s,
        "trace.overhead_share": _ratio(traced_s - untraced, untraced),
    })
    return metrics


# --- main ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mipcert" / "cli.py").is_file() or not (root / SMALL_CERT).is_file():
        print("error: run from the root of a mipcert checkout (src/mipcert, tests/data)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    started = time.monotonic()
    out = Path(__file__).resolve().parent / "out"
    work = out / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    run = Runner(root, work, started + 170.0)
    try:
        # Set up at least SETUP_REPEATS times, and more, up to SETUP_MAX, until
        # SETUP_MIN_S have passed, so that a fast set-up still has a steady median.
        setup_wall: list[float] = []
        setup_times: list[float] = []
        while len(setup_wall) < SETUP_REPEATS or (
            sum(setup_wall) < SETUP_MIN_S and len(setup_wall) < SETUP_MAX
        ):
            setup_start = time.perf_counter()
            inputs = setup(args.workload, args.seed, work / f"setup{len(setup_wall)}")
            setup_wall.append(time.perf_counter() - setup_start)
            setup_times.append(run.scaled(setup_wall[-1]))
        # Warm-up: byte-compile the package and page it in before timing.
        run.cli(["check", root / SMALL_CERT], 0, [re.escape("verified: range [1, 1]")])
        wall: dict[str, float] = {}
        if args.trace:
            metrics = traced(run, inputs, out / f"trace-{args.workload}-{args.seed}.tsv.gz")
            cycles = 1
        else:
            metrics, wall, cycles = measured(run, inputs, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            wall["setup_s"] = statistics.median(setup_wall)
        run.reverify()
        if args.workload == "bnb":
            text = inputs.solves[0].output.read_text()
            built = wl.mutate(text, args.seed)
            if built is not None:
                inputs.mutant = (work / "bnb-mutant.crt", built[1])
                inputs.mutant[0].write_text(built[0])
        run.check_mutant(inputs.mutant)
        paths = {cert.path for cert in piped_certs(inputs)} | {job.path for job in inputs.solves}
        sizes = [size_of(path) for path in sorted(paths)]
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    from mipcert.numeric import BACKEND

    units = PER_LAYER if args.trace else END_TO_END
    provenance = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "cycles": cycles,
        "calibration_s": statistics.median(run.calibrations),
        "wall_medians": wall,
        "backend": BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs": sizes,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


END_TO_END = {
    "setup_s": "s",
    "check_rows_per_s": "rows/s",
    "check_peak_rss_mb": "MB",
    "recheck_peak_rss_mb": "MB",
    "ttn_s": "s",
    "ttn_peak_rss_mb": "MB",
    "html_s": "s",
    "solve_s": "s",
    "solve_peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.startup_s": "s",
    "certfile.parse_s": "s",
    "certfile.tokens_per_s": "tokens/s",
    "certfile.write_s": "s",
    "numeric.parse_rational_ns": "ns",
    "numeric.max_coef_bits": "bits",
    "model.linear_combine_s": "s",
    "model.linear_combine_calls": "count",
    "model.linear_combine_share": "ratio",
    "model.dominates_s": "s",
    "model.round_constraint_s": "s",
    "model.check_disjunction_pair_s": "s",
    **{f"checker.{kind}_{what}": unit for kind in ("asm", "lin", "rnd", "uns")
       for what, unit in (("s", "s"), ("calls", "count"))},
    "checker.peak_live_raw": "rows",
    "checker.peak_live_tight": "rows",
    "tighten.compute_last_use_s": "s",
    "tighten.prune_unused_s": "s",
    "tighten.pruned_share": "ratio",
    "render.html_s": "s",
    "render.bytes_out": "bytes",
    "simplex.lp_calls": "count",
    "simplex.lp_busy_s": "s",
    "simplex.lp_rows_max": "rows",
    "simplex.lp_share": "ratio",
    "simplex.root_lp_ms": "ms",
    "simplex.deep_lp_ms": "ms",
    "solve.nodes": "count",
    "solve.s_per_node": "s",
    "solve.self_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_share": "ratio",
}

if __name__ == "__main__":
    sys.exit(main())
