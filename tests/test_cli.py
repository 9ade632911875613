"""Command-line behavior: exit codes, output formats, file round trips."""

from __future__ import annotations

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from conftest import DATA_DIR, chain_lines, golden_text, load_golden
from hypothesis import given, settings
from hypothesis import strategies as st

import mipcert
from mipcert.certfile import read_certificate, write_problem
from mipcert.checker import verify_certificate_file
from mipcert.cli import main
from mipcert.render import render_html

FIG_SCHEDULE = (13, 13, 12, 12, 12, 12, 10, 11, 13, 13, -1)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_path(name: str) -> str:
    return str(DATA_DIR / f"{name}.crt")


def write_problem_file(problem, path: Path) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        write_problem(problem, handle)
    return str(path)


class TestCheck:
    def test_verified_range(self, capsys) -> None:
        code, out, err = run(capsys, "check", golden_path("small_range"))
        assert code == 0
        assert out == "verified: range [1, 1]\n"
        assert err == ""

    def test_verified_infeasible(self, capsys) -> None:
        code, out, _ = run(capsys, "check", golden_path("split_infeasible"))
        assert code == 0
        assert out == "verified: infeasible\n"

    def test_stats_line(self, capsys) -> None:
        code, out, _ = run(capsys, "check", golden_path("split_infeasible"), "--stats")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verified: infeasible"
        assert lines[1] == (
            "stats: derivations=11 solutions=0 asm=4 lin=4 rnd=1 uns=2 peak_live=14"
        )

    def test_rejected_with_index(self, capsys, tmp_path) -> None:
        lines = golden_text("small_range").splitlines()
        lines[13] = "obj G 2 2 0 2 1 1 { lin 2 0 1 1 -1 } -1"
        bad = tmp_path / "bad.crt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert out.startswith("rejected at index 2 (lin):")

    def test_rejected_at_goal_has_no_index(self, capsys, tmp_path) -> None:
        lines = golden_text("small_range").splitlines()
        lines[13] = "obj G 1/2 2 0 2 1 1 { lin 2 0 1 1 -1 } -1"
        bad = tmp_path / "weak.crt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert out.startswith("rejected (goal):")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(
                "VER 1 VAR 1 x INT 1 0 OBJ min 0 CON 2 lo G 0 1 0 1 hi L 1 1 0 1\n"
                "RTP infeas SOL 0 DER 4\n"
                "A1 L 0 1 0 1 { asm } -1\n"
                "A2 G 1 1 0 1 { asm } -1\n"
                "R1 G 1 0 { lin 2 2 -1 3 1 } -1\n"
                "R2 G 1 0 { uns 4 2 4 3 } -1\n",
                id="infeasible",
            ),
            pytest.param(
                "VER 1 VAR 1 x INT 1 0 OBJ min 1 0 1 CON 2 lo G 0 1 0 1 hi L 1 1 0 1\n"
                "RTP range 1 1 SOL 1 x1 1 0 1 DER 5\n"
                "A1 L 0 1 0 1 { asm } -1\n"
                "A2 G 1 1 0 1 { asm } -1\n"
                "R1 G 1 0 { lin 2 2 -1 3 1 } -1\n"
                "R2 G 1 1 0 1 { lin 1 3 1 } -1\n"
                "R3 G 1 1 0 1 { uns 4 2 5 3 } -1\n",
                id="optimum-1",
            ),
        ],
    )
    def test_unsplit_branch_keeps_the_other_assumption(self, capsys, tmp_path, text) -> None:
        # R1 rests on both assumptions, so as a branch it keeps the one it does
        # not discharge, and the unsplit row is never free of assumptions.
        path = tmp_path / "unsplit.crt"
        path.write_text(text)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert out.startswith("rejected (goal):")

    def test_parse_error_exits_2(self, capsys, tmp_path) -> None:
        mangled = tmp_path / "mangled.crt"
        mangled.write_text("VER 2\n")
        code, out, err = run(capsys, "check", str(mangled))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1:")

    def test_missing_file_exits_2(self, capsys, tmp_path) -> None:
        code, _, err = run(capsys, "check", str(tmp_path / "absent.crt"))
        assert code == 2
        assert err.startswith("error:")


def padded_split_infeasible(tmp_path: Path) -> Path:
    """The split_infeasible golden with one dead assumption appended."""
    lines = golden_text("split_infeasible").splitlines()
    lines[14] = "DER 12"
    lines.append("J1 L 100 1 0 1 { asm } -1")
    padded = tmp_path / "padded.crt"
    padded.write_text("\n".join(lines) + "\n")
    return padded


class TestTighten:
    def test_tighten_writes_schedule(self, capsys, tmp_path) -> None:
        out_path = tmp_path / "tight.crt"
        code, out, _ = run(
            capsys, "ttn", golden_path("split_infeasible"), str(out_path)
        )
        assert code == 0
        assert out == "tightened: 11 derivations\n"
        with open(out_path) as handle:
            tightened = read_certificate(handle)
        assert tuple(d.last_use for d in tightened.derivations) == FIG_SCHEDULE
        assert verify_certificate_file(str(out_path)).verified

    def test_prune_reports_dropped_rows(self, capsys, tmp_path) -> None:
        padded = padded_split_infeasible(tmp_path)
        out_path = tmp_path / "pruned.crt"
        code, out, _ = run(capsys, "ttn", str(padded), str(out_path), "--prune")
        assert code == 0
        assert out == "tightened: 11 derivations (1 pruned)\n"
        assert verify_certificate_file(str(out_path)).verified

    def test_prune_refuses_unverified_input(self, capsys, tmp_path) -> None:
        # A row that breaks its rule, then a goal no row proves: neither
        # writes OUT, and in place the input is left as it was.
        rejections = (
            (
                "obj G 2 2 0 2 1 1 { lin 2 0 1 1 -1 } -1",
                "lin: combination yields 2x + y >= 1, which does not dominate the stated "
                "2x + y >= 2",
            ),
            (
                "obj G 1/2 2 0 2 1 1 { lin 2 0 1 1 -1 } -1",
                "goal: no empty-assumption derivation proves the goal",
            ),
        )
        for replacement, why in rejections:
            lines = golden_text("small_range").splitlines()
            lines[13] = replacement
            bad = tmp_path / "bad.crt"
            bad.write_text("\n".join(lines) + "\n")
            before = bad.read_bytes()
            message = f"error: cannot prune a certificate that does not verify ({why})\n"
            out_path = tmp_path / "never.crt"
            assert run(capsys, "ttn", str(bad), str(out_path), "--prune") == (1, "", message)
            assert not out_path.exists()
            assert run(capsys, "ttn", str(bad), str(bad), "--prune") == (1, "", message)
            assert bad.read_bytes() == before

    def test_prune_keeps_an_early_hint_of_the_file(self, capsys, tmp_path) -> None:
        # A1 (row 3) is cited by rows 6, 8 and 13. Its hint 6 evicts it before
        # row 8 cites it, so the file as given does not verify.
        lines = golden_text("split_infeasible").splitlines()
        assert lines[15] == "A1 L 0 1 0 1 { asm } -1"
        lines[15] = "A1 L 0 1 0 1 { asm } 6"
        early = tmp_path / "early.crt"
        early.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "pruned.crt"
        code, out, err = run(capsys, "ttn", str(early), str(out_path), "--prune")
        assert (code, out) == (1, "")
        assert err == (
            "error: cannot prune a certificate that does not verify "
            "(lin: reference to row 3, already evicted past its last use)\n"
        )
        assert not out_path.exists()
        code, out, _ = run(capsys, "check", str(early))
        assert code == 1
        assert out == (
            "rejected at index 8 (lin): reference to row 3, already evicted past its last use\n"
        )

        lines[15] = "A1 L 0 1 0 1 { asm } -1"
        early.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "ttn", str(early), str(out_path), "--prune")
        assert (code, out) == (0, "tightened: 11 derivations (0 pruned)\n")
        assert verify_certificate_file(str(out_path)).verified

    def test_prune_in_place_reads_before_it_writes(self, capsys, tmp_path) -> None:
        padded = padded_split_infeasible(tmp_path)
        elsewhere = tmp_path / "pruned.crt"
        assert run(capsys, "ttn", str(padded), str(elsewhere), "--prune")[0] == 0
        code, out, _ = run(capsys, "ttn", str(padded), str(padded), "--prune")
        assert (code, out) == (0, "tightened: 11 derivations (1 pruned)\n")
        assert padded.read_text() == elsewhere.read_text()

    def test_prune_holds_the_certificate_about_once(self, capsys, tmp_path) -> None:
        # tracemalloc counts the same bytes on every run of one interpreter;
        # RSS does not. The raw chain keeps no row live by its own hints.
        chain = tmp_path / "chain.crt"
        chain.write_text("\n".join(chain_lines(5_000)) + "\n")
        tracemalloc.start()
        try:
            with open(chain, encoding="utf-8") as handle:
                certificate = read_certificate(handle)
            parsed = tracemalloc.get_traced_memory()[0]
            del certificate
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = main(["ttn", str(chain), str(tmp_path / "pruned.crt"), "--prune"])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == "tightened: 5000 derivations (0 pruned)\n"
        assert peak <= 1.4 * parsed, f"peak {peak} B for a {parsed} B certificate"

    def test_prune_writes_each_row_as_it_is_rebuilt(self, capsys, monkeypatch, tmp_path) -> None:
        # The command is handed the parsed chain, so the peak is what
        # tightening and writing add to it: no second certificate is built.
        chain = tmp_path / "chain.crt"
        chain.write_text("\n".join(chain_lines(5_000)) + "\n")
        tracemalloc.start()
        try:
            with open(chain, encoding="utf-8") as handle:
                certificate = read_certificate(handle)
            parsed = tracemalloc.get_traced_memory()[0]
            monkeypatch.setattr("mipcert.cli.read_certificate", lambda handle: certificate)
            tracemalloc.reset_peak()
            code = main(["ttn", str(chain), str(tmp_path / "pruned.crt"), "--prune"])
            peak = tracemalloc.get_traced_memory()[1] - parsed
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == "tightened: 5000 derivations (0 pruned)\n"
        assert peak < 0.15 * parsed, f"peak {peak} B over a {parsed} B certificate"


class TestHtml:
    def test_renders_document(self, capsys, tmp_path) -> None:
        out_path = tmp_path / "cert.html"
        code, out, _ = run(capsys, "html", golden_path("split_infeasible"), str(out_path))
        assert code == 0
        assert out == f"wrote {out_path}\n"
        document = out_path.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "prove infeasibility" in document

    def test_in_place_rewrites_the_input_as_the_page(self, capsys, tmp_path) -> None:
        path = tmp_path / "cert.crt"
        path.write_text(golden_text("split_infeasible"))
        code, out, _ = run(capsys, "html", str(path), str(path))
        assert (code, out) == (0, f"wrote {path}\n")
        assert path.read_text() == render_html(load_golden("split_infeasible"))

    def test_parse_error_after_derivations_writes_nothing(self, capsys, tmp_path) -> None:
        lines = golden_text("split_infeasible").splitlines()
        assert lines[25].startswith("C10 ")  # line 26, after ten derivation rows
        lines[25] = "C10 G 1 0 { uns 11 4"
        truncated = tmp_path / "truncated.crt"
        truncated.write_text("\n".join(lines) + "\n")
        output = tmp_path / "out.html"
        code, out, err = run(capsys, "html", str(truncated), str(output))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 26: ")
        assert not output.exists()


class TestSolve:
    def test_optimal_round_trip(self, capsys, tmp_path) -> None:
        problem_path = write_problem_file(
            load_golden("small_range").problem, tmp_path / "p.mip"
        )
        cert_path = tmp_path / "out.crt"
        code, out, _ = run(capsys, "solve", problem_path, str(cert_path))
        assert code == 0
        assert out == f"optimal: 1\nwrote {cert_path} (1 nodes)\n"
        code, out, _ = run(capsys, "check", str(cert_path))
        assert code == 0
        assert out == "verified: range [1, 1]\n"

    @pytest.mark.parametrize("extra", ((), ("--cg-objective",)), ids=("plain", "cg"))
    def test_infeasible_round_trip(self, capsys, tmp_path, extra) -> None:
        problem_path = write_problem_file(
            load_golden("split_infeasible").problem, tmp_path / "p.mip"
        )
        cert_path = tmp_path / "out.crt"
        code, out, _ = run(capsys, "solve", problem_path, str(cert_path), *extra)
        assert code == 0
        assert out.startswith("infeasible\n")
        assert verify_certificate_file(str(cert_path)).verified

    def test_unbounded_writes_nothing(self, capsys, tmp_path) -> None:
        problem_path = tmp_path / "p.mip"
        problem_path.write_text(
            "VER 1 VAR 1 x INT 0 OBJ min 1 0 -1 CON 1 lo G 0 1 0 1\n"
        )
        cert_path = tmp_path / "out.crt"
        code, out, _ = run(capsys, "solve", str(problem_path), str(cert_path))
        assert code == 0
        assert out == "unbounded\n"
        assert not cert_path.exists()

    def test_node_limit_exits_2(self, capsys, tmp_path) -> None:
        problem_path = write_problem_file(
            load_golden("split_infeasible").problem, tmp_path / "p.mip"
        )
        code, out, err = run(
            capsys, "solve", problem_path, str(tmp_path / "out.crt"), "--node-limit", "2"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_rejects_certificate_as_problem(self, capsys, tmp_path) -> None:
        cert_path = tmp_path / "out.crt"
        code, _, err = run(
            capsys, "solve", golden_path("small_range"), str(cert_path)
        )
        assert code == 2
        assert "trailing tokens" in err


class TestCollector:
    @pytest.mark.parametrize("enabled", (True, False))
    def test_main_restores_the_collector_state(self, capsys, tmp_path, enabled) -> None:
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["check", golden_path("split_infeasible")]) == 0
            assert gc.isenabled() is enabled
            assert main(["check", str(tmp_path / "absent.crt")]) == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()

    def test_cyclic_garbage_does_not_grow_with_the_input(self, capsys, tmp_path) -> None:
        # Commands run with the collector off, so the first collection after
        # one finds every reference cycle it dropped.
        def garbage_after(*argv: str) -> int:
            gc.collect()
            assert main(list(argv)) == 0
            capsys.readouterr()
            return gc.collect()

        chains, problems = [], []
        for length in (2_000, 2_000, 20_000):  # the first run of each command warms up
            chains.append(tmp_path / f"chain{len(chains)}.crt")
            chains[-1].write_text("\n".join(chain_lines(length)) + "\n")
        for hi in (10, 10, 20):  # the parity problem of tests/test_solver.py
            problems.append(tmp_path / f"parity{len(problems)}.prb")
            problems[-1].write_text(
                "VER 1 VAR 2 x y INT 2 0 1 OBJ min 1 0 1 CON 3 par E 1 2 0 2 1 -2 "
                f"ypos G 0 1 1 1 xcap L {hi} 1 0 1\n"
            )
        out = str(tmp_path / "out")
        for inputs, command, *rest in (
            (chains, "check"),
            (chains, "ttn", out, "--prune"),
            (chains, "html", out),
            (problems, "solve", out),
        ):
            counts = [garbage_after(command, str(path), *rest) for path in inputs]
            assert counts[1] == counts[2], (command, counts)

@pytest.mark.parametrize("command", ("check", "ttn", "html", "solve"))
def test_non_utf8_input_exits_2(capsys, tmp_path, command) -> None:
    binary = tmp_path / "binary.crt"
    binary.write_bytes(golden_text("small_range").encode() + b"\xff\n")
    output = tmp_path / "out"
    argv = (command, str(binary)) if command == "check" else (command, str(binary), str(output))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: input is not UTF-8 text (byte 0xff)\n"
    assert not output.exists()


def _small_range_with(lineno: int, replacement: str) -> str:
    lines = golden_text("small_range").splitlines()
    lines[lineno - 1] = replacement
    return "\n".join(lines) + "\n"


NON_ASCII_CASES = [
    pytest.param(2, "VAR \u00b2", id="superscript-count"),
    pytest.param(6, "2 0 \u0662 1 1", id="arabic-indic-objective-coefficient"),
    pytest.param(6, "2 \u00b9 2 1 1", id="superscript-index"),
    pytest.param(14, "obj G 1 2 0 2 1 1 { lin 2 0 1 1 -1 } +5", id="last-use-plus-sign"),
    pytest.param(14, "obj G 1 2 0 2 1 1 { lin 2 0 1 1 -1 } 1_0", id="last-use-underscore"),
]


@pytest.mark.parametrize(("lineno", "replacement"), NON_ASCII_CASES)
@pytest.mark.parametrize("command", ("check", "ttn", "html"))
def test_non_ascii_numbers_exit_2(capsys, tmp_path, command, lineno, replacement) -> None:
    bad = tmp_path / "bad.crt"
    bad.write_text(_small_range_with(lineno, replacement), encoding="utf-8")
    output = tmp_path / "out"
    argv = (command, str(bad)) if command == "check" else (command, str(bad), str(output))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {lineno}: ")
    assert "Traceback" not in err
    assert not output.exists()


TRUSTED_MODULES = {
    "mipcert",
    "mipcert.certfile",
    "mipcert.checker",
    "mipcert.cli",
    "mipcert.model",
    "mipcert.numeric",
    "mipcert.tighten",
}


def _loaded_after(argv: list[str]) -> tuple[list[str], str]:
    """Run ``mipcert`` in a fresh interpreter. Returns the package modules it
    loaded, and its exit code with the loaded ones of the renderer and solver."""
    script = (
        "import sys\n"
        "from mipcert.cli import main\n"
        "code = main()\n"
        "heavy = ('mipcert.render', 'mipcert.simplex', 'mipcert.solve')\n"
        "print(*sorted(name for name in sys.modules if name.startswith('mipcert')))\n"
        "print(code, [name for name in heavy if name in sys.modules])\n"
    )
    src = str(Path(mipcert.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    modules, heavy = completed.stdout.splitlines()[-2:]
    return modules.split(), heavy


@pytest.mark.parametrize("command", ("check", "ttn"))
def test_check_and_ttn_load_no_solver_or_renderer(tmp_path, command) -> None:
    argv = [command, golden_path("split_infeasible")]
    if command == "ttn":
        argv.append(str(tmp_path / "out.crt"))
    modules, heavy = _loaded_after(argv)
    assert heavy == "0 []"
    if command == "check":  # the trusted core: everything `check` runs
        assert set(modules) == TRUSTED_MODULES


def test_html_loads_no_solver(tmp_path) -> None:
    modules, heavy = _loaded_after(["html", golden_path("split_infeasible"), str(tmp_path / "p")])
    assert heavy == "0 ['mipcert.render']"
    assert set(modules) == TRUSTED_MODULES | {"mipcert.render"}


def test_readme_counts_the_trusted_core_lines() -> None:
    package = Path(mipcert.__file__).resolve().parent
    files = [package / f"{name.partition('.')[2] or '__init__'}.py" for name in TRUSTED_MODULES]
    total = sum(path.read_bytes().count(b"\n") for path in files)  # as `wc -l` counts
    readme = (package.parent.parent / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"([\d,]+)\s+lines\s+by\s+`wc -l`", readme)
    assert stated is not None
    assert int(stated.group(1).replace(",", "")) == total


def test_readme_library_example_runs(tmp_path) -> None:
    # The one ``python`` block of README.md is the package API it promises.
    package = Path(mipcert.__file__).resolve().parent
    readme = (package.parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    (tmp_path / "model.crt").write_bytes((DATA_DIR / "small_range.crt").read_bytes())
    completed = subprocess.run(
        [sys.executable, "-c", example],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        timeout=60,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "True 3\noptimal 1\n"


#: Standard modules a dataclass or source-introspection import chain loads;
#: each costs start-up time in every ``mipcert`` process.
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("command", ("check", "ttn", "html", "solve"))
def test_commands_load_no_introspection_modules(tmp_path, command) -> None:
    src = str(Path(mipcert.__file__).resolve().parent.parent)

    def loaded(script: str, *argv: str) -> set[str]:
        completed = subprocess.run(
            [sys.executable, "-c", f"{script}\nimport sys\nprint(*sys.modules)", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        return set(completed.stdout.splitlines()[-1].split())

    source = golden_path("split_infeasible")
    if command == "solve":
        source = write_problem_file(load_golden("split_infeasible").problem, tmp_path / "p.mip")
    argv = [command, source] + ([] if command == "check" else [str(tmp_path / "out")])
    bare = loaded("")
    used = loaded("from mipcert.cli import main\nassert main() == 0", *argv)
    assert "mipcert.cli" in used
    assert [name for name in INTROSPECTION_MODULES if name in used - bare] == []


def test_superscript_count_prints_no_traceback(tmp_path) -> None:
    """The same case through a real interpreter, where a traceback would show."""
    bad = tmp_path / "bad.crt"
    bad.write_text(_small_range_with(2, "VAR \u00b2"), encoding="utf-8")
    src = str(Path(mipcert.__file__).resolve().parent.parent)
    completed = subprocess.run(
        [sys.executable, "-c", "import sys; from mipcert.cli import main; sys.exit(main())",
         "check", str(bad)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert completed.stderr == (
        "error: line 2: expected a nonnegative count for variables, found '\u00b2'\n"
    )


class TestUsage:
    def test_no_command_exits_2(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


# --- byte fuzz: every subcommand exits 0, 1 or 2 and raises nothing ----------

GOLDEN_BYTES = tuple(
    (DATA_DIR / f"{name}.crt").read_bytes()
    for name in ("small_range", "rounding_chain", "split_infeasible")
)
# The problem part of each golden file, as ``solve`` reads it.
PROBLEM_BYTES = tuple(data[: data.index(b"RTP")] for data in GOLDEN_BYTES)
FUZZ_TOKENS = (
    b"0", b"1", b"-1", b"2", b"7/3", b"-1/2", b"1/0", b"0/5", b"99999999999999999999",
    b"G", b"L", b"E", b"{", b"}", b"lin", b"rnd", b"uns", b"asm", b"sol", b"infeas",
    b"range", b"min", b"max", b"-inf", b"inf", b"VAR", b"CON", b"DER", b"", b"\n",
)
# Whitespace that splits a line between two tokens, or joins two lines.
LINE_GAPS = (b"\n", b" ", b"\n\n", b" % note\n", b"\n%\n")


@st.composite
def mutated_bytes(draw, seeds):
    """A golden file with a few token swaps, line splits and joins, and byte
    splices."""
    # Even positions hold tokens, odd ones the whitespace between them.
    pieces = re.split(rb"(\s+)", draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        position = 2 * draw(st.integers(min_value=0, max_value=len(pieces) // 2))
        pieces[position] = draw(st.sampled_from(FUZZ_TOKENS))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if len(pieces) > 1 else 0):
        gap = 2 * draw(st.integers(min_value=0, max_value=len(pieces) // 2 - 1)) + 1
        pieces[gap] = draw(st.sampled_from(LINE_GAPS))
    data = b"".join(pieces)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start = draw(st.integers(min_value=0, max_value=len(data)))
        end = draw(st.integers(min_value=start, max_value=min(len(data), start + 8)))
        data = data[:start] + draw(st.binary(max_size=8)) + data[end:]
    return data


def fuzz_inputs(seeds):
    return st.one_of(st.binary(max_size=200), mutated_bytes(seeds))


def run_on_bytes(command: str, data: bytes) -> tuple[int, str]:
    """``main`` on a file holding ``data``; its exit code and standard error."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        source = Path(directory, "in")
        source.write_bytes(data)
        output = str(Path(directory, "out"))
        argv = {
            "check": ["check", str(source), "--stats"],
            "ttn": ["ttn", str(source), output, "--prune"],
            "html": ["html", str(source), output],
            "solve": ["solve", str(source), output, "--node-limit", "200"],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(("check", "ttn", "html")), fuzz_inputs(GOLDEN_BYTES)),
        st.tuples(st.just("solve"), fuzz_inputs(PROBLEM_BYTES)),
    )
)
def test_byte_fuzz_exits_0_1_or_2(case) -> None:
    command, data = case
    code, err = run_on_bytes(command, data)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
