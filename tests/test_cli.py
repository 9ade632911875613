"""Command-line behavior: exit codes, output formats, file round trips."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from conftest import DATA_DIR, chain_lines, golden_text, load_golden
from hypothesis import given, settings
from hypothesis import strategies as st

import mipcert
from mipcert.certfile import read_certificate, write_problem
from mipcert.checker import verify_certificate_file
from mipcert import writing
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

    @pytest.mark.parametrize(
        "after",
        [
            pytest.param(b"D5 Q 0 1 0 1 { lin 1 4 1 } -1\n", id="malformed-row"),
            pytest.param(b"% " + b"." * 10_000 + b"\nD5 \xff\n", id="not-utf8"),
        ],
    )
    def test_a_rule_broken_before_unreadable_input_is_the_rejection(
        self, capsys, tmp_path, after
    ) -> None:
        # Row 4 claims x >= 1 from x >= 0, and the next row cannot be read: the rejection is
        # reported, as the row before the input goes bad. Past 8 KB of padding the byte 0xff
        # is decoded only after row 4 is read.
        lines = chain_lines(6)
        first = lines.index("DER 6") + 1
        lines[first + 3] = "D4 G 1 1 0 1 { lin 1 3 1 } -1"
        bad = tmp_path / "bad.crt"
        bad.write_bytes("\n".join(lines[: first + 4]).encode() + b"\n" + after)
        code, out, err = run(capsys, "check", str(bad))
        assert (code, err) == (1, "")
        assert out.startswith("rejected at index 4 (lin): ")

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

    def test_prune_reports_what_check_reports_first(self, capsys, tmp_path) -> None:
        # A broken row, then text that does not parse: --prune checks the rows as they are
        # read, as check does, so the broken row is what it reports; without --prune the
        # file only has to parse.
        lines = golden_text("small_range").splitlines()
        lines[13] = "obj G 2 2 0 2 1 1 { lin 2 0 1 1 -1 } -1 trailing"
        bad = tmp_path / "bad.crt"
        bad.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "out.crt"
        assert run(capsys, "check", str(bad))[:2] == (
            1,
            "rejected at index 2 (lin): combination yields 2x + y >= 1, which does not dominate "
            "the stated 2x + y >= 2\n",
        )
        code, out, err = run(capsys, "ttn", str(bad), str(out_path), "--prune")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot prune a certificate that does not verify (lin: ")
        code, out, err = run(capsys, "ttn", str(bad), str(out_path))
        assert (code, out) == (2, "")
        assert err == "error: line 14: trailing tokens after the DER section: 'trailing'\n"
        assert not out_path.exists()

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

    def test_an_input_that_cannot_be_read_twice_is_refused(self, tmp_path) -> None:
        # A pipe on /dev/stdin is refused before it is read and before OUT is opened;
        # /dev/stdin redirected from a regular file is read twice as that file is.
        output, expected = tmp_path / "out.crt", tmp_path / "expected.crt"
        assert main(["ttn", golden_path("small_range"), str(expected)]) == 0
        src = str(Path(mipcert.__file__).resolve().parent.parent)
        argv = [sys.executable, "-c", "import sys\nfrom mipcert.cli import main\nsys.exit(main())"]
        argv += ["ttn", "/dev/stdin", str(output)]
        options = {"capture_output": True, "env": {**os.environ, "PYTHONPATH": src}, "timeout": 60}
        piped = subprocess.run(argv, input=Path(golden_path("small_range")).read_bytes(), **options)
        assert (piped.returncode, piped.stdout) == (2, b"")
        assert piped.stderr == (
            b"error: /dev/stdin is not a regular file, and ttn reads its input twice\n"
        )
        assert not output.exists()
        with open(golden_path("small_range"), "rb") as stdin:
            redirected = subprocess.run(argv, stdin=stdin, **options)
        assert (redirected.returncode, redirected.stderr) == (0, b"")
        assert output.read_bytes() == expected.read_bytes()

    def test_a_fifo_with_no_writer_is_refused_at_once(self, tmp_path) -> None:
        # Opening a FIFO for reading waits for a writer, so IN is looked at before it is opened.
        # A subprocess with a timeout fails this test, instead of hanging it, if ttn waits.
        fifo, output = tmp_path / "in.fifo", tmp_path / "out.crt"
        os.mkfifo(fifo)
        src = str(Path(mipcert.__file__).resolve().parent.parent)
        argv = [sys.executable, "-c", "import sys\nfrom mipcert.cli import main\nsys.exit(main())"]
        completed = subprocess.run(
            argv + ["ttn", str(fifo), str(output)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=30,
            check=False,
        )
        assert (completed.returncode, completed.stdout) == (2, b"")
        message = f"error: {fifo} is not a regular file, and ttn reads its input twice\n"
        assert completed.stderr == message.encode()
        assert not output.exists()

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
        assert peak <= 1.1 * parsed, f"peak {peak} B for a {parsed} B certificate"

    def test_prune_peaks_as_check_does(self, capsys, tmp_path) -> None:
        # ttn --prune checks the file as check does, on its own hints, and
        # adds only its reference arrays: it holds no certificate.
        chain = tmp_path / "chain.crt"
        chain.write_text("\n".join(chain_lines(5_000)) + "\n")
        commands = (
            lambda: verify_certificate_file(str(chain)).verified,
            lambda: main(["ttn", str(chain), str(tmp_path / "pruned.crt"), "--prune"]) == 0,
        )
        for run_command in commands:  # imports and first-use caches out of the count
            assert run_command()
        peaks = []
        tracemalloc.start()
        try:
            for run_command in commands:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert run_command()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == "tightened: 5000 derivations (0 pruned)\n" * 2
        check, ttn = peaks
        assert ttn <= 1.1 * check, f"ttn --prune peak {ttn} B, check peak {check} B"

    def test_input_changed_between_the_passes_exits_2(self, capsys, monkeypatch, tmp_path) -> None:
        # The second pass reads the input again; a different text there is refused and
        # OUT keeps its bytes, whatever the change does to the header or the rows it copies.
        ttn_module = importlib.import_module("mipcert.ttn")
        first_pass = ttn_module.TightenedFile.__init__
        source, output = tmp_path / "in.crt", tmp_path / "out.crt"
        split, small = golden_text("split_infeasible"), golden_text("small_range")
        edits = (  # the text the first pass reads, and the text the second pass reads
            (split, split.replace("A1 L 0 1 0 1", "A1 L 0 1 0 2")),  # a number, same length
            (split, split.replace("DER 11", "DER 12") + "J1 L 100 1 0 1 { asm } -1\n"),
            (split, split[: split.index("C10 ")]),  # cut inside the rows
            (split, split.replace("{ asm }", "{ lin 0 }", 1)),
            (split, split + "% a comment\n"),
            (split, split + "x"),  # a token after the rows
            (split, split.replace("x1 x2", "x1 x22")),  # a variable renamed to a longer name
            (small, small.replace("OBJ min\n2 0 2", "OBJ min\n2 0 3")),  # an objective coefficient
            (small, small.replace("RTP range 1 1", "RTP range 1 2")),  # a bound of the goal
            (small, small.replace("x* 2 0 3/7", "x* 2 0 4/7")),  # a solution value
            (split, split.replace("VER 1", "VER 2")),  # no longer parses
        )
        for original, edit in edits:
            assert edit != original

            def edit_after_first_pass(self, *args, edit=edit, **kwargs) -> None:
                first_pass(self, *args, **kwargs)
                source.write_text(edit)

            monkeypatch.setattr(ttn_module.TightenedFile, "__init__", edit_after_first_pass)
            source.write_text(original)
            output.write_bytes(b"kept")
            for prune in ((), ("--prune",)):
                code, out, err = run(capsys, "ttn", str(source), str(output), *prune)
                assert (code, out) == (2, ""), edit
                assert err == f"error: {source} changed while it was read\n"
                assert output.read_bytes() == b"kept"
                assert sorted(tmp_path.iterdir()) == [source, output]
                source.write_text(original)


class TestReplacingOutput:
    """ttn, html and solve write OUT through a new file that replaces it only once complete."""

    def test_a_failed_write_leaves_out_as_it_was(self, capsys, monkeypatch, tmp_path) -> None:
        directory = tmp_path / "out"
        directory.mkdir()
        output = directory / "out.crt"
        problem = write_problem_file(load_golden("split_infeasible").problem, tmp_path / "p.mip")

        def write_half(self, sink) -> None:  # TightenedFile.write, and write_certificate
            sink.write("VER 1\n" * 10_000)
            raise OSError(28, "No space left on device")

        ttn_module = importlib.import_module("mipcert.ttn")
        monkeypatch.setattr(ttn_module.TightenedFile, "write", write_half)
        monkeypatch.setattr(writing, "write_certificate", write_half)
        cases = (  # the command, OUT's bytes, the input elsewhere, and what it prints first
            ("ttn", golden_text("split_infeasible"), golden_path("small_range"), ""),
            ("solve", Path(problem).read_text(), problem, "infeasible\n"),
        )
        failed = "error: [Errno 28] No space left on device\n"
        for command, before, elsewhere, printed in cases:
            for source in (elsewhere, str(output)):  # elsewhere, and in place
                output.write_text(before)
                assert run(capsys, command, source, str(output)) == (2, printed, failed)
                assert output.read_text() == before
                assert list(directory.iterdir()) == [output]

    @pytest.mark.parametrize("existing", (True, False))
    def test_a_writer_raising_half_way_leaves_no_file(self, tmp_path, existing) -> None:
        output = tmp_path / "out"
        if existing:
            output.write_bytes(b"before")
        with pytest.raises(OSError, match="No space"):
            with writing._replacing(str(output)) as handle:
                handle.write("x" * 100_000)
                raise OSError(28, "No space left on device")
        assert list(tmp_path.iterdir()) == ([output] if existing else [])
        assert not existing or output.read_bytes() == b"before"

    def test_an_out_that_cannot_be_written_is_named_in_the_error(self, capsys, tmp_path) -> None:
        # The new file is an implementation detail: errors name OUT, as open(OUT, "w") would.
        a_regular_file = tmp_path / "file"
        a_regular_file.write_text("kept")
        for output, why in (
            (tmp_path / "absent" / "out", "No such file or directory"),
            (tmp_path, "Is a directory"),
            (a_regular_file / "out", "Not a directory"),  # OUT's stat fails, and not as absent
        ):
            for command in ("ttn", "html"):
                code, out, err = run(capsys, command, golden_path("small_range"), str(output))
                assert (code, out) == (2, "")
                assert err.startswith("error: [Errno ") and err.endswith(f"] {why}: '{output}'\n")
        assert list(tmp_path.iterdir()) == [a_regular_file]
        assert a_regular_file.read_text() == "kept"

    def test_symlinked_out_is_written_through(self, capsys, tmp_path) -> None:
        target, link = tmp_path / "target.html", tmp_path / "link.html"
        target.write_text("old")
        link.symlink_to(target)
        for command in ("ttn", "html"):
            assert run(capsys, command, golden_path("small_range"), str(link))[0] == 0
            assert link.is_symlink() and os.readlink(link) == str(target)
            assert target.read_text().startswith("VER 1" if command == "ttn" else "<!DOCTYPE")
            assert sorted(tmp_path.iterdir()) == [link, target]

    def test_an_out_that_is_not_a_regular_file_is_written_through(self, capsys, tmp_path) -> None:
        # A FIFO is still a FIFO its reader reads the page from, and a device is not replaced.
        fifo, received = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
        reader.start()
        assert run(capsys, "html", golden_path("small_range"), str(fifo))[0] == 0
        reader.join(timeout=30)
        assert received[0] == render_html(load_golden("small_range"))
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        before = os.stat(os.devnull)
        assert run(capsys, "ttn", golden_path("small_range"), os.devnull)[0] == 0
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode) and (after.st_ino, after.st_rdev) == (
            before.st_ino,
            before.st_rdev,
        )
        assert sorted(tmp_path.iterdir()) == [fifo]

    def test_an_out_in_a_directory_that_takes_no_new_file_is_written_in_place(
        self, capsys, monkeypatch, tmp_path
    ) -> None:
        expected, output = tmp_path / "expected.crt", tmp_path / "out.crt"
        assert run(capsys, "ttn", golden_path("small_range"), str(expected))[0] == 0
        output.write_text("old")
        refused = writing.os.open

        def no_new_file(name, flags, *args):
            if flags & os.O_CREAT:
                raise PermissionError(13, "Permission denied", name)
            return refused(name, flags, *args)

        monkeypatch.setattr(writing.os, "open", no_new_file)
        assert run(capsys, "ttn", golden_path("small_range"), str(output))[0] == 0
        assert output.read_text() == expected.read_text()
        assert sorted(tmp_path.iterdir()) == [expected, output]

    def test_modes_are_those_of_out_or_of_a_new_file(self, capsys, tmp_path) -> None:
        existing, new = tmp_path / "existing.crt", tmp_path / "new.crt"
        existing.write_text("old")
        existing.chmod(0o640)
        umask = os.umask(0o027)
        try:
            for output in (existing, new):
                assert run(capsys, "ttn", golden_path("small_range"), str(output))[0] == 0
            with open(tmp_path / "plain", "w"):  # what open() gives a new file
                pass
        finally:
            os.umask(umask)
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640


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

    def test_only_the_program_entry_freezes_the_collector(self, capsys) -> None:
        # An in-process main leaves the frozen objects alone; `python -m mipcert.cli`
        # freezes the imports' objects, so the collection at exit skips them.
        frozen = gc.get_freeze_count()
        assert main(["check", golden_path("split_infeasible")]) == 0
        assert gc.get_freeze_count() == frozen
        capsys.readouterr()
        script = (
            "import gc, runpy, sys\n"
            "try:\n"
            "    runpy.run_module('mipcert.cli', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    print(exit.code, gc.get_freeze_count() > 0)\n"
        )
        src = str(Path(mipcert.__file__).resolve().parent.parent)
        completed = subprocess.run(
            [sys.executable, "-c", script, "check", golden_path("split_infeasible")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            check=False,
        )
        assert completed.stdout == "verified: infeasible\n0 True\n", completed.stderr

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


def _loaded_after(argv: list[str]) -> tuple[list[str], int]:
    """Run ``mipcert`` in a fresh interpreter. Returns the package modules it loaded, and its
    exit code."""
    script = (
        "import sys\n"
        "from mipcert.cli import main\n"
        "code = main()\n"
        "print(*sorted(name for name in sys.modules if name.startswith('mipcert')))\n"
        "print(code)\n"
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
    modules, code = completed.stdout.splitlines()[-2:]
    return modules.split(), int(code)


#: What each command loads besides the trusted core: ``check`` loads no more, so nothing that
#: writes OUT, renders or solves is part of it.
COMMAND_MODULES = {
    "check": set(),
    "ttn": {"mipcert.ttn", "mipcert.writing"},
    "html": {"mipcert.render", "mipcert.writing"},
    "solve": {"mipcert.simplex", "mipcert.solve", "mipcert.writing"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_its_modules_and_no_others(tmp_path, command) -> None:
    source = golden_path("split_infeasible")
    if command == "solve":
        source = write_problem_file(load_golden("split_infeasible").problem, tmp_path / "p.mip")
    argv = [command, source] + ([] if command == "check" else [str(tmp_path / "out")])
    modules, code = _loaded_after(argv)
    assert code == 0
    assert set(modules) == TRUSTED_MODULES | COMMAND_MODULES[command]


PACKAGE = Path(mipcert.__file__).resolve().parent


def _lines_stated_and_counted(command: str, files: list[Path]) -> tuple[int, int]:
    """The count README.md states as ``<n> lines by `<command>```, and the lines of ``files``."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    stated = re.search(rf"([\d,]+)\s+lines\s+by\s+`{re.escape(command)}`", readme)
    assert stated is not None, command
    total = sum(path.read_bytes().count(b"\n") for path in files)  # as `wc -l` counts
    return int(stated.group(1).replace(",", "")), total


def test_readme_counts_the_trusted_core_lines() -> None:
    files = [PACKAGE / f"{name.partition('.')[2] or '__init__'}.py" for name in TRUSTED_MODULES]
    stated, total = _lines_stated_and_counted("wc -l", files)
    assert stated == total


def test_readme_counts_the_package_lines() -> None:
    # Each change in the package's size shows here, next to the trusted core's.
    stated, total = _lines_stated_and_counted("wc -l src/mipcert/*.py", list(PACKAGE.glob("*.py")))
    assert stated == total


def test_no_package_line_is_over_100_columns() -> None:
    # The line counts above measure code at the width these files use; wider lines would shrink it.
    wide = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert wide == []


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
