"""Command-line interface.

Subcommands::

    mipcert check CERT [--stats]           verify a certificate file
    mipcert ttn IN OUT [--prune]           recompute last-use hints, optionally prune
    mipcert html IN OUT                    render a certificate to a static page
    mipcert solve PROBLEM OUT [options]    solve a problem, writing a certificate

Exit status: 0 on success (certificate verified, file written, or an
unbounded solve, which produces no certificate); 1 when a certificate is
rejected or an operation needs a verified certificate and does not get one;
2 on malformed input or usage errors.

No per-row record closes a reference cycle, so commands run with the collector
off, and :func:`entry` first freezes the imports' objects out of its last walk.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from typing import Optional, Sequence, TextIO

from .certfile import ParseError, parse_certificate, parse_problem, write_certificate
from .checker import VerificationReport, verify_certificate_file
from .model import InfeasibleGoal, format_bounds
from .numeric import format_rational

__all__ = ["entry", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipcert",
        description="Verify, tighten, render, and generate MILP certificates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="verify a certificate file")
    check.add_argument("certificate", help="certificate file to verify")
    check.add_argument(
        "--stats", action="store_true", help="also print reason counts and peak memory"
    )

    ttn = commands.add_parser(
        "ttn", help="recompute last-use hints (and optionally prune unused rows)"
    )
    ttn.add_argument("input", help="certificate file to tighten")
    ttn.add_argument("output", help="where to write the tightened certificate")
    ttn.add_argument(
        "--prune",
        action="store_true",
        help="also drop derivations the goal proof never reaches (verifies first)",
    )

    html = commands.add_parser("html", help="render a certificate to a static page")
    html.add_argument("input", help="certificate file to render")
    html.add_argument("output", help="where to write the HTML document")

    solve_cmd = commands.add_parser(
        "solve", help="solve a problem file and write a certificate"
    )
    solve_cmd.add_argument("problem", help="problem file (no goal or derivations)")
    solve_cmd.add_argument("output", help="where to write the certificate")
    solve_cmd.add_argument(
        "--cg-objective",
        action="store_true",
        help="enable rounding strengthenings on objective bounds and probes",
    )
    solve_cmd.add_argument(
        "--node-limit",
        type=int,
        default=None,
        metavar="N",
        help="abort after exploring N branch-and-bound nodes",
    )
    return parser


def _describe_goal(report: VerificationReport) -> str:
    goal = report.goal
    if isinstance(goal, InfeasibleGoal):
        return "infeasible"
    lower, upper = format_bounds(goal)
    return f"range [{lower}, {upper}]"


def _cmd_check(args: argparse.Namespace, out: TextIO) -> int:
    report = verify_certificate_file(args.certificate)
    if report.verified:
        out.write(f"verified: {_describe_goal(report)}\n")
    else:
        failure = report.failure
        where = f" at index {failure.index}" if failure.index is not None else ""
        out.write(f"rejected{where} ({failure.rule}): {failure.message}\n")
    if args.stats:
        counts = report.stats.reason_counts
        out.write(
            "stats: derivations={d} solutions={s} asm={asm} lin={lin} "
            "rnd={rnd} uns={uns} peak_live={p}\n".format(
                d=report.stats.num_derivations,
                s=report.stats.num_solutions,
                p=report.stats.peak_live,
                **counts,
            )
        )
    return 0 if report.verified else 1


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A text handle on OUT ``path`` that leaves it as it was if the block raises. A regular file
    is replaced, keeping its mode bits, by a new file beside the file ``path`` resolves to once the
    block has written all of it; a new file is made by ``open`` and removed if the block raises.
    Anything else (a device, a FIFO, a file in a directory that takes no new file) is written
    through ``open(path, "w")`` as it is."""
    target, temporary = os.path.realpath(path), None
    try:
        mode: Optional[int] = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None  # a new file
    except OSError:
        mode = 0  # open() says why
    if mode and stat.S_ISREG(mode):
        beside = os.path.join(os.path.dirname(target), f".{os.urandom(6).hex()}.tmp")
        with suppress(OSError):  # else OUT is written in place
            descriptor = os.open(beside, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            temporary = beside
    try:
        with open(path if temporary is None else descriptor, "w", encoding="utf-8") as handle:
            yield handle
        if temporary is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
            os.replace(temporary, target)
    except BaseException:
        if temporary is not None or mode is None:
            with suppress(OSError):
                os.unlink(target if temporary is None else temporary)
        raise


def _cmd_ttn(args: argparse.Namespace, out: TextIO) -> int:
    from .tighten import NotVerified
    from .ttn import TightenedFile  # here, so that only ttn compiles it

    try:
        tightened = TightenedFile(args.input, prune=args.prune)  # verified before OUT opens
    except NotVerified as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    with _replacing(args.output) as handle:
        tightened.write(handle)
    dropped = tightened.derivations - tightened.kept
    out.write(
        f"tightened: {tightened.kept} derivations"
        + (f" ({dropped} pruned)" if args.prune else "")
        + "\n"
    )
    return 0


def _cmd_html(args: argparse.Namespace, out: TextIO) -> int:
    from .render import render_html  # here, so check and ttn never load it

    with open(args.input, encoding="utf-8") as handle:
        document = render_html(parse_certificate(handle))  # whole before OUT is opened
    with _replacing(args.output) as handle:
        handle.write(document)
    out.write(f"wrote {args.output}\n")
    return 0


def _cmd_solve(args: argparse.Namespace, out: TextIO) -> int:
    from .solve import NodeLimitError, SolveConfig, solve  # here, as for render_html

    with open(args.problem, encoding="utf-8") as handle:
        problem = parse_problem(handle)
    config = SolveConfig(node_limit=args.node_limit, cg_objective=args.cg_objective)
    try:
        result = solve(problem, config)
    except NodeLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if result.status == "optimal":
        out.write(f"optimal: {format_rational(result.value)}\n")
    else:
        out.write(f"{result.status}\n")
    if result.certificate is not None:
        with _replacing(args.output) as handle:
            write_certificate(result.certificate, handle)
        out.write(f"wrote {args.output} ({result.num_nodes} nodes)\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "ttn": _cmd_ttn,
        "html": _cmd_html,
        "solve": _cmd_solve,
    }
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args, sys.stdout)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        sys.stderr.write(f"error: input is not UTF-8 text (byte 0x{byte:02x})\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


def entry() -> int:
    """``main`` on the command line, after :func:`gc.freeze`: the program's entry."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
