"""Command-line interface.

Subcommands (``check`` runs here; the others in :mod:`mipcert.writing`, which it never loads)::

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
import sys
from typing import Optional, Sequence, TextIO

from .certfile import ParseError
from .checker import VerificationReport, verify_certificate_file
from .model import InfeasibleGoal, format_bounds

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command == "check":
            return _cmd_check(args, sys.stdout)
        from .writing import COMMANDS  # here, so that check never loads the commands that write
        return COMMANDS[args.command](args, sys.stdout)
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
