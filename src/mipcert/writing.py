"""The commands that write OUT, ``ttn``, ``html`` and ``solve``, which ``check`` never loads."""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from typing import Optional, TextIO

from .certfile import parse_certificate, parse_problem, write_certificate
from .numeric import format_rational

__all__ = ["COMMANDS"]


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


COMMANDS = {"ttn": _cmd_ttn, "html": _cmd_html, "solve": _cmd_solve}  # the handlers, by command
