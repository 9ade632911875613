"""``mipcert ttn``: tightening a certificate file in two passes that build no certificate.

The first pass parses the file, and with pruning runs the same check as ``mipcert check`` on the
file's own hints; it keeps the header, the solutions and the reference arrays that
:mod:`mipcert.tighten` plans from. The second pass reads the file again and copies each kept
row's tokens, renumbering references, writing the new last use and re-formatting a number only
where its token is not canonical. Both passes take a CRC-32 of the text they read, so a file
that changed between them is refused. The output is what ``write_certificate`` writes of the
in-memory ``tighten(certificate, prune=prune)``.
"""

from __future__ import annotations

import zlib
from array import array
from collections.abc import Iterator
from math import gcd
from typing import TextIO

from .certfile import parse_certificate, split_header, write_certificate
from .model import InfeasibleGoal
from .numeric import format_rational, parse_rational
from .tighten import _goal_marks, _recorded, _schedule

__all__ = ["TightenedFile"]

#: Tokens from "{" to the row's end for a reason of fixed length: "{ asm } <last_use>", and
#: "{ uns <four references> } <last_use>".
_FIXED_REASONS = {"asm": 4, "uns": 8}


def _canonical(token: str) -> str:
    """``format_rational(parse_rational(token))`` for a number token the parser accepts: ``p/q``
    costs one ``gcd`` and builds no rational, unless a part is too long for ``int()``."""
    if token.isdigit() and token[0] != "0":
        return token
    numerator, slash, denominator = token.partition("/")
    try:
        p, q = int(numerator), int(denominator) if slash else 1
    except ValueError:  # past the interpreter's int-string limit
        return format_rational(parse_rational(token))
    divisor = gcd(p, q)
    if divisor == 1 < q and numerator.lstrip("-")[0] != "0" and denominator[0] != "0":
        return token  # reduced, and no part has a leading zero
    p, q = p // divisor, q // divisor
    return str(p) if q == 1 else f"{p}/{q}"


def _tokens(text: str) -> list[str]:
    """The whitespace tokens of ``text``, each ``%`` comment to the end of its line dropped."""
    if "%" in text:
        text = "\n".join(line.partition("%")[0] for line in text.split("\n"))
    return text.split()


class TightenedFile:
    """``mipcert ttn`` of the certificate file at ``path``. Construction is the first pass,
    NotVerified when pruning a certificate that does not verify; it keeps the file's ``problem``,
    ``goal`` and ``solutions``, and counts its ``derivations`` and those ``kept``. :meth:`write`
    is the second pass."""

    def __init__(self, path: str, *, prune: bool = False) -> None:
        self.path, self._crc, ends, targets, self.solutions = path, 0, array("q"), array("q"), []
        with open(path, encoding="utf-8") as handle:
            header, events = split_header(parse_certificate(self._lines(handle)))
            self.problem, self.goal = header.problem, header.goal
            num_original = self.problem.num_constraints
            events = _recorded(events, num_original, ends, targets, self.solutions)
            goals = _goal_marks(self.problem, self.goal, events) if prune else None
            for _ in events:  # the rest of the file, when it was not verified
                pass
        self._kept, self._new_index, self._last_use = _schedule(num_original, ends, targets, goals)
        self.derivations = len(ends)
        self.kept = self.derivations if goals is None else self._kept.count(1)

    def _lines(self, handle: TextIO) -> Iterator[str]:
        """The first pass's lines of ``handle``."""
        for line in handle:
            self._crc = zlib.crc32(line.encode(), self._crc)
            yield line

    def _batches(self, handle: TextIO) -> Iterator[list[str]]:
        """The second pass's tokens of ``handle``, whole lines at a time."""
        pending: list[str] = []  # the pieces of a line not yet ended, joined once it ends
        for text in iter(lambda: handle.read(1 << 16), ""):
            self._crc = zlib.crc32(text.encode(), self._crc)
            head, newline, tail = text.rpartition("\n")
            pending.append(head if newline else tail)
            if newline:
                yield _tokens("".join(pending))
                pending = [tail]
        yield _tokens("".join(pending))

    def write(self, sink: TextIO) -> None:
        """Write ``write_certificate(tighten(certificate, prune=prune))`` to ``sink``, reading
        the file again; OSError if its text is not what the first pass read."""
        write_certificate(self, sink, (self.kept, ()))  # the header and solutions, then DER <kept>
        first_pass, self._crc = self._crc, 0
        with open(self.path, encoding="utf-8") as handle:
            batches = self._batches(handle)
            try:
                self._copy_rows(batches, sink)
                unchanged = not any(batches) and self._crc == first_pass
            except (ValueError, LookupError, ArithmeticError, StopIteration):
                unchanged = False  # tokens the first pass did not read
        if not unchanged:
            raise OSError(f"{self.path} changed while it was read")

    def _copy_rows(self, batches: Iterator[list[str]], sink: TextIO) -> None:
        problem, goal, count = self.problem, self.goal, self.derivations
        at = (  # the tokens before DER: VER VAR INT OBJ CON RTP SOL, their operands and rows
            15 + problem.num_variables + len(problem.integer_set) + 2 * len(problem.objective)
            + sum(4 + 2 * len(constraint.lhs) for constraint in problem.constraints)
            + (0 if isinstance(goal, InfeasibleGoal) else 2)
            + sum(2 + 2 * len(solution.assignment) for solution in self.solutions)
        )
        row: list[str] = []

        def need(n: int) -> None:
            """``row`` from ``at`` on, batches joined on until it holds ``n`` tokens."""
            nonlocal row, at
            row, at = row[at:], 0
            while len(row) < n:
                row += next(batches)

        while at >= len(row):
            at, row = at - len(row), next(batches)
        need(2)
        if row[0] != "DER" or int(row[1]) != count:
            raise ValueError("no DER section where the first pass read it")
        at, kept, new_index, last_use = 2, self._kept, self._new_index, self._last_use
        for position in range(count):
            if at + 4 > len(row):
                need(4)
            brace = 4 + 2 * int(row[at + 3])  # <name> <sense> <rhs> <k> <k pairs> {
            if at + brace + 3 > len(row):
                need(brace + 3)
            keyword = row[at + brace + 1]  # lin and rnd go on with <m> <m pairs> } <last_use>
            end = brace + (_FIXED_REASONS.get(keyword) or 5 + 2 * int(row[at + brace + 2]))
            if at + end > len(row):
                need(end)
            tokens, at = row[at : at + end], at + end
            if kept is not None and not kept[position]:
                continue
            first, step = (brace + 2, 1) if keyword == "uns" else (brace + 3, 2)
            for place in range(first, end - 2, step):  # the references
                reference = int(tokens[place])
                if new_index[reference] != reference:
                    tokens[place] = str(new_index[reference])
            tokens[-1] = str(last_use[position])
            line = " ".join(tokens)
            if "/" in line or " -0" in line or line.count(" 0") != line.count(" 0 "):
                tokens[2:brace] = map(_canonical, tokens[2:brace])
                tokens[brace + 2 : -2] = map(_canonical, tokens[brace + 2 : -2])
                line = " ".join(tokens)
            sink.write(line + "\n")
