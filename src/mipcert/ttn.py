"""``mipcert ttn``: tightening a certificate file in two passes that build no certificate.

The first pass parses the file into :func:`mipcert.tighten._plan`, the in-memory tightener's one
plan: each derivation's references, and with pruning the check of ``mipcert check`` on the file's
own hints. The second pass reads the file again. It parses the header and the solutions, writes
them as ``write_certificate`` does, and copies each kept row's tokens, renumbering references,
writing the new last use and re-formatting a number only where its token is not canonical. Both
passes read the file through one line reader, which takes a CRC-32 of the text, into the parser's
tokenizer, so they split it into the same tokens and a file that changed between them is refused.
A file that cannot be read twice (a pipe, a FIFO) is refused before it is opened. The output is
what ``write_certificate`` writes of the in-memory ``tighten(certificate, prune=prune)``.
"""

from __future__ import annotations

import os
import stat
import zlib
from collections.abc import Iterator
from math import gcd
from typing import TextIO

from .certfile import ParseError, _Tokens, _take_front, _write_front, parse_certificate
from .certfile import split_header
from .numeric import format_rational, parse_rational
from .tighten import _plan

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


class TightenedFile:
    """``mipcert ttn`` of the certificate file at ``path``. Construction is the first pass,
    NotVerified when pruning a certificate that does not verify; it counts the file's
    ``derivations`` and those ``kept``. :meth:`write` is the second pass."""

    def __init__(self, path: str, *, prune: bool = False) -> None:
        self.path, self._crc = path, 0
        refusal = f"{path} is not a regular file, and ttn reads its input twice"
        if not stat.S_ISREG(os.stat(path).st_mode):  # before open(), which waits on a FIFO
            raise OSError(refusal)
        with open(path, encoding="utf-8") as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # the file opened
                raise OSError(refusal)
            events = parse_certificate(self._lines(handle))
            self._kept, self._new_index, self._last_use = _plan(*split_header(events), prune)
        self.derivations = len(self._last_use)
        self.kept = self.derivations if self._kept is None else self._kept.count(1)

    def _lines(self, handle: TextIO) -> Iterator[str]:
        """The lines of ``handle``, taken into the CRC-32 of the pass that reads them."""
        for line in handle:
            self._crc = zlib.crc32(line.encode(), self._crc)
            yield line

    def write(self, sink: TextIO) -> None:
        """Write ``write_certificate(tighten(certificate, prune=prune))`` to ``sink``, reading
        the file again; OSError if its text is not what the first pass read."""
        first_pass, self._crc = self._crc, 0
        with open(self.path, encoding="utf-8") as handle:
            tokens = _Tokens(self._lines(handle))
            try:
                header, *solutions = _take_front(tokens)
                _write_front(header.problem, header.goal, solutions, sink)
                self._copy_rows(tokens, sink)
                row, at = tokens.take(1)
                unchanged = not row[at] and self._crc == first_pass  # "": the input's end
            except (ParseError, ValueError, LookupError, ArithmeticError):
                unchanged = False  # text the first pass did not read
        if not unchanged:
            raise OSError(f"{self.path} changed while it was read")

    def _copy_rows(self, tokens: _Tokens, sink: TextIO) -> None:
        count = self.derivations
        if tokens.count("DER", "after SOL section", "derivations") != count:
            raise ValueError("not the DER count the first pass read")
        sink.write(f"DER {self.kept}\n")
        kept, new_index, last_use = self._kept, self._new_index, self._last_use
        for position in range(count):
            row, at = tokens.row, tokens.at
            if at + 4 > len(row):
                row, at = tokens.join(at, 4), 0
            brace = 4 + 2 * int(row[at + 3])  # <name> <sense> <rhs> <k> <k pairs> {
            if at + brace + 3 > len(row):
                row, at = tokens.join(at, brace + 3), 0
            keyword = row[at + brace + 1]  # lin and rnd go on with <m> <m pairs> } <last_use>
            end = brace + (_FIXED_REASONS.get(keyword) or 5 + 2 * int(row[at + brace + 2]))
            row, at = tokens.take(end)
            if kept is not None and not kept[position]:
                continue
            copied = row[at : at + end]
            first, step = (brace + 2, 1) if keyword == "uns" else (brace + 3, 2)
            for place in range(first, end - 2, step):  # the references
                reference = int(copied[place])
                if new_index[reference] != reference:
                    copied[place] = str(new_index[reference])
            copied[-1] = str(last_use[position])
            line = " ".join(copied)
            if "/" in line or " -0" in line or line.count(" 0") != line.count(" 0 "):
                copied[2:brace] = map(_canonical, copied[2:brace])
                copied[brace + 2 : -2] = map(_canonical, copied[brace + 2 : -2])
                line = " ".join(copied)
            sink.write(line + "\n")
