"""Exact arbitrary-precision rational arithmetic, parsing, and formatting.

Value contract. Every proof-relevant number in this package is either a
Python ``int`` or a :data:`Rational`, and never a ``float``:

* :func:`parse_rational` returns an ``int`` for a token ``[-]p``, and
  :func:`rational_floor`/:func:`rational_ceil` return ``int``, so integer
  data stays on CPython's integer arithmetic, which is far cheaper than any
  rational type (``model.linear_combine`` keeps integral results ``int``
  too);
* a :data:`Rational` is built only for a token ``p/q`` or by arithmetic that
  involves one. It is ``fractions.Fraction``, which keeps values canonical
  (positive denominator, gcd(|numerator|, denominator) = 1).

``int`` also exposes ``.numerator``/``.denominator`` (the latter always 1),
compares and hashes equal to the equal rational (``hash(1) ==
hash(Fraction(1))``), and mixes exactly with a rational in ``+``, ``-``,
``*``, comparisons and ``//``. The one operator that does not keep the
contract is ``/`` on two ``int`` operands, which yields a ``float``. So every
``/`` on proof-relevant values must have a :data:`Rational` operand (the
solver divides a :data:`Rational` one by a Farkas gap), and code that needs a
quotient of values that may both be ``int`` must write ``Rational(p, q)``.
The simplex tableau divides nothing: its rows are ``int`` numerators over an
``int`` denominator, updated with ``*``, ``-``, ``//`` by an exact gcd and
compared by cross-multiplication, and its results are read out as
``Rational(numerator, denominator)``.

The textual form of a rational is ``p`` or ``p/q`` with an optional leading
minus sign and q > 0, where ``p`` and ``q`` are ASCII digit strings — no
whitespace, no floats, no exponents, no ``+``, no ``_`` and no non-ASCII
digits. This grammar is deliberately stricter than what ``int()`` and the
``Fraction`` constructor accept, so tokens are validated by regex here rather
than delegated. Numbers of any length are accepted and written: digit
strings longer than CPython's int–string conversion limit are converted in
pieces, without changing that interpreter-wide limit.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rational
from typing import Union

#: The name of the rational type, for reports that record it.
BACKEND = "fractions"

__all__ = [
    "BACKEND",
    "Number",
    "Rational",
    "format_rational",
    "int_from_digits",
    "is_integral",
    "parse_rational",
    "rational_ceil",
    "rational_floor",
]

#: A proof-relevant number: an ``int`` when integral, else a :data:`Rational`.
Number = Union[int, Rational]

_TOKEN_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

#: CPython never limits int–string conversions of at most this many digits
#: (``sys.int_info.str_digits_check_threshold``), whatever the configured limit.
_SAFE_DIGITS = 640
_LOG10_2 = 0.30102999566398120


def int_from_digits(text: str) -> int:
    """``int(text)`` for an ASCII ``[-]digits`` string of any length.

    The caller validates ``text``. A string longer than the interpreter's
    int–string limit is split in halves and recombined, so the limit is
    never hit and never changed.
    """
    try:
        return int(text)
    except ValueError:
        if text.startswith("-"):
            return -_join_digits(text[1:])
        return _join_digits(text)


def _join_digits(digits: str) -> int:
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    low_length = len(digits) // 2
    high = _join_digits(digits[:-low_length])
    return high * 10**low_length + _join_digits(digits[-low_length:])


def _int_text(value: int) -> str:
    """``str(value)`` for an int of any length (see :func:`int_from_digits`)."""
    try:
        return str(value)
    except ValueError:  # beyond the interpreter's int-string limit
        return "-" + _split_digits(-value) if value < 0 else _split_digits(value)


def _split_digits(value: int) -> str:
    if value.bit_length() * _LOG10_2 < _SAFE_DIGITS - 1:
        return str(value)
    low_length = int(value.bit_length() * _LOG10_2) // 2
    high, low = divmod(value, 10**low_length)
    return _split_digits(high) + _split_digits(low).zfill(low_length)


def parse_rational(token: str) -> Number:
    """Parse a token ``[-]p`` (to an ``int``) or ``[-]p/q`` with q > 0 (to a
    :data:`Rational`).

    Raises ValueError for anything else, including a zero denominator.
    """
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # longer than the interpreter's int-string limit
            return int_from_digits(token)
    match = _TOKEN_RE.fullmatch(token)
    if match is None:
        msg = f"malformed rational token {token!r}"
        raise ValueError(msg)
    numerator_text, denominator_text = match.groups()
    numerator = int_from_digits(numerator_text)
    if denominator_text is None:
        return numerator
    denominator = int_from_digits(denominator_text)
    if denominator == 0:
        msg = f"zero denominator in rational token {token!r}"
        raise ValueError(msg)
    return Rational(numerator, denominator)


def format_rational(value: Number) -> str:
    """Render a value of any length in canonical token form (``p`` or ``p/q``)."""
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def rational_floor(value: Number) -> int:
    """Largest integer <= value."""
    return value.numerator // value.denominator


def rational_ceil(value: Number) -> int:
    """Smallest integer >= value."""
    return -((-value.numerator) // value.denominator)


def is_integral(value: Number) -> bool:
    """True iff value is an integer."""
    return value.denominator == 1
