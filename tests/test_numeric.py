"""Exact rational parsing, formatting, and integer rounding."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mipcert.numeric import (
    Rational,
    format_rational,
    is_integral,
    parse_rational,
    rational_ceil,
    rational_floor,
)


class TestParse:
    @pytest.mark.parametrize(
        ("text", "num", "den"),
        [
            ("0", 0, 1),
            ("3", 3, 1),
            ("-3", -3, 1),
            ("3/7", 3, 7),
            ("-3/7", -3, 7),
            ("10/4", 5, 2),  # canonicalized
            ("-10/4", -5, 2),
            ("0/5", 0, 1),
            ("1000000000000000000000/7", 10**21, 7),
        ],
    )
    def test_valid(self, text: str, num: int, den: int) -> None:
        value = parse_rational(text)
        assert value == Rational(num, den)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            " 3",
            "3 ",
            "+3",
            "3.5",
            "1/2/3",
            "1/-2",
            "--3",
            "3/",
            "/7",
            "a",
            "0x10",
            "1e3",
            "inf",
            "3/0",
            "-3/0",
        ],
    )
    def test_invalid(self, text: str) -> None:
        with pytest.raises(ValueError):
            parse_rational(text)


class TestFormat:
    @pytest.mark.parametrize(
        ("value", "text"),
        [
            (Rational(0), "0"),
            (Rational(5), "5"),
            (Rational(-5), "-5"),
            (Rational(3, 7), "3/7"),
            (Rational(-3, 7), "-3/7"),
            (Rational(10, 4), "5/2"),
        ],
    )
    def test_known(self, value: Rational, text: str) -> None:
        assert format_rational(value) == text


class TestRounding:
    @pytest.mark.parametrize(
        ("value", "floor", "ceil"),
        [
            (Rational(0), 0, 0),
            (Rational(7), 7, 7),
            (Rational(-7), -7, -7),
            (Rational(1, 4), 0, 1),
            (Rational(-1, 4), -1, 0),
            (Rational(7, 2), 3, 4),
            (Rational(-7, 2), -4, -3),
            (Rational(10, 17), 0, 1),
            (Rational(-1, 17), -1, 0),
        ],
    )
    def test_floor_ceil(self, value: Rational, floor: int, ceil: int) -> None:
        assert rational_floor(value) == Rational(floor)
        assert rational_ceil(value) == Rational(ceil)

    def test_is_integral(self) -> None:
        assert is_integral(Rational(4))
        assert is_integral(Rational(-4))
        assert is_integral(Rational(8, 2))
        assert not is_integral(Rational(1, 2))
        assert not is_integral(Rational(-1, 2))


def test_ordering_is_exact() -> None:
    # 10/17 > 1/2 while both round to the same float-ish neighborhood.
    assert Rational(10, 17) > Rational(1, 2)
    assert Rational(1, 3) < Rational(34, 100)
    assert Rational(2, 6) == Rational(1, 3)


rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
).map(lambda f: Rational(f.numerator, f.denominator))


@given(rationals)
def test_parse_format_round_trip(value: Rational) -> None:
    assert parse_rational(format_rational(value)) == value


@given(rationals)
def test_floor_ceil_bracket(value: Rational) -> None:
    floor = rational_floor(value)
    ceil = rational_ceil(value)
    assert is_integral(floor) and is_integral(ceil)
    assert floor <= value <= ceil
    assert value - floor < 1
    assert ceil - value < 1
    if is_integral(value):
        assert floor == value == ceil
    else:
        assert ceil == floor + 1


@given(rationals, rationals)
def test_field_arithmetic_is_exact(a: Rational, b: Rational) -> None:
    assert a + b - b == a
    assert a * b == b * a
    if b != 0:
        assert (a / b) * b == a
    assert a - a == Rational(0)


# --- the int/Rational value contract ---------------------------------------


class TestValueTypes:
    @pytest.mark.parametrize("text", ["0", "7", "-7", "123456789012345678901234567890"])
    def test_integral_tokens_parse_to_int(self, text: str) -> None:
        value = parse_rational(text)
        assert type(value) is int

    @pytest.mark.parametrize("text", ["1/2", "-3/7", "4/2"])
    def test_fraction_tokens_parse_to_rational(self, text: str) -> None:
        assert isinstance(parse_rational(text), Rational)

    @pytest.mark.parametrize("value", [7, -7, Rational(7, 2), Rational(-7, 2), Rational(4)])
    def test_floor_and_ceil_are_int(self, value) -> None:
        assert type(rational_floor(value)) is int
        assert type(rational_ceil(value)) is int

    @pytest.mark.parametrize("value", [0, 5, -5])
    def test_ints_format_like_rationals(self, value: int) -> None:
        assert format_rational(value) == format_rational(Rational(value)) == str(value)
        assert is_integral(value)


class TestAsciiGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "٢",  # ARABIC-INDIC DIGIT TWO
            "-٢",
            "²",  # SUPERSCRIPT TWO
            "1٠",
            "１",  # FULLWIDTH DIGIT ONE
            "1/٢",
            "١/2",
            "1_0",
            "1/1_0",
            "+5",
        ],
    )
    def test_non_ascii_digits_and_int_extensions_are_rejected(self, text: str) -> None:
        with pytest.raises(ValueError, match="malformed rational token"):
            parse_rational(text)


class TestLongNumbers:
    """Numbers beyond CPython's int-string digit limit (4,300 by default)."""

    def test_parse_5000_ones(self) -> None:
        assert parse_rational("1" * 5000) == (10**5000 - 1) // 9
        assert parse_rational("-" + "1" * 5000) == -((10**5000 - 1) // 9)

    def test_format_power_of_ten(self) -> None:
        assert format_rational(Rational(10**5000)) == "1" + "0" * 5000
        assert format_rational(-(10**5000)) == "-1" + "0" * 5000

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(3**10478, id="5000-digits"),
            pytest.param(-(7**23665), id="minus-20000-digits"),
            pytest.param(Rational(10**19999 + 1, 3**4191), id="20000-over-2000-digits"),
            pytest.param(Rational(-1, 10**5000 - 1), id="minus-1-over-5000-nines"),
        ],
    )
    def test_round_trip(self, value) -> None:
        text = format_rational(value)
        assert parse_rational(text) == value
        assert text.lstrip("-").split("/")[0][0] != "0"

    @pytest.mark.parametrize("digits", [4300, 4301, 9999, 10_000, 20_000])
    def test_zero_padding_inside_long_numbers(self, digits: int) -> None:
        value = 10 ** (digits - 1) + 1
        text = format_rational(value)
        assert text == "1" + "0" * (digits - 2) + "1"
        assert parse_rational(text) == value

    def test_interpreter_limit_is_unchanged(self) -> None:
        getter = getattr(sys, "get_int_max_str_digits", None)
        if getter is None:
            pytest.skip("this Python has no int-string digit limit")
        before = getter()
        parse_rational("9" * 6000)
        format_rational(10**6000)
        assert getter() == before

    @given(st.integers(min_value=600, max_value=30_000), st.randoms(use_true_random=False))
    def test_matches_unlimited_str(self, digits: int, rng) -> None:
        if not hasattr(sys, "set_int_max_str_digits"):
            return
        value = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((-1, 1))
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(value)
        finally:
            sys.set_int_max_str_digits(before)
        assert format_rational(value) == expected
        assert parse_rational(expected) == value
