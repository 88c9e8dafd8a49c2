"""Tests for the exact arithmetic primitives."""

import sys
from fractions import Fraction

import pytest

from qrpat import (
    ReducedFraction,
    farey_fractions,
    layout_period,
)


def brute_farey(max_denominator):
    values = sorted(
        {Fraction(a, b) for b in range(1, max_denominator + 1) for a in range(b + 1)}
    )
    return [ReducedFraction(v.numerator, v.denominator) for v in values]


def test_farey_smallest():
    assert farey_fractions(1) == [ReducedFraction(0, 1), ReducedFraction(1, 1)]


def test_farey_order_three():
    assert farey_fractions(3) == [
        ReducedFraction(0, 1),
        ReducedFraction(1, 3),
        ReducedFraction(1, 2),
        ReducedFraction(2, 3),
        ReducedFraction(1, 1),
    ]


def test_farey_order_five_count():
    assert len(farey_fractions(5)) == 11


def test_farey_matches_brute_enumeration():
    for n in range(1, 13):
        got = farey_fractions(n)
        assert got == brute_farey(n)
        assert len(got) == len(set(got))
        values = [Fraction(f.a, f.b) for f in got]
        assert values == sorted(values)


def test_farey_rejects_nonpositive():
    with pytest.raises(ValueError):
        farey_fractions(0)


def test_layout_period_values():
    assert layout_period(2) == 4
    assert layout_period(4) == 24
    assert layout_period(9) == 5040


def test_layout_period_rejects_small():
    with pytest.raises(ValueError):
        layout_period(1)


def test_layout_period_divisible_by_covered_denominators():
    for n in range(2, 31):
        period = layout_period(n)
        for b in range(1, n + 1):
            c = 1 if b % 2 else 2
            assert period % (c * b) == 0


def test_reduced_fraction_validation():
    with pytest.raises(ValueError):
        ReducedFraction(2, 6)
    with pytest.raises(ValueError):
        ReducedFraction(3, 2)
    with pytest.raises(ValueError):
        ReducedFraction(1, 0)
    with pytest.raises(ValueError):
        ReducedFraction(-1, 2)


def test_reduced_fraction_parse():
    assert ReducedFraction.parse("1/3") == ReducedFraction(1, 3)
    assert ReducedFraction.parse("1") == ReducedFraction(1, 1)
    with pytest.raises(ValueError):
        ReducedFraction.parse("2/6")
    with pytest.raises(ValueError, match=r"^cannot parse fraction 'x/y'$"):
        ReducedFraction.parse("x/y")


def test_reduced_fraction_parse_names_the_digit_limit_without_the_digits():
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("int-from-str conversion is unlimited here")
    # the whole text used to be echoed back: 5,202 bytes of stderr for 5,000 nines
    with pytest.raises(ValueError) as exc:
        ReducedFraction.parse("1/" + "9" * (limit + 700))
    message = str(exc.value)
    assert message.startswith("cannot parse fraction: ") and f"({limit} digits)" in message
    assert "9" * 64 not in message and len(message) < 300
