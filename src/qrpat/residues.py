"""Exact arithmetic primitives for quadratic-residue pattern analysis.

Everything here is pure and exact: Python integers are unbounded, so
squaring never overflows for any modulus width, and an anchor fraction
is a ``ReducedFraction``, a pair of integers kept in lowest terms.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "ReducedFraction",
    "check_modulus",
    "layout_period",
]

# Largest lambda-n layout_period accepts: layout_period(9000) has 3,902 digits
# (under Python's 4,300-digit int-to-str limit, so equiv and bundle can print
# it) and takes about 0.04 s; the period has about 0.434*n digits.
MAX_LAMBDA_N = 9000


def check_modulus(m: int) -> int:
    """Validate a plot modulus (any integer >= 2)."""
    if m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m}")
    return m


class ReducedFraction(namedtuple("ReducedFraction", "a b")):
    """A fraction a/b in lowest terms, confined to [0, 1].

    These are the anchors of the parabola families: each family sits
    around x = (a/b) * m in a residue plot.  A checked, immutable namedtuple:
    it unpacks as (a, b) and equals that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "ReducedFraction":
        if b < 1:
            raise ValueError(f"denominator must be positive, got {b}")
        if not 0 <= a <= b:
            raise ValueError(f"{a}/{b} lies outside [0, 1]")
        if math.gcd(a, b) != 1:
            raise ValueError(f"{a}/{b} is not in lowest terms")
        return tuple.__new__(cls, (a, b))

    # namedtuple's own _make, which _replace calls, would skip the checks in __new__
    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def parse(cls, text: str) -> "ReducedFraction":
        """Parse 'a/b' (or a bare integer) into a ReducedFraction."""
        num, sep, den = text.partition("/")
        try:
            a = int(num)
            b = int(den) if sep else 1
        except ValueError as exc:
            # a long text is not echoed: int's message names its digit limit instead
            raise ValueError(f"cannot parse fraction {text!r}" if len(text) <= 100
                             else f"cannot parse fraction: {exc}") from None
        return cls(a, b)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


def layout_period(n: int) -> int:
    """Twice the least common multiple of 2..n.

    Moduli congruent modulo this period place their residue parabolas
    identically at every anchor denominator b whose c*b divides it (see
    ``qrpat.patterns``).  n above MAX_LAMBDA_N is refused.
    """
    if n < 2:
        raise ValueError(f"layout period needs lambda-n >= 2, got {n}")
    if n > MAX_LAMBDA_N:
        raise ValueError(f"layout period needs lambda-n <= {MAX_LAMBDA_N}, got {n}")
    return 2 * math.lcm(*range(2, n + 1))
