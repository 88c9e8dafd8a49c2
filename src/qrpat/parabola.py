"""The parabola families of quadratic-residue plots.

Residue points near x = (a/b)*m fall on a small set of upward parabolas.
This module computes them exactly: each family member is an integer
quadratic r = A*j^2 + B*j + C evaluated along the lattice
x = x0 + i + j*b_prime, and all members share the rational vertex
abscissa a*m/b while their vertex ordinates are multiples of m/b^2
spaced exactly m/b_prime apart.

No floating point and no ``Fraction`` is used anywhere.  An anchor is a
``ReducedFraction``, a checked pair of integers in lowest terms, and a member
is plain integers: its vertex sits at (a*m/b, h*m/b^2) with an integer
height h in [0, b^2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat

__all__ = [
    "FractionParams",
    "OracleWindow",
    "ParabolaFamily",
    "ReducedFraction",
    "anchor",
    "canonical_offsets",
    "check_denominator",
    "check_modulus",
    "check_oracle_window",
    "covering_members",
    "family_rows",
    "family_structure",
    "fraction_params",
    "length_weight",
    "parabola_family",
    "residues_near",
    "stride",
    "verify_identity",
    "vertex_heights",
]

# Most points in one residues_near window, a bound on its time (no point is kept); more is refused.
MAX_ORACLE_POINTS = 10**6


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


class FractionParams(namedtuple("FractionParams", "m frac b_prime c alpha beta x0 r0")):
    """Exact quantities of one (modulus, anchor fraction) pair, an immutable namedtuple.

    x0 is ``anchor(m, a, b)`` and r0 is its quadratic residue.  alpha is
    a*m - b*x0, the remainder of a*m mod b in [-b/2, b/2).  beta, in [0, b*b),
    fixes the vertex heights of the family through the integer identity

        b*b * r0 == beta * m + alpha*alpha

    which holds whenever m > b*b / 4 (guaranteed here by the stronger
    construction guard m > b*b).  (b_prime, c) is ``stride(b)``: b_prime
    is the lattice stride of the family and c == b // b_prime.
    """

    __slots__ = ()


class ParabolaFamily(namedtuple("ParabolaFamily", "params members")):
    """The params (sole owner of m, x0 and b_prime) and the ``family_rows`` rows at one fraction."""

    __slots__ = ()


def canonical_offsets(b_prime: int) -> range:
    """The b_prime offsets i, one per residue class mod b_prime.

    The range runs from -floor((b_prime-1)/2) through floor(b_prime/2) so
    that every class appears exactly once for either parity.
    """
    return range(-((b_prime - 1) // 2), b_prime // 2 + 1)


def check_modulus(m: int) -> int:
    """Validate a plot modulus (any integer >= 2)."""
    if m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m}")
    return m


def check_denominator(m: int, b: int) -> int:
    """Validate m > b*b, which every family at denominator b (or below) needs."""
    if m <= b * b:
        raise ValueError(f"modulus {m} must exceed {b}^2")
    return m


def check_oracle_window(m: int, x0: int, window: int) -> tuple[int, int]:
    """(lo, hi), the first and last x of the oracle window: the x in [0, m) within window
    of x0, so one of m or more holds every x once.  More than MAX_ORACLE_POINTS points
    are refused, counted as hi - lo + 1 (a range's len overflows past sys.maxsize)."""
    lo, hi = max(0, x0 - window), min(m - 1, x0 + window)
    points = hi - lo + 1
    if points > MAX_ORACLE_POINTS:
        raise ValueError(f"oracle window of {points} points exceeds the cap of {MAX_ORACLE_POINTS}")
    return lo, hi


def length_weight(m: int, scale: int, power: int = 2) -> int:
    """Units one element of a request counts as at modulus m, 1 + bits^power // scale^power,
    as its cost grows with m's length (CPython 3.11; see README's caps).  verify's oracle
    point, the larger of (300, 1) and (550, 2): 0.6 µs at 7 digits to 339 at 4,001, and 1.8
    to 3.5 µs from 40 to 200 digits on a slower VM; verify's member (1024, 2): 0.64 to 128 µs;
    predict's member (1200, 2): 1.3 to 710 µs; grid's cell (256, 1): 0.06 to 4.4 µs at 4,300."""
    return 1 + m.bit_length() ** power // scale ** power


def stride(b: int) -> tuple[int, int]:
    """(b_prime, c) at b: the lattice stride b (odd b) or b/2 (even b), and c = b // b_prime."""
    return (b, 1) if b % 2 else (b // 2, 2)


def anchor(m: int, a: int, b: int) -> int:
    """x0 = floor(a*m/b + 1/2): the integer nearest (a/b)*m, halves rounding up."""
    return (2 * a * m + b) // (2 * b)


def fraction_params(m: int, frac: ReducedFraction) -> FractionParams:
    """Compute all anchor quantities for the family at (a/b) * m.

    Requires m > b*b; smaller moduli have no meaningful family at this
    denominator and would break the vertex-height identity.
    """
    check_modulus(m)
    a, b = frac.a, frac.b
    check_denominator(m, b)
    x0 = anchor(m, a, b)
    alpha = a * m - b * x0
    r0 = x0 * x0 % m
    beta = (a * a * m - 2 * a * alpha) % (b * b)
    return FractionParams(m, frac, *stride(b), alpha, beta, x0, r0)


def verify_identity(params: FractionParams) -> bool:
    """Check the exact integer identity b*b * r0 == beta * m + alpha*alpha.

    Equivalently r0 is the nearest integer to beta * m / b^2, since the
    correction alpha^2 / b^2 never exceeds 1/4.
    """
    b = params.frac.b
    return b * b * params.r0 == params.beta * params.m + params.alpha * params.alpha


def vertex_heights(m: int, frac: ReducedFraction) -> range:
    """Vertex heights h_k = beta' + k*c*b, k < b_prime, of the family at a/b.

    beta' = beta mod c*b == -a*a*m mod c*b (see ``patterns.layouts_equivalent``),
    so no ``fraction_params`` is needed.  Vertex k sits at normalized height
    h_k / b^2 == (beta'/b^2 + k/b_prime) mod 1.  Requires m > b*b.
    """
    check_modulus(m)
    a, b = frac.a, frac.b
    check_denominator(m, b)
    step = stride(b)[1] * b
    return range(-a * a * m % step, b * b, step)


def family_rows(params: FractionParams, offsets: range | None = None
                ) -> list[tuple[int, int, int, int, int]]:
    """The rows (i, a_prime, B, C, h) of the b_prime members, i over
    ``canonical_offsets(b_prime)`` or the given slice of it: the one place the member
    formula and field order are written.

    Row i is r == (b_prime**2 * j*j + B*j + C) mod m at x = x0 + i + j*b_prime, with m, x0
    and b_prime from params.  Its vertex is (a*m/b, h*m/b^2) with h == (beta + a_prime*c*b)
    mod b^2 in [0, b^2); the a_prime values cover every class modulo b_prime once.  A list,
    not a generator: resuming one per member made ``verify`` measurably slower.
    """
    m, x0, alpha, beta = params.m, params.x0, params.alpha, params.beta
    a, b = params.frac.a, params.frac.b
    b_prime, c = params.b_prime, params.c
    two_over_c, cb, bb = 2 // c, c * b, b * b
    offsets = canonical_offsets(b_prime) if offsets is None else offsets
    x, step = x0 + offsets.start, offsets.step
    C, odd, bump, rows = x * x % m, (2 * x + step) * step, 2 * step * step, []
    for i in offsets:  # C steps as (x + s)^2 = x^2 + (2x + s)*s: one squaring per call
        a_prime = two_over_c * i * a % b_prime
        rows.append((i, a_prime, 2 * b_prime * i - two_over_c * alpha, C,
                     (beta + a_prime * cb) % bb))
        C = (C + odd) % m
        odd += bump
    return rows


def parabola_family(params: FractionParams) -> ParabolaFamily:
    """The family at params: its members are the ``family_rows`` rows, as a tuple."""
    return ParabolaFamily(params, tuple(family_rows(params)))


def family_structure(family: ParabolaFamily) -> bool:
    """The vertex law of a family, checked in integers against ``vertex_heights``.

    True when the offsets i are ``canonical_offsets(b_prime)`` in order (the
    layout ``covering_members`` relies on) and the heights h, sorted, are
    the h_k.  Every member's vertex abscissa is a*m/b by construction: the
    family's params are the only ones its members have.
    """
    params, members = family
    return (
        [p[0] for p in members] == list(canonical_offsets(params.b_prime))
        and sorted(p[4] for p in members) == list(vertex_heights(params.m, params.frac))
    )


class OracleWindow:
    """The points (x, x*x mod m) of one clipped oracle window, x in xs = range(lo, hi + 1):
    a sized view like ``range`` that squares each x only as it is read.  It iterates
    as the (x, r) pairs, and ``residues()`` gives the r alone."""

    __slots__ = ("m", "xs")

    def __init__(self, m: int, xs: range) -> None:
        self.m, self.xs = m, xs

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self):
        return zip(self.xs, self.residues())

    def residues(self):
        return map(pow, self.xs, repeat(2), repeat(self.m))


def residues_near(m: int, frac: ReducedFraction, window: int) -> OracleWindow:
    """Brute-force residue points with |x - x0| <= window, by direct squaring.

    This is the oracle the predicted families are checked against; it
    never touches the lattice formulas.  The window is clipped to [0, m) by
    ``check_oracle_window``, which refuses one of more than MAX_ORACLE_POINTS
    points before the view is built; the view squares each point as it is read.
    """
    check_modulus(m)
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    lo, hi = check_oracle_window(m, anchor(m, frac.a, frac.b), window)
    return OracleWindow(m, range(lo, hi + 1))


def covering_members(family: ParabolaFamily, x: int, r: int) -> list[tuple[tuple, int]]:
    """The (row, j) pairs of the family that hit the point (x, r): at most one.

    The offsets are b_prime consecutive integers from -((b_prime - 1) // 2),
    so only the member at index (x - x0 + (b_prime - 1) // 2) mod b_prime can
    hit x; its own i and r are still checked, so a family not laid out as
    ``family_structure`` requires gets no false hit.  m, x0 and A = b_prime**2
    are the family's.  Called once per oracle point, so each field is read
    once and r is evaluated in Horner form.
    """
    params = family.params
    b_prime = params.b_prime
    d = x - params.x0
    try:
        p = family.members[(d + (b_prime - 1) // 2) % b_prime]
    except IndexError:
        return []
    d -= p[0]
    j = d // b_prime
    if d % b_prime or ((b_prime * b_prime * j + p[2]) * j + p[3]) % params.m != r:
        return []
    return [(p, j)]
