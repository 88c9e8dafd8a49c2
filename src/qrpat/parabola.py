"""Parabola families in quadratic-residue plots.

Residue points near x = (a/b)*m fall on a small set of upward parabolas.
This module computes them exactly: each family member is an integer
quadratic r = A*j^2 + B*j + C evaluated along the lattice
x = x0 + i + j*b_prime, and all members share the rational vertex
abscissa a*m/b while their vertex ordinates are multiples of m/b^2
spaced exactly m/b_prime apart.

No floating point and no ``Fraction`` is used anywhere.  A member is
plain integers: its vertex sits at (a*m/b, h*m/b^2) with an integer
height h in [0, b^2).
"""

from __future__ import annotations

from collections import namedtuple

from .residues import ReducedFraction, check_modulus

__all__ = [
    "FractionParams",
    "Parabola",
    "ParabolaFamily",
    "anchor",
    "canonical_offsets",
    "check_denominator",
    "check_oracle_window",
    "covering_members",
    "evaluate_parabola",
    "family_rows",
    "family_structure",
    "fraction_params",
    "parabola_family",
    "residues_near",
    "stride",
    "verify_identity",
    "vertex_heights",
]

# Most points one residues_near call lists (~150 bytes each); more is refused.
MAX_ORACLE_POINTS = 10**6


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


class Parabola(namedtuple("Parabola", "i a_prime B C h")):
    """One family member, the named form of a ``family_rows`` row:
    r == (b_prime**2 * j*j + B*j + C) mod m at x = x0 + i + j*b_prime.

    m, x0 and b_prime belong to the family's params, not to the member.
    a_prime indexes the member's vertex height class modulo b_prime; the
    vertex sits at (a*m/b, h*m/b^2) with h in [0, b^2), so its ordinate
    is already reduced into [0, m).
    """

    __slots__ = ()


class ParabolaFamily(namedtuple("ParabolaFamily", "params members")):
    """The params (sole owner of m, x0 and b_prime) and the b_prime members at one fraction."""

    __slots__ = ()


def canonical_offsets(b_prime: int) -> range:
    """The b_prime offsets i, one per residue class mod b_prime.

    The range runs from -floor((b_prime-1)/2) through floor(b_prime/2) so
    that every class appears exactly once for either parity.
    """
    return range(-((b_prime - 1) // 2), b_prime // 2 + 1)


def check_denominator(m: int, b: int) -> int:
    """Validate m > b*b, which every family at denominator b (or below) needs."""
    if m <= b * b:
        raise ValueError(f"modulus {m} must exceed {b}^2 = {b * b}")
    return m


def check_oracle_window(points: int) -> None:
    """Refuse an oracle window of more than MAX_ORACLE_POINTS points."""
    if points > MAX_ORACLE_POINTS:
        raise ValueError(f"oracle window of {points} points exceeds the cap of {MAX_ORACLE_POINTS}")


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


def family_rows(params: FractionParams) -> list[tuple[int, int, int, int, int]]:
    """The rows (i, a_prime, B, C, h) of the b_prime members, i over
    ``canonical_offsets(b_prime)``: the one place the member formula is written.

    Vertex heights are the integers h == (beta + a_prime*c*b) mod b^2, and
    the a_prime values cover every class modulo b_prime exactly once.  A list,
    not a generator: resuming one per member made ``verify`` measurably slower.
    """
    m, x0, alpha, beta = params.m, params.x0, params.alpha, params.beta
    a, b = params.frac.a, params.frac.b
    b_prime, c = params.b_prime, params.c
    two_over_c, cb, bb = 2 // c, c * b, b * b
    rows = []
    for i in canonical_offsets(b_prime):
        a_prime = two_over_c * i * a % b_prime
        rows.append((i, a_prime, 2 * b_prime * i - two_over_c * alpha, (x0 + i) ** 2 % m,
                     (beta + a_prime * cb) % bb))
    return rows


def parabola_family(params: FractionParams) -> ParabolaFamily:
    """The b_prime member records of ``family_rows``, in its order."""
    return ParabolaFamily(params, tuple([Parabola._make(row) for row in family_rows(params)]))


def family_structure(family: ParabolaFamily) -> bool:
    """The vertex law of a family, checked in integers against ``vertex_heights``.

    True when the offsets i are ``canonical_offsets(b_prime)`` in order (the
    layout ``covering_members`` relies on) and the heights h, sorted, are
    the h_k.  Every member's vertex abscissa is a*m/b by construction: the
    family's params are the only ones its members have.
    """
    params = family.params
    members = family.members
    return (
        [p.i for p in members] == list(canonical_offsets(params.b_prime))
        and sorted(p.h for p in members) == list(vertex_heights(params.m, params.frac))
    )


def evaluate_parabola(params: FractionParams, p: Parabola, j: int) -> tuple[int, int]:
    """Point (x, r) of member p of params' family at lattice step j, x kept inside [0, m)."""
    m, b_prime = params.m, params.b_prime
    x = params.x0 + p.i + j * b_prime
    if not 0 <= x < m:
        raise ValueError(f"lattice step {j} puts x = {x} outside [0, {m})")
    return x, (b_prime * b_prime * j * j + p.B * j + p.C) % m


def residues_near(m: int, frac: ReducedFraction, window: int) -> list[tuple[int, int]]:
    """Brute-force residue points with |x - x0| <= window, by direct squaring.

    This is the oracle the predicted families are checked against; it
    never touches the lattice formulas.  The window is clipped to [0, m),
    so one of m or more lists every x once.  A clipped window of more than
    MAX_ORACLE_POINTS points is refused before the list is built.
    """
    check_modulus(m)
    if window < 1:
        raise ValueError(f"window must be a positive integer, got {window}")
    x0 = anchor(m, frac.a, frac.b)
    lo = max(0, x0 - window)
    hi = min(m - 1, x0 + window)
    check_oracle_window(hi - lo + 1)
    return [(x, x * x % m) for x in range(lo, hi + 1)]


def covering_members(family: ParabolaFamily, x: int, r: int) -> list[tuple[Parabola, int]]:
    """The (member, j) pairs of the family that hit the point (x, r): at most one.

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
    d -= p.i
    j = d // b_prime
    if d % b_prime or ((b_prime * b_prime * j + p.B) * j + p.C) % params.m != r:
        return []
    return [(p, j)]
