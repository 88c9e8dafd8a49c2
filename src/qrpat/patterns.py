"""Layout equivalence of residue plots and the line bundle under the vertices.

The placement of each parabola family, viewed as a whole, is fixed by
beta reduced modulo c*b.  Collecting that value for every anchor
fraction gives a fingerprint of the modulus; two moduli congruent
modulo a layout period draw their families in the same positions for
every denominator the period covers.  The family vertices themselves
are rational points of the wrapped curves Y = (2nX - sX^2) mod 1, where
s is any representative of m modulo the period.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .parabola import check_denominator, fraction_params, vertex_heights
from .residues import ReducedFraction, farey_fractions

__all__ = [
    "LayoutComparison",
    "beta_signature",
    "bundle_parameter",
    "check_period",
    "denominator_set",
    "layouts_equivalent",
    "vertex_on_bundle",
]


def check_period(period: int) -> int:
    """Validate a layout period (even integer >= 4)."""
    if period < 4 or period % 2:
        raise ValueError(f"layout period must be an even integer >= 4, got {period}")
    return period


class LayoutComparison(NamedTuple):
    equivalent: bool
    witness: ReducedFraction | None


def _covered(b: int, period: int) -> bool:
    return period % b == 0 if b % 2 else period % (2 * b) == 0


def denominator_set(period: int, max_b: int) -> frozenset[int]:
    """The denominators up to max_b whose family layout the period pins down.

    b belongs when b divides the period (odd b) or 2*b divides it
    (even b); equivalently c*b divides the period.
    """
    check_period(period)
    if max_b < 1:
        raise ValueError(f"max_b must be >= 1, got {max_b}")
    return frozenset(b for b in range(1, max_b + 1) if _covered(b, period))


def beta_signature(m: int, max_denominator: int) -> dict[ReducedFraction, int]:
    """Layout fingerprint of m: beta mod c*b for every reduced fraction with
    denominator <= max_denominator.

    Each entry lies in [0, c*b) and depends only on m mod c*b.
    """
    check_denominator(m, max_denominator)
    entries = {}
    for frac in farey_fractions(max_denominator):
        params = fraction_params(m, frac)
        entries[frac] = params.beta % (params.c * frac.b)
    return entries


def layouts_equivalent(
    m1: int, m2: int, period: int, max_denominator: int
) -> LayoutComparison:
    """Whether two moduli place their parabola families identically.

    Signature entries are compared for every denominator covered by the
    period.  On a mismatch the witness is the offending fraction with the
    smallest denominator (ties broken by smallest numerator).
    """
    dset = denominator_set(period, max_denominator)
    sig1 = beta_signature(m1, max_denominator)
    sig2 = beta_signature(m2, max_denominator)
    for frac in sorted(sig1, key=ReducedFraction.sort_key):
        if frac.b not in dset:
            continue
        if sig1[frac] != sig2[frac]:
            return LayoutComparison(False, frac)
    return LayoutComparison(True, None)


def bundle_parameter(m: int, period: int) -> int:
    """The representative s of m mod period in (-period/2, period/2].

    Any representative satisfies the vertex membership below; the
    balanced one is the canonical small-|s| choice.
    """
    check_period(period)
    r = m % period
    return r - period if 2 * r > period else r


def _smallest_line_index(coef: int, rhs: int, mod: int) -> int:
    """Solve coef * n == rhs (mod mod) for the n of smallest absolute value.

    Ties between n and -n go to the positive solution.
    """
    if mod == 1:
        return 0
    g = math.gcd(coef, mod)
    if rhs % g:
        raise ArithmeticError(f"{coef}*n == {rhs} (mod {mod}) has no solution")
    reduced = mod // g
    n0 = (rhs // g) * pow(coef // g, -1, reduced) % reduced
    return n0 - reduced if 2 * n0 > reduced else n0


def vertex_on_bundle(
    m: int, period: int, frac: ReducedFraction, s: int | None = None
) -> list[tuple[int, int]]:
    """Match every vertex of the family at a/b to a bundle line.

    For each vertex index k in [0, b_prime) the vertex sits at
    (X, Y) = (a/b, h_k / b^2) with h_k from ``vertex_heights``, and the
    returned n is the smallest-|n| line index with Y + s*X^2 - 2*n*X an
    integer (ties to the positive n), i.e. with
    h_k + s*a^2 - 2*n*a*b divisible by b^2.  That integer membership is
    verified before the pair is returned.

    The fraction's denominator must be covered by the period; s defaults
    to the balanced representative of m but any other representative of
    the same class may be passed in.
    """
    check_period(period)
    if not _covered(frac.b, period):
        raise ValueError(
            f"denominator {frac.b} is not covered by period {period}"
        )
    params = fraction_params(m, frac)
    if s is None:
        s = bundle_parameter(m, period)
    elif (m - s) % period:
        raise ValueError(f"s = {s} does not represent {m} modulo {period}")
    a, b = frac.a, frac.b
    pairs = []
    for k, h in enumerate(vertex_heights(params)):
        # h + s*a^2 = (Y + s*X^2) * b^2, a multiple of b when b is covered.
        lifted = h + s * a * a
        if lifted % b:
            raise ArithmeticError(
                f"vertex k={k} of {frac} mod {m} is off the bundle lattice"
            )
        n = _smallest_line_index(2 * a, lifted // b, b)
        if (lifted - 2 * n * a * b) % (b * b):
            raise ArithmeticError(
                f"line index {n} fails exact membership for vertex k={k} of {frac}"
            )
        pairs.append((k, n))
    return pairs
