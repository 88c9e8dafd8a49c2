"""Layout equivalence of residue plots and the line bundle under the vertices.

The placement of each parabola family, viewed as a whole, is fixed by
beta reduced modulo c*b, and beta == -a^2 * m (mod c*b).  So the layout
at denominator b depends only on m mod c*b: two moduli draw their
families in the same positions at b exactly when they are congruent
modulo c*b.  Moduli congruent modulo the layout period 2*lcm(2..n) of
``layout_period`` agree at every denominator the period covers; this
module builds, checks and reduces by that period.  The family vertices
are rational points of the wrapped curves Y = (2nX - sX^2) mod 1, where
s is any representative of m modulo the period.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .parabola import ReducedFraction, check_denominator, stride, vertex_heights

__all__ = [
    "LayoutComparison",
    "bundle_parameter",
    "check_period",
    "covered",
    "layout_period",
    "layouts_equivalent",
    "vertex_on_bundle",
]

# Largest lambda-n layout_period accepts: layout_period(9000) has 3,902 digits
# (under Python's 4,300-digit int-to-str limit, so equiv and bundle can print
# it) and takes about 0.04 s; the period has about 0.434*n digits.
MAX_LAMBDA_N = 9000


def check_period(period: int) -> int:
    """Validate a layout period (even integer >= 4)."""
    if period < 4 or period % 2:
        raise ValueError(f"layout period must be an even integer >= 4, got {period}")
    return period


def layout_period(n: int) -> int:
    """Twice the least common multiple of 2..n.

    Moduli congruent modulo this period place their residue parabolas
    identically at every anchor denominator b whose c*b divides it (see
    ``layouts_equivalent``).  n above MAX_LAMBDA_N is refused.
    """
    if n < 2:
        raise ValueError(f"layout period needs lambda-n >= 2, got {n}")
    if n > MAX_LAMBDA_N:
        raise ValueError(f"layout period needs lambda-n <= {MAX_LAMBDA_N}, got {n}")
    return 2 * math.lcm(*range(2, n + 1))


class LayoutComparison(namedtuple("LayoutComparison", "equivalent witness")):
    """Whether two layouts agree, and the 1/b that shows they do not (else None)."""

    __slots__ = ()


def covered(b: int, period: int) -> bool:
    """Whether the period pins down the layout at b: c*b divides it, c from ``stride(b)``."""
    return period % (stride(b)[1] * b) == 0


def layouts_equivalent(
    m1: int, m2: int, period: int, max_denominator: int
) -> LayoutComparison:
    """Whether two moduli place their parabola families identically.

    The layouts are compared at every denominator b <= max_denominator
    that the period covers; both moduli must exceed max_denominator^2.

    At b, every a/b has beta == -a^2 * m (mod c*b).  Write
    b*x0 = a*m - alpha and r0 = x0^2 - k*m; expanding b*b*r0 ==
    beta*m + alpha^2 gives beta = a^2*m - 2*a*alpha - b^2*k.  Since
    alpha == a*m (mod b), 2*a*alpha == 2*a^2*m (mod 2*b), and c*b divides
    both 2*b and b^2.  As gcd(a, c*b) == 1 (a is odd when b is even),
    a^2 is a unit modulo c*b, so the families at b agree exactly when
    m1 == m2 (mod c*b).  On a mismatch the witness is 1/b for the
    smallest such b: b = 1 never fails, and 1 is the smallest numerator
    at every b >= 2.

    The lcm of every covered c*b is the period if 4 divides it, else half
    of it; if that divides m1 - m2 no b fails.  Else b walks up from 1 to
    the first failure, a prime power: if b fails, p^(v+1) divides c*b with
    v = v_p(m1 - m2), so p^(v+1) (odd p) or 2^max(1, v) (p = 2) is covered,
    fails and is at most b.  At the period 2*lcm(2..n) those are <= n.
    """
    check_period(period)
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be >= 1, got {max_denominator}")
    check_denominator(m1, max_denominator)
    check_denominator(m2, max_denominator)
    if (m1 - m2) % (period if period % 4 == 0 else period // 2):
        for b in range(1, max_denominator + 1):
            if covered(b, period) and (m1 - m2) % (stride(b)[1] * b):
                return LayoutComparison(False, ReducedFraction(1, b))
    return LayoutComparison(True, None)


def bundle_parameter(m: int, period: int) -> int:
    """The representative s of m mod period in (-period/2, period/2].

    Any representative satisfies the vertex membership below; the
    balanced one is the canonical small-|s| choice.
    """
    check_period(period)
    r = m % period
    return r - period if 2 * r > period else r


def vertex_on_bundle(m: int, period: int, frac: ReducedFraction, s: int) -> list[int]:
    """The bundle line index n_k of every vertex k of the family at a/b, as [n_0, ...].

    For each vertex index k in [0, b_prime) the vertex sits at
    (X, Y) = (a/b, h_k / b^2) with h_k from ``vertex_heights``, and n_k
    is the smallest-|n| line index with Y + s*X^2 - 2*n*X an
    integer (ties to the positive n), i.e. with
    h_k + s*a^2 - 2*n*a*b divisible by b^2.  That integer membership is
    verified before n_k is returned.

    h_k + s*a^2 rises by c*b per vertex and gcd(2a, b) == c, so n_k solves
    (2a/c)*n == L0/c + k (mod b_prime) with L0 = (h_0 + s*a^2) / b: one
    inverse per fraction, and the n_k are ``canonical_offsets(b_prime)``
    in some order.

    The fraction's denominator must be covered by the period, and s may be
    any representative of m modulo the period (``bundle_parameter`` gives
    the balanced one).
    """
    check_period(period)
    if not covered(frac.b, period):
        raise ValueError(
            f"denominator {frac.b} is not covered by period {period}"
        )
    heights = vertex_heights(m, frac)
    if (m - s) % period:
        raise ValueError(f"s = {s} does not represent {m} modulo {period}")
    a, b = frac.a, frac.b
    (b_prime, c), bb = stride(b), b * b
    # Only (h + s*a^2) mod b^2 = (Y + s*X^2) * b^2 mod b^2 matters; off the bundle
    # (h + s*a^2 no multiple of b, or L0/c no integer) the exact check below fails.
    sa2 = s * a * a % bb
    start = (heights[0] + sa2) // b // c
    inverse = pow(2 * a // c, -1, b_prime)
    ns = []
    for k, h in enumerate(heights):
        n = (start + k) * inverse % b_prime
        if 2 * n > b_prime:
            n -= b_prime
        if (h + sa2 - 2 * n * a * b) % bb:
            raise ArithmeticError(
                f"line index {n} fails exact membership for vertex k={k} of {frac}"
            )
        ns.append(n)
    return ns
