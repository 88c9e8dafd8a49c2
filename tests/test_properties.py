"""Generated-input checks of the exact vertex-height and bundle claims."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qrpat import (  # noqa: E402
    ReducedFraction,
    bundle_parameter,
    family_structure,
    fraction_params,
    layout_period,
    parabola_family,
    vertex_heights,
    vertex_on_bundle,
)


@st.composite
def bundle_cases(draw):
    """(m, b, lambda_n): m from just above b^2 up to 10^40, b <= 60, b covered."""
    b = draw(st.integers(1, 60))
    low = b * b + 1
    m = draw(st.one_of(st.integers(low, low + 64), st.integers(low, 10**40)))
    return m, b, draw(st.integers(max(2, b), 60))


@settings(deadline=None, database=None)
@given(bundle_cases())
def test_vertex_heights_match_family_and_lie_on_bundle(case):
    m, b, lambda_n = case
    period = layout_period(lambda_n)
    s = bundle_parameter(m, period)
    for a in range(b + 1):
        if math.gcd(a, b) != 1:
            continue
        frac = ReducedFraction(a, b)
        params = fraction_params(m, frac)
        heights = [Fraction(h, b * b) for h in vertex_heights(params)]
        assert len(heights) == params.b_prime
        family = parabola_family(params)
        assert family_structure(family)
        assert set(heights) == {(p.vertex_y / m) % 1 for p in family.members}

        beta_prime = params.beta % (params.c * b)
        x = Fraction(a, b)
        for rep in (s, s + period):
            pairs = vertex_on_bundle(m, period, frac, s=rep)
            assert [k for k, _ in pairs] == list(range(params.b_prime))
            for k, n in pairs:
                y = (Fraction(beta_prime, b**2) + Fraction(k, params.b_prime)) % 1
                assert (y + rep * x * x - 2 * n * x) % 1 == 0
