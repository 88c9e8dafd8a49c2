"""Generated-input checks of the lattice, coverage, vertex-height and bundle claims."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qrpat import (  # noqa: E402
    ReducedFraction,
    bundle_parameter,
    covering_members,
    evaluate_parabola,
    family_structure,
    fraction_params,
    layout_period,
    parabola_family,
    vertex_heights,
    vertex_on_bundle,
)


def moduli_above(b):
    """m from just above b^2 up to 10^40, with the values near b^2 drawn often."""
    low = b * b + 1
    return st.one_of(st.integers(low, low + 64), st.integers(low, 10**40))


@st.composite
def family_cases(draw):
    """A family for m from just above b^2 up to 10^40, b <= 60, any a coprime to b."""
    b = draw(st.integers(1, 60))
    m = draw(moduli_above(b))
    a = draw(st.integers(0, b).filter(lambda a: math.gcd(a, b) == 1))
    return parabola_family(fraction_params(m, ReducedFraction(a, b)))


@settings(deadline=None, database=None)
@given(family_cases(), st.data())
def test_lattice_evaluation_is_direct_squaring(family, data):
    params = family.params
    p = data.draw(st.sampled_from(family.members))
    base = params.x0 + p.i
    j = data.draw(st.integers(-(base // params.b_prime), (params.m - 1 - base) // params.b_prime))
    x, r = evaluate_parabola(p, j)
    assert x == base + j * params.b_prime
    assert r == pow(x, 2, params.m)


@settings(deadline=None, database=None)
@given(family_cases())
def test_each_point_near_anchor_on_exactly_one_member(family):
    params = family.params
    m, x0, span = params.m, params.x0, 3 * params.b_prime
    for x in range(max(0, x0 - span), min(m, x0 + span + 1)):
        hits = covering_members(family, x, pow(x, 2, m))
        assert len(hits) == 1
        (p, j), = hits
        assert evaluate_parabola(p, j) == (x, pow(x, 2, m))


@st.composite
def bundle_cases(draw):
    """(m, b, lambda_n): m from just above b^2 up to 10^40, b <= 60, b covered."""
    b = draw(st.integers(1, 60))
    m = draw(moduli_above(b))
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
