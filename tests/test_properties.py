"""Generated-input checks of the anchor identity, lattice, coverage, vertex-height,
predict and bundle output (against the json.dumps byte references), request plan,
layout and bundle claims."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qrpat import (  # noqa: E402
    LayoutComparison,
    ReducedFraction,
    bundle_parameter,
    canonical_offsets,
    cli,
    covering_members,
    evaluate_parabola,
    family_rows,
    farey_fractions,
    family_structure,
    fraction_params,
    layout_period,
    layouts_equivalent,
    parabola,
    parabola_family,
    residues_near,
    verify_identity,
    vertex_heights,
    vertex_on_bundle,
)
from qrpat.cli import main  # noqa: E402
from test_cli import bundle_argv, bundle_reference, predict_argv, predict_reference  # noqa: E402
from test_patterns import (  # noqa: E402
    covered_denominators,
    first_covered_mismatch,
    signature_by_squaring,
)


def moduli_above(b):
    """m from just above b^2 up to 10^40, with the values near b^2 drawn often."""
    low = b * b + 1
    return st.one_of(st.integers(low, low + 64), st.integers(low, 10**40))


@st.composite
def anchor_cases(draw):
    """(m, a/b): b <= 60 with b = 1 drawn often, numerators 0, 1, b - 1 and b drawn
    often, m from just above b^2 up to 10^40.

    a = 0 and a = b are in lowest terms only at b = 1.
    """
    b = draw(st.one_of(st.just(1), st.integers(1, 60)))
    a = draw(
        st.one_of(st.sampled_from([0, 1, b - 1, b]), st.integers(0, b))
        .filter(lambda a: math.gcd(a, b) == 1)
    )
    return draw(moduli_above(b)), ReducedFraction(a, b)


@settings(deadline=None, database=None)
@given(anchor_cases())
def test_anchor_identity_at_the_extremes(case):
    m, frac = case
    a, b = frac.a, frac.b
    x0 = (2 * a * m + b) // (2 * b)
    r0 = pow(x0, 2, m)
    params = fraction_params(m, frac)
    assert (params.x0, params.r0) == (x0, r0)
    assert b * b * r0 == params.beta * m + params.alpha * params.alpha
    assert verify_identity(params)


@settings(deadline=None, database=None)
@given(anchor_cases())
def test_a_member_is_its_row(case):
    # the family's params are the only params: a member is the named family_rows row
    params = fraction_params(*case)
    family = parabola_family(params)
    assert family.params is params
    assert family.members == tuple(family_rows(params))


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
    x, r = evaluate_parabola(params, p, j)
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
        assert evaluate_parabola(params, p, j) == (x, pow(x, 2, m))


@st.composite
def edge_anchor_cases(draw):
    """(m, a/b): b <= 60, a in {0, 1, b - 1, b} and in lowest terms, m from just
    above b^2 up to 10^40."""
    b = draw(st.integers(1, 60))
    a = draw(st.sampled_from([0, 1, b - 1, b]).filter(lambda a: math.gcd(a, b) == 1))
    return draw(moduli_above(b)), ReducedFraction(a, b)


@st.composite
def wide_anchor_cases(draw):
    """(m, a/b): b <= 300, a in {0, 1, b - 1, b} and in lowest terms, m from just
    above b^2 up to 10^40, drawn as a multiple of 1, of b's smallest prime, of b
    or of b^2, so that gcd(m, b^2) > 1 comes often."""
    b = draw(st.integers(1, 300))
    a = draw(st.sampled_from([0, 1, b - 1, b]).filter(lambda a: math.gcd(a, b) == 1))
    smallest_prime = next(p for p in range(2, b + 1) if b % p == 0) if b > 1 else 1
    d = draw(st.sampled_from([1, smallest_prime, b, b * b]))
    low = b * b // d + 1
    k = draw(st.one_of(st.integers(low, low + 64), st.integers(low, 10**40 // d)))
    return d * k, ReducedFraction(a, b)


@settings(deadline=1000, database=None)
@given(wide_anchor_cases())
@example((10**40, ReducedFraction(1, 250)))  # gcd(m, b^2) = b^2
@example((300**2 + 1, ReducedFraction(299, 300)))
@example((10**40, ReducedFraction(0, 1)))  # every height h is 0
def test_predict_json_pairs_are_the_reduced_vertices(case):
    # predict reads family_rows, not records, and reduces y = h*m/b^2 by
    # gcd(m, b^2) once and gcd(h, b^2/g) per member.
    m, frac = case
    a, b = frac.a, frac.b
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["predict", "--modulus", str(m), "--fraction", str(frac), "--json"]) == 0
    payload = json.loads(out.getvalue())
    params = fraction_params(m, frac)
    members = parabola_family(params).members
    assert [payload[key] for key in ("b_prime", "c", "alpha", "beta", "x0", "r0")] == [
        params.b_prime, params.c, params.alpha, params.beta, params.x0, params.r0]
    assert len(payload["vertices"]) == len(payload["coefficients"]) == len(members)
    assert len(members) == params.b_prime
    x = Fraction(a * m, b)
    for p, v, coef in zip(members, payload["vertices"], payload["coefficients"]):
        y = Fraction(p.h * m, b * b)
        assert v == {"i": p.i, "a_prime": p.a_prime, "x_num": x.numerator,
                     "x_den": x.denominator, "y_num": y.numerator, "y_den": y.denominator}
        assert coef == {"i": p.i, "A": params.b_prime ** 2, "B": p.B, "C": p.C}
        # the ordinate each member carried before heights became integers
        old_y = Fraction(m * ((params.beta + p.a_prime * params.c * b) % (b * b)), b * b)
        assert y == old_y


@settings(deadline=None, database=None)
@given(st.one_of(anchor_cases(), wide_anchor_cases()))
def test_vertex_heights_closed_form_is_beta_mod_cb(case):
    # beta == -a^2*m (mod c*b), so the heights need no fraction_params
    m, frac = case
    params = fraction_params(m, frac)
    cb = params.c * frac.b
    assert vertex_heights(m, frac) == range(params.beta % cb, frac.b ** 2, cb)


@st.composite
def predict_requests(draw):
    """(m, selector): a whole F_D with D <= 12, or one a/b with b <= 60 and a in
    {0, 1, b - 1, b}; m from just above the largest b^2 up to 10^40."""
    if draw(st.booleans()):
        max_d = draw(st.integers(1, 12))
        return draw(moduli_above(max_d)), max_d
    return draw(edge_anchor_cases())


@settings(deadline=None, database=None)
@given(predict_requests(), st.booleans())
def test_streamed_predict_is_json_dumps_of_the_payload(case, compact):
    m, selector = case
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(predict_argv(m, selector, compact)) == 0
    assert out.getvalue() == predict_reference(m, selector, compact)


@st.composite
def plan_cases(draw):
    """(m, D, window): D <= 12, m from just above D^2 up to 10^4, and --window
    left at its default (None) or drawn from 1..2m."""
    max_d = draw(st.integers(1, 12))
    m = draw(st.integers(max_d * max_d + 1, 10**4))
    return m, max_d, draw(st.one_of(st.none(), st.integers(1, 2 * m)))


def run_capped(argv, **caps):
    """(exit code, stderr) of main(argv) under these cli caps, verify's checks stubbed."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(cli, "_fraction_checks", lambda m, frac, window: (True, True, True))
        for name, value in caps.items():
            patch.setattr(cli, name, value)
        return main(argv), err.getvalue()


@settings(deadline=None, database=None)
@given(plan_cases())
# 1/2's window of 500 at m = 1001 lists x = 1..1000, and the plan counts it exactly;
# 1/3's window of 400 lists x = 0..734, which counting 2w + 1 at b >= 3 put at 801
@example((1001, 2, 500))
@example((1001, 3, 400))
def test_the_plan_never_under_counts_and_counts_members_exactly(case):
    m, max_d, window = case
    families = [parabola_family(fraction_params(m, f)) for f in farey_fractions(max_d)]
    members = sum(len(family.members) for family in families)
    # (params, w): the default window is 3 * b_prime
    windows = [(family.params, window or 3 * len(family.members)) for family in families]
    sizes = [len(residues_near(m, params.frac, w)) for params, w in windows]
    points, widest = sum(sizes), max(sizes)
    verify = ["verify", "--modulus", str(m), "--max-denominator", str(max_d),
              *(["--window", str(window)] if window else [])]
    code, err = run_capped(verify, MAX_VERIFY_POINTS=points - 1)
    assert code == 2 and err.endswith(f" oracle points, over the cap of {points - 1}\n")
    assert run_capped(verify, MAX_VERIFY_POINTS=points) == (0, "")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parabola, "MAX_ORACLE_POINTS", widest - 1)
        assert run_capped(verify, MAX_VERIFY_POINTS=points) == (
            2, f"error: oracle window of {widest} points exceeds the cap of {widest - 1}\n"
        )
    for argv in (verify,
                 ["predict", "--modulus", str(m), "--max-denominator", str(max_d), "--json"],
                 ["bundle", "--modulus", str(m), "--max-denominator", str(max_d)]):
        assert run_capped(argv, MAX_MEMBERS=members, MAX_VERIFY_POINTS=10**9)[0] == 0
        assert run_capped(argv, MAX_MEMBERS=members - 1, MAX_VERIFY_POINTS=10**9) == (
            2, f"error: {argv[0]} exceeds the cap of {members - 1} family members\n"
        )


@st.composite
def bundle_requests(draw):
    """(m, lambda_n, D): lambda-n 2..30, D <= 25, m from just above D^2 up to 10^40."""
    max_d = draw(st.integers(1, 25))
    return draw(moduli_above(max_d)), draw(st.integers(2, 30)), max_d


@settings(deadline=None, database=None)
@given(bundle_requests())
@example((10**40 + 1, 2, 25))  # only b <= 2 covered: "skipped" holds nearly all of F_25
def test_streamed_bundle_is_json_dumps_of_the_payload(case):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(bundle_argv(*case))
    assert (code, out.getvalue(), err.getvalue()) == bundle_reference(*case)


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
        heights = [Fraction(h, b * b) for h in vertex_heights(m, frac)]
        assert len(heights) == params.b_prime
        family = parabola_family(params)
        assert family_structure(family)
        assert set(heights) == {Fraction(p.h * m, b * b) / m % 1 for p in family.members}

        beta_prime = params.beta % (params.c * b)
        x = Fraction(a, b)
        for rep in (s, s + period):
            pairs = vertex_on_bundle(m, period, frac, s=rep)
            assert [k for k, _ in pairs] == list(range(params.b_prime))
            for k, n in pairs:
                y = (Fraction(beta_prime, b**2) + Fraction(k, params.b_prime)) % 1
                assert (y + rep * x * x - 2 * n * x) % 1 == 0
                # n is the smallest-|n| solution, ties to the positive one; checked in
                # integers, y * b^2 == beta' + k*c*b (mod b^2).
                lifted = beta_prime + k * params.c * b + rep * a * a
                assert not [n2 for n2 in range(-abs(n), abs(n) + 1)
                            if (lifted - 2 * n2 * a * b) % (b * b) == 0
                            and (abs(n2), -n2) < (abs(n), -n)]
            # so the line indices are the b_prime balanced residues, each once
            assert sorted(n for _, n in pairs) == list(canonical_offsets(params.b_prime))


@st.composite
def equiv_cases(draw):
    """(m1, m2, period, D): lambda-n up to 60, D <= 60 drawn at or below
    lambda-n or, where lambda-n < 60, above it (where layouts_equivalent
    answers a congruent pair without a walk), m1 from just above D^2 up to
    10^40, and m2 congruent to m1 modulo the period, shifted by a little,
    unrelated, or congruent modulo period / q for some q in 2..lambda-n."""
    lambda_n = draw(st.integers(2, 60))
    max_d = draw(st.integers(1, lambda_n) | st.integers(min(lambda_n + 1, 60), 60))
    period = layout_period(lambda_n)
    m1 = draw(moduli_above(max_d))
    kind = draw(st.sampled_from(["congruent", "shifted", "unrelated", "partial"]))
    if kind == "congruent":
        m2 = m1 + period * draw(st.integers(0, 10**6))
    elif kind == "shifted":
        m2 = m1 + draw(st.integers(1, 10**4))
    elif kind == "unrelated":
        m2 = draw(moduli_above(max_d))
    else:
        # Every q <= lambda_n divides lcm(2..lambda_n), so period // q is exact.
        m2 = m1 + period // draw(st.integers(2, lambda_n)) * draw(st.integers(1, 10**6))
    return m1, m2, period, max_d


@settings(deadline=None, database=None)
@given(equiv_cases())
# D above lambda-n: a congruent pair, one first failing at the odd prime power b = 11
# (period / 11 has no factor 11) and one at b = 2^v_2(12) = 4 (period 2*lcm(2..4) = 24).
@example((20179, 20179 + 3 * 5040, 5040, 18))
@example((10**40 + 1, 10**40 + 1 + 55440 // 11, 55440, 30))
@example((1000, 1012, 24, 10))
def test_layouts_equivalent_is_equal_signatures_over_covered_b(case):
    m1, m2, period, max_d = case
    witness = first_covered_mismatch(
        signature_by_squaring(m1, max_d),
        signature_by_squaring(m2, max_d),
        covered_denominators(period, max_d),
    )
    assert layouts_equivalent(m1, m2, period, max_d) == LayoutComparison(witness is None, witness)
