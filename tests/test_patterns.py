"""Tests for layout signatures, equivalence, and the vertex line bundle."""

import math
import random
from fractions import Fraction

import pytest

from qrpat import (
    LayoutComparison,
    ReducedFraction,
    bundle_parameter,
    canonical_offsets,
    check_period,
    covered,
    fraction_params,
    layout_period,
    layouts_equivalent,
    parabola_family,
    stride,
    vertex_on_bundle,
)
from qrpat import parabola, patterns
from test_farey import farey, random_fraction

PERIOD_9 = 5040  # layout_period(9)


def beta_by_squaring(m, frac):
    """beta = (b^2 * (x0^2 mod m) - alpha^2) / m, from x0 nearest a*m/b (halves up)."""
    a, b = frac.a, frac.b
    x0 = (2 * a * m + b) // (2 * b)
    alpha = a * m - b * x0
    beta, rem = divmod(b * b * pow(x0, 2, m) - alpha * alpha, m)
    assert rem == 0
    return beta


def signature_by_squaring(m, max_denominator):
    """Layout fingerprint of m: beta mod c*b for every a/b with b <= max_denominator."""
    return {
        frac: beta_by_squaring(m, frac) % (frac.b if frac.b % 2 else 2 * frac.b)
        for frac in farey(max_denominator)
    }


def covered_denominators(period, max_b):
    """The b <= max_b whose layout the period pins down: c*b divides it, c = 2 at even b."""
    return {b for b in range(1, max_b + 1) if period % (b if b % 2 else 2 * b) == 0}


def first_covered_mismatch(sig1, sig2, covered):
    """The smallest fraction (by denominator, then numerator) whose entries differ."""
    for frac in sorted(sig1, key=lambda f: (f.b, f.a)):
        if frac.b in covered and sig1[frac] != sig2[frac]:
            return frac
    return None


# A period's denominator set: the b that patterns.covered accepts, written out by hand.
def test_denominator_set_full_below_period_index():
    assert {b for b in range(1, 10) if covered(b, PERIOD_9)} == set(range(1, 10))


def test_denominator_set_up_to_18():
    # 16 is absent: covering an even b needs 2*b | period, and 32 does not
    # divide 5040 = 2^4 * 3^2 * 5 * 7.
    expected = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18}
    assert {b for b in range(1, 19) if covered(b, PERIOD_9)} == expected


def test_denominator_set_tiny_period():
    assert {b for b in range(1, 3) if covered(b, 4)} == {1, 2}


def test_denominator_set_rejects_odd_period():
    with pytest.raises(ValueError, match="^layout period must be an even integer >= 4, got 5041$"):
        check_period(5041)
    with pytest.raises(ValueError, match="^layout period must be an even integer >= 4, got 2$"):
        check_period(2)


def test_layouts_equivalent_rejects_max_denominator_zero():
    with pytest.raises(ValueError, match="^max_denominator must be >= 1, got 0$"):
        layouts_equivalent(20179, 25219, PERIOD_9, 0)


def test_beta_signature_known_entry():
    sig = signature_by_squaring(20179, 9)
    # -20179 == 2 (mod 3)
    assert sig[ReducedFraction(1, 3)] == 2
    assert sig[ReducedFraction(0, 1)] == 0


def test_layouts_equivalent_rejects_small_modulus():
    for moduli in ((81, 20179), (20179, 81)):
        with pytest.raises(ValueError, match=r"^modulus 81 must exceed 9\^2$"):
            layouts_equivalent(*moduli, PERIOD_9, 9)


def test_beta_signature_entry_ranges():
    sig = signature_by_squaring(20171, 12)
    assert sig.keys() == set(farey(12))
    for frac, value in sig.items():
        c = 1 if frac.b % 2 else 2
        assert 0 <= value < c * frac.b
        assert beta_by_squaring(20171, frac) == fraction_params(20171, frac).beta


def test_beta_signature_depends_only_on_modulus_class():
    rng = random.Random(31)
    for _ in range(100):
        frac = random_fraction(rng, 10)
        c = 1 if frac.b % 2 else 2
        cb = c * frac.b
        m = rng.randrange(200, 10**6)
        t = rng.randrange(1, 50)
        sig1 = signature_by_squaring(m, frac.b)
        sig2 = signature_by_squaring(m + cb * t, frac.b)
        assert sig1[frac] == sig2[frac]


def test_signature_at_b_is_injective_with_minimal_period_cb():
    # m -> (beta mod c*b for every a/b) on c*b consecutive moduli: all values
    # distinct (so no period shorter than c*b), and each repeats c*b later.
    for b in range(1, 61):
        cb = b if b % 2 else 2 * b
        fracs = [ReducedFraction(a, b) for a in range(b + 1) if math.gcd(a, b) == 1]

        def entries(m):
            return tuple(beta_by_squaring(m, f) % cb for f in fracs)

        window = range(b * b + 1, b * b + 1 + cb)
        seen = {entries(m) for m in window}
        assert len(seen) == cb
        assert all(entries(m) == entries(m + cb) for m in window)


def test_layouts_equivalent_does_no_per_fraction_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("layouts_equivalent must not build fraction parameters")

    # patterns binds no fraction_params of its own, so any call goes through parabola's
    assert not hasattr(patterns, "fraction_params")
    monkeypatch.setattr(parabola, "fraction_params", forbidden)
    assert layouts_equivalent(20179, 25219, PERIOD_9, 18) == LayoutComparison(True, None)
    assert layouts_equivalent(20179, 20180, PERIOD_9, 9).witness == ReducedFraction(1, 2)


def test_beta_matches_negated_square_times_modulus():
    rng = random.Random(32)
    for _ in range(300):
        frac = random_fraction(rng, 30)
        m = rng.randrange(frac.b * frac.b + 1, 10**9)
        params = fraction_params(m, frac)
        cb = params.c * frac.b
        assert params.beta % cb == (-frac.a * frac.a * m) % cb


def test_layouts_equivalent_reference_pair():
    assert 25219 - 20179 == PERIOD_9
    result = layouts_equivalent(20179, 25219, PERIOD_9, 18)
    assert result.equivalent and result.witness is None


def test_layouts_equivalent_same_modulus():
    result = layouts_equivalent(20171, 20171, PERIOD_9, 12)
    assert result.equivalent


def test_layouts_equivalent_perturbed_pair():
    result = layouts_equivalent(20179, 20180, PERIOD_9, 9)
    assert not result.equivalent
    assert result.witness == ReducedFraction(1, 2)


def test_layouts_equivalent_witness_is_smallest():
    result = layouts_equivalent(20179, 20180, PERIOD_9, 9)
    dset = covered_denominators(PERIOD_9, 9)
    sig1 = signature_by_squaring(20179, 9)
    sig2 = signature_by_squaring(20180, 9)
    assert result.witness == first_covered_mismatch(sig1, sig2, dset)


def test_layouts_equivalent_random_congruent_pairs():
    rng = random.Random(33)
    for _ in range(40):
        m1 = rng.randrange(10**4, 10**8)
        t = rng.randrange(1, 1000)
        result = layouts_equivalent(m1, m1 + t * PERIOD_9, PERIOD_9, 18)
        assert result.equivalent


def test_covered_fractions_match_in_k_order_onto_their_own_offsets():
    # 11 is the only b <= 11 that 5040 leaves uncovered
    assert [b for b in range(1, 12) if not covered(b, PERIOD_9)] == [11]
    s = bundle_parameter(20179, PERIOD_9)
    for frac in farey(10):
        ns = vertex_on_bundle(20179, PERIOD_9, frac, s)
        # k is the position, so bundle's entries carry the line indices alone, and
        # the n are canonical_offsets(b_prime), so bundle knows its lines up front
        assert type(ns) is list and all(type(n) is int for n in ns)
        assert sorted(ns) == list(canonical_offsets(stride(frac.b)[0]))
    with pytest.raises(ValueError, match="must exceed 10"):
        vertex_on_bundle(100, PERIOD_9, ReducedFraction(1, 10), bundle_parameter(100, PERIOD_9))


def test_bundle_parameter_reference_values():
    assert bundle_parameter(20179, PERIOD_9) == 19
    assert bundle_parameter(25219, PERIOD_9) == 19
    assert bundle_parameter(5 * PERIOD_9, PERIOD_9) == 0
    assert 20179 == 4 * PERIOD_9 + 19
    assert 25219 == 5 * PERIOD_9 + 19


def test_bundle_parameter_balanced_range():
    rng = random.Random(34)
    for _ in range(500):
        period = 2 * rng.randrange(2, 10**4)
        m = rng.randrange(2, 10**9)
        s = bundle_parameter(m, period)
        assert (m - s) % period == 0
        assert -period < 2 * s <= period


def test_vertex_on_bundle_zero_fraction():
    assert vertex_on_bundle(20179, PERIOD_9, ReducedFraction(0, 1), 19) == [0]


def test_vertex_on_bundle_known_indices():
    # beta' = 1 for (20171, 1/3) and s = 11, so vertex k=0 solves
    # 2n == 1 (mod 3) with minimal |n| = -1.  s has no default.
    assert bundle_parameter(20171, PERIOD_9) == 11
    assert vertex_on_bundle(20171, PERIOD_9, ReducedFraction(1, 3), 11) == [-1, 1, 0]
    with pytest.raises(TypeError):
        vertex_on_bundle(20171, PERIOD_9, ReducedFraction(1, 3))


def test_vertex_on_bundle_membership_is_exact():
    m = 20179
    s = bundle_parameter(m, PERIOD_9)
    for frac in farey(9):
        params = fraction_params(m, frac)
        beta_prime = params.beta % (params.c * frac.b)
        ns = vertex_on_bundle(m, PERIOD_9, frac, s)
        assert len(ns) == params.b_prime
        for k, n in enumerate(ns):
            x = Fraction(frac.a, frac.b)
            y = (Fraction(beta_prime, frac.b**2) + Fraction(k, params.b_prime)) % 1
            assert (y + s * x * x - 2 * n * x) % 1 == 0


@pytest.mark.parametrize("frac, shift", [(f, 1) for f in farey(9) if f.b >= 2]
                         + [(f, f.b) for f in farey(9) if f.b % 2 == 0])
def test_vertex_on_bundle_rejects_an_off_bundle_vertex(monkeypatch, frac, shift):
    # The line index of vertex k comes from k alone, so a height moved off the
    # bundle fails the exact membership check: moved by 1, h + s*a^2 is no
    # multiple of b; moved by b at even b (half the height step 2b), it is a
    # multiple of b but not of b^2 once 2*n*a*b is taken away.
    def shifted(m, frac):
        heights = list(parabola.vertex_heights(m, frac))
        heights[-1] += shift
        return heights

    monkeypatch.setattr(patterns, "vertex_heights", shifted)
    with pytest.raises(ArithmeticError):
        vertex_on_bundle(20179, PERIOD_9, frac, 19)


def test_vertex_on_bundle_rejects_uncovered_denominator():
    with pytest.raises(ValueError):
        vertex_on_bundle(20179, PERIOD_9, ReducedFraction(1, 11), 19)


def test_vertex_on_bundle_representative_shift():
    m = 25219
    s = bundle_parameter(m, PERIOD_9)
    for frac in farey(7):
        for shift in (0, PERIOD_9, -2 * PERIOD_9):
            ns = vertex_on_bundle(m, PERIOD_9, frac, s=s + shift)
            assert len(ns) == fraction_params(m, frac).b_prime
        with pytest.raises(ValueError, match="does not represent"):
            vertex_on_bundle(m, PERIOD_9, frac, s + 1)


def test_normalized_vertex_sets_match_between_congruent_moduli():
    rng = random.Random(36)
    dset = covered_denominators(PERIOD_9, 12)
    for _ in range(20):
        m1 = rng.randrange(10**4, 10**7)
        m2 = m1 + rng.randrange(1, 100) * PERIOD_9
        for frac in farey(12):
            if frac.b not in dset:
                continue
            fam1 = parabola_family(fraction_params(m1, frac))
            fam2 = parabola_family(fraction_params(m2, frac))
            set1 = {Fraction(h * m1, frac.b**2) / m1 for *_, h in fam1.members}
            set2 = {Fraction(h * m2, frac.b**2) / m2 for *_, h in fam2.members}
            assert set1 == set2


def test_family_vertices_equal_normalized_form():
    # the family's vertex heights, normalized by m, are exactly
    # (beta'/b^2 + k/b_prime) mod 1 for k in [0, b_prime)
    for m in (997, 20171, 20179):
        for frac in farey(9):
            params = fraction_params(m, frac)
            fam = parabola_family(params)
            beta_prime = params.beta % (params.c * frac.b)
            expected = {
                (Fraction(beta_prime, frac.b**2) + Fraction(k, params.b_prime)) % 1
                for k in range(params.b_prime)
            }
            assert {Fraction(h * m, frac.b**2) / m for *_, h in fam.members} == expected


def test_layout_period_consistency_with_denominator_set():
    for n in range(2, 20):
        period = layout_period(n)
        assert all(covered(b, period) for b in range(1, n + 1))


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
