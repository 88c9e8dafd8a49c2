"""Tests for the exact parabola-family predictor."""

import math
import random
import sys
from fractions import Fraction

import pytest

from qrpat import parabola
from qrpat import (
    ReducedFraction,
    anchor,
    canonical_offsets,
    check_denominator,
    covering_members,
    family_structure,
    fraction_params,
    parabola_family,
    residues_near,
    stride,
    verify_identity,
)
from test_farey import farey, random_fraction


def member_at(family, i):
    return next(row for row in family.members if row[0] == i)


def lattice_point(params, row, j):
    """(x, r) of a family_rows row (i, a_prime, B, C, h) at lattice step j:
    x = x0 + i + j*b_prime and r = (b_prime^2*j^2 + B*j + C) mod m."""
    i, _, B, C, _ = row
    b_prime = params.b_prime
    return params.x0 + i + j * b_prime, (b_prime * b_prime * j * j + B * j + C) % params.m


def test_params_odd_denominator():
    p = fraction_params(20171, ReducedFraction(1, 3))
    assert (p.b_prime, p.c, p.alpha, p.x0, p.beta, p.r0) == (3, 1, -1, 6724, 4, 8965)
    assert 9 * 8965 == 4 * 20171 + 1


def test_params_even_denominator():
    p = fraction_params(415, ReducedFraction(1, 4))
    assert (p.b_prime, p.c, p.alpha, p.x0, p.beta, p.r0) == (2, 2, -1, 104, 1, 26)
    assert 104 * 104 == 10816
    assert 10816 - 26 * 415 == 26
    assert 16 * 26 == 1 * 415 + 1


def test_params_zero_fraction():
    p = fraction_params(977, ReducedFraction(0, 1))
    assert (p.b_prime, p.c, p.alpha, p.x0, p.beta, p.r0) == (1, 1, 0, 0, 0, 0)


def test_stride_is_the_lattice_stride_and_c():
    # b_prime = b for odd b and b/2 for even b; c*b is 2b for even b.
    for b in range(1, 61):
        b_prime, c = stride(b)
        assert b_prime == (b if b % 2 else b // 2) and c * b_prime == b
        p = fraction_params(b * b + 1, ReducedFraction(1, b))
        assert (p.b_prime, p.c) == (b_prime, c)


def test_params_reject_small_modulus():
    with pytest.raises(ValueError):
        fraction_params(10, ReducedFraction(1, 7))
    with pytest.raises(ValueError):
        fraction_params(9, ReducedFraction(1, 3))


def test_check_denominator_is_strict():
    assert check_denominator(82, 9) == 82
    assert check_denominator(2, 1) == 2
    with pytest.raises(ValueError, match=r"modulus 81 must exceed 9\^2"):
        check_denominator(81, 9)


def anchor_ties(rng):
    """(m, a/b) at even b with a*m == b/2 (mod b): a*m/b is a half-integer, rounded up."""
    for _ in range(200):
        frac = random_fraction(rng, 25)
        if frac.b % 2:
            continue
        residue = frac.b // 2 * pow(frac.a, -1, frac.b) % frac.b
        m = residue + frac.b * rng.randrange(frac.b, 10**5)
        assert frac.a * m % frac.b == frac.b // 2
        yield m, frac


def test_params_anchor_is_nearest_integer():
    rng = random.Random(21)
    cases = [(5, ReducedFraction(1, 2))]  # x0 = 3, alpha = -1: the tie rounds up
    for _ in range(500):
        frac = random_fraction(rng, 25)
        cases.append((rng.randrange(frac.b * frac.b + 1, 10**7), frac))
    for m, frac in [*cases, *anchor_ties(rng)]:
        p = fraction_params(m, frac)
        assert p.x0 == anchor(m, frac.a, frac.b)
        assert p.x0 == math.floor(Fraction(frac.a * m, frac.b) + Fraction(1, 2))
        assert -frac.b <= 2 * p.alpha < frac.b
        assert p.x0 * frac.b == frac.a * m - p.alpha


def test_verify_identity_examples():
    assert verify_identity(fraction_params(20171, ReducedFraction(1, 3)))
    assert verify_identity(fraction_params(415, ReducedFraction(1, 4)))
    assert verify_identity(fraction_params(977, ReducedFraction(0, 1)))


def test_verify_identity_random():
    rng = random.Random(22)
    for _ in range(500):
        frac = random_fraction(rng, 30)
        m = rng.randrange(frac.b * frac.b + 1, 10**9)
        p = fraction_params(m, frac)
        assert verify_identity(p)
        # r0 is the integer nearest beta * m / b^2
        assert p.r0 == math.floor(Fraction(p.beta * m, frac.b**2) + Fraction(1, 2))


def test_canonical_offsets_cover_classes_once():
    for b_prime in range(1, 12):
        offsets = list(canonical_offsets(b_prime))
        assert len(offsets) == b_prime
        assert sorted(i % b_prime for i in offsets) == list(range(b_prime))
        assert all(2 * abs(i) <= b_prime for i in offsets)


def test_family_known_vertices():
    m = 20171
    fam = parabola_family(fraction_params(m, ReducedFraction(1, 3)))
    # the vertex sits at (a*m/b, h*m/b^2), a*m/b read from the family's params
    assert {Fraction(h * m, 9) for *_, h in fam.members} == {
        Fraction(m, 9),
        Fraction(4 * m, 9),
        Fraction(7 * m, 9),
    }
    assert fam.params.frac == ReducedFraction(1, 3)
    assert sorted(a_prime for _, a_prime, *_ in fam.members) == [0, 1, 2]


def test_family_even_denominator_gap():
    fam = parabola_family(fraction_params(415, ReducedFraction(1, 4)))
    assert len(fam.members) == 2
    ys = sorted(Fraction(h * 415, 4 * 4) for *_, h in fam.members)
    assert ys[1] - ys[0] == Fraction(415, 2)


def test_family_zero_fraction_is_plain_square():
    fam = parabola_family(fraction_params(977, ReducedFraction(0, 1)))
    assert len(fam.members) == 1
    i, a_prime, B, C, h = fam.members[0]
    assert (i, a_prime) == (0, 0)
    assert (fam.params.b_prime ** 2, B, C) == (1, 0, 0)  # A = b_prime^2
    assert (fam.params.frac.a, h) == (0, 0)  # the vertex (a*m/b, h*m/b^2) is (0, 0)


def test_family_structure_random():
    rng = random.Random(23)
    for _ in range(200):
        frac = random_fraction(rng, 30)
        m = rng.randrange(frac.b * frac.b + 1, 10**8)
        params = fraction_params(m, frac)
        fam = parabola_family(params)
        b, b_prime = frac.b, params.b_prime
        expected_count = b if b % 2 else b // 2
        assert len(fam.members) == expected_count == b_prime
        assert fam.params is params  # one vertex abscissa a*m/b for every member
        ys = sorted(Fraction(h * m, b * b) for *_, h in fam.members)
        assert all(0 <= y < m for y in ys)
        gap = Fraction(m, b_prime)
        assert all(ys[i + 1] - ys[i] == gap for i in range(len(ys) - 1))
        assert ys[0] + m - ys[-1] == gap


def vertex(params, row):
    """(a*m/b, h*m/b^2): the vertex of the family_rows row (i, a_prime, B, C, h) at params."""
    a, b, m = params.frac.a, params.frac.b, params.m
    return Fraction(a * m, b), Fraction(row[4] * m, b * b)


def spacing_law(fam):
    """The earlier law: b_prime multiples of m/b^2 in [0, m), spaced m/b_prime apart."""
    m, frac, b_prime = fam.params.m, fam.params.frac, fam.params.b_prime
    ys = sorted(vertex(fam.params, p)[1] for p in fam.members)
    gaps = {y2 - y1 for y1, y2 in zip(ys, ys[1:])} | {ys[0] + m - ys[-1]}
    return (
        len(ys) == b_prime
        and all(vertex(fam.params, p)[0] == Fraction(frac.a * m, frac.b) for p in fam.members)
        and all(0 <= y < m and (y * frac.b**2 / m).denominator == 1 for y in ys)
        and gaps == {Fraction(m, b_prime)}
    )


def tampered_families(fam):
    b = fam.params.frac.b
    first, *rest = fam.members
    i, a_prime, B, C, h = first

    def with_first(row):
        return fam._replace(members=(row, *rest))

    # h is an int, so the old half-unit tamper (an ordinate moved by m/(2b^2)) cannot be built.
    yield "h + 1", with_first((i, a_prime, B, C, h + 1))
    yield "h - 1", with_first((i, a_prime, B, C, h - 1))
    yield "h + b^2", with_first((i, a_prime, B, C, h + b * b))
    yield "dropped", fam._replace(members=fam.members[:-1])
    yield "shifted", fam._replace(members=tuple(
        (*row[:4], (row[4] + 1) % (b * b)) for row in fam.members))
    yield "reordered", fam._replace(members=(rest[0], first, *rest[1:]))
    yield "duplicated i", with_first((rest[0][0], a_prime, B, C, h))


# Tampers the vertex-spacing law cannot see: a phase shift by m/b^2, and the
# member order or offsets, which leave the sorted ordinates as they were.
SPACING_BLIND = {"shifted", "reordered", "duplicated i"}


def test_family_structure_reference_and_tampered():
    for m, text in [(20171, "1/3"), (415, "1/4"), (977, "0/1"), (10**9 + 7, "5/12")]:
        assert family_structure(parabola_family(fraction_params(m, ReducedFraction.parse(text))))
    for m, text in [(20171, "1/3"), (415, "1/4"), (10**9 + 7, "5/12")]:
        fam = parabola_family(fraction_params(m, ReducedFraction.parse(text)))
        assert spacing_law(fam)
        names = []
        for name, bad in tampered_families(fam):
            names.append(name)
            assert not family_structure(bad), (m, text, name)
            assert spacing_law(bad) == (name in SPACING_BLIND), (m, text, name)
        assert len(names) == 7


def test_evaluate_anchor_point():
    fam = parabola_family(fraction_params(20171, ReducedFraction(1, 3)))
    row = member_at(fam, 0)
    assert lattice_point(fam.params, row, 0) == (6724, 8965) == (6724, pow(6724, 2, 20171))


def test_evaluate_next_step():
    fam = parabola_family(fraction_params(20171, ReducedFraction(1, 3)))
    row = member_at(fam, 0)
    assert row[2] == 2  # B
    assert lattice_point(fam.params, row, 1) == (6727, 8976) == (6727, pow(6727, 2, 20171))
    assert 9 + 2 + 8965 == 8976


def test_evaluate_zero_fraction():
    m = 977
    fam = parabola_family(fraction_params(m, ReducedFraction(0, 1)))
    for j in (0, 1, 5, 976):
        assert lattice_point(fam.params, fam.members[0], j) == (j, pow(j, 2, m))


def test_lattice_matches_direct_squaring():
    rng = random.Random(24)
    for _ in range(500):
        frac = random_fraction(rng, 30)
        m = rng.randrange(max(frac.b * frac.b + 1, 1000), 10**9)
        params = fraction_params(m, frac)
        fam = parabola_family(params)
        row = rng.choice(fam.members)
        base = params.x0 + row[0]
        j_lo = -(base // params.b_prime)
        j_hi = (m - 1 - base) // params.b_prime
        j = rng.randint(j_lo, j_hi)
        x, r = lattice_point(params, row, j)
        assert 0 <= x < m and r == pow(x, 2, m)


def test_residues_near_known_window():
    pts = list(residues_near(20171, ReducedFraction(1, 3), 3))
    assert len(pts) == 7
    assert pts[0][0] == 6721 and pts[-1][0] == 6727
    assert (6724, 8965) in pts
    assert (6727, 8976) in pts
    for x, r in pts:
        assert r == pow(x, 2, 20171)


def test_residues_near_zero_fraction():
    assert list(residues_near(977, ReducedFraction(0, 1), 2)) == [(0, 0), (1, 1), (2, 4)]


def test_residues_near_clamps_at_top():
    m = 977
    pts = residues_near(m, ReducedFraction(1, 1), 2)
    assert [x for x, _ in pts] == [975, 976]


def test_residues_near_clips_a_wide_window():
    # A window of m or more lists each x in [0, m) exactly once, from any anchor.
    plot = [(x, x * x % 977) for x in range(977)]
    for frac in farey(5):
        assert list(residues_near(977, frac, 977)) == plot
        assert list(residues_near(977, frac, 10**9)) == plot
    assert list(residues_near(2, ReducedFraction(1, 1), 3)) == [(0, 0), (1, 1)]
    # past half the modulus the window is clipped at one end only
    assert [x for x, _ in residues_near(977, ReducedFraction(1, 3), 489)] == list(range(816))
    assert [x for x, _ in residues_near(977, ReducedFraction(2, 3), 489)] == list(range(162, 977))
    with pytest.raises(ValueError, match="^window must be a positive integer, got 0$"):
        residues_near(20171, ReducedFraction(1, 3), 0)
    # a clipped window too long for a range's length is still refused by its count
    with pytest.raises(ValueError, match=f"^oracle window of {2 * 10**30 + 1} points exceeds"):
        residues_near(10**40 + 1, ReducedFraction(1, 3), 10**30)


def test_residues_near_point_cap(monkeypatch):
    # A small cap stands in for the real one, so no test lists a giant window.
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 7)
    assert len(residues_near(20171, ReducedFraction(1, 3), 3)) == 7
    with pytest.raises(ValueError, match="^oracle window of 9 points exceeds the cap of 7$"):
        residues_near(20171, ReducedFraction(1, 3), 4)
    # the count is taken after clamping to [0, m)
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 2)
    assert [x for x, _ in residues_near(977, ReducedFraction(1, 1), 2)] == [975, 976]
    with pytest.raises(ValueError, match="of 3 points exceeds the cap of 2"):
        residues_near(977, ReducedFraction(1, 1), 3)


def covering_members_scan(family, x, r):
    """The earlier coverage check: every member tested, all hits kept."""
    m, x0, b_prime = family.params.m, family.params.x0, family.params.b_prime
    hits = []
    for row in family.members:
        i, _, B, C, _ = row
        d = x - x0 - i
        if d % b_prime:
            continue
        j = d // b_prime
        if (b_prime * b_prime * j * j + B * j + C) % m == r:
            hits.append((row, j))
    return hits


def generated_fractions(rng, max_b):
    """0/1 and 1/1 (the a = 0 and a = b extremes), then random a/b with b <= max_b."""
    yield ReducedFraction(0, 1)
    yield ReducedFraction(1, 1)
    for _ in range(150):
        yield random_fraction(rng, max_b)


def generated_moduli(rng, b):
    """One modulus just above b^2 and one up to 10^40."""
    low = b * b + 1
    return [rng.randrange(low, low + 64), rng.randrange(low, 10**40)]


def query_points(rng, family):
    """True points near the anchor, each also with r + 1 and a random r."""
    params = family.params
    m, x0, span = params.m, params.x0, 3 * params.b_prime
    for _ in range(12):
        x = rng.randint(max(0, x0 - span), min(m - 1, x0 + span))
        r = x * x % m
        yield x, r
        yield x, (r + 1) % m
        yield x, rng.randrange(m)


def test_covering_members_matches_scan():
    rng = random.Random(26)
    hits = misses = 0
    for frac in generated_fractions(rng, 60):
        for m in generated_moduli(rng, frac.b):
            fam = parabola_family(fraction_params(m, frac))
            for x, r in query_points(rng, fam):
                found = covering_members(fam, x, r)
                assert found == covering_members_scan(fam, x, r), (m, frac, x, r)
                assert len(found) == (r == x * x % m)
                hits += len(found)
                misses += not found
    assert hits > 1000 and misses > 1000


def test_covering_members_on_dropped_family_never_false_hit():
    rng = random.Random(27)
    for frac in generated_fractions(rng, 60):
        for m in generated_moduli(rng, frac.b):
            fam = parabola_family(fraction_params(m, frac))
            # the "dropped" tamper (last member removed), and the first removed,
            # which moves every later member off its lookup index
            for dropped in (fam.members[:-1], fam.members[1:]):
                bad = fam._replace(members=dropped)
                for x, r in query_points(rng, fam):
                    found = covering_members(bad, x, r)
                    assert all(hit in covering_members_scan(bad, x, r) for hit in found)
                    for row, j in found:
                        assert row in dropped
                        assert x == fam.params.x0 + row[0] + j * fam.params.b_prime
                        assert r == x * x % m


def test_covering_members_on_every_tampered_family_never_false_hit():
    # The lookup reads one member by index and checks its own i and value, so no
    # tamper makes it report a point off the residue curve or off that member's
    # lattice, and every hit it reports is one the full scan reports too.
    rng = random.Random(28)
    for m, text in [(20171, "1/3"), (415, "1/4"), (10**9 + 7, "5/12"), (10**40 + 1, "7/60")]:
        fam = parabola_family(fraction_params(m, ReducedFraction.parse(text)))
        names = []
        for name, bad in tampered_families(fam):
            names.append(name)
            for x, r in query_points(rng, fam):
                found = covering_members(bad, x, r)
                assert len(found) <= 1
                assert all(hit in covering_members_scan(bad, x, r) for hit in found), (
                    m, text, name, x, r)
                for row, j in found:
                    assert r == x * x % m, (m, text, name, x)
                    assert row in bad.members
                    assert x == fam.params.x0 + row[0] + j * fam.params.b_prime
        assert len(names) == 7


def test_every_nearby_residue_on_exactly_one_member():
    rng = random.Random(25)
    for _ in range(100):
        frac = random_fraction(rng, 12)
        m = rng.randrange(max(frac.b * frac.b + 1, 200), 10**6)
        fam = parabola_family(fraction_params(m, frac))
        window = 3 * fam.params.b_prime
        for x, r in residues_near(m, frac, window):
            assert len(covering_members(fam, x, r)) == 1


def test_exhaustive_small_modulus_coverage():
    m = 997
    for b in range(1, 8):
        for a in range(b + 1):
            if math.gcd(a, b) != 1:
                continue
            frac = ReducedFraction(a, b)
            fam = parabola_family(fraction_params(m, frac))
            window = 3 * fam.params.b_prime
            x0 = fam.params.x0
            for x in range(m):
                if abs(x - x0) > window:
                    continue
                hits = covering_members(fam, x, x * x % m)
                assert len(hits) == 1


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
