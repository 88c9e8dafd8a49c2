"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when it completes (visible with
``pytest -s``); a failing criterion surfaces as an ordinary pytest
failure.  All tolerances are exact (integer or rational equality); the
only numeric bounds are the stated wall-clock budgets.
"""

import hashlib
import random
import time
from fractions import Fraction

from qrpat import (
    ReducedFraction,
    bundle_parameter,
    covering_members,
    fraction_params,
    layout_period,
    layouts_equivalent,
    parabola_family,
    residues_near,
    vertex_on_bundle,
)
from qrpat.cli import main
from test_render import GOLDEN_GRID_415, GOLDEN_PLOT_20171, read_pgm
from test_farey import farey, random_fraction


def _passed(name, started=None):
    stamp = f" ({time.perf_counter() - started:.2f}s)" if started is not None else ""
    print(f"{name}: PASS{stamp}")


def test_01_anchor_identity_exact_and_randomized():
    started = time.perf_counter()
    params = fraction_params(20171, ReducedFraction(1, 3))
    assert (params.alpha, params.beta, params.x0, params.r0) == (-1, 4, 6724, 8965)
    assert 9 * 8965 == 4 * 20171 + 1

    rng = random.Random(52171)
    for _ in range(10_000):
        frac = random_fraction(rng, 30)
        m = rng.randrange(frac.b * frac.b + 1, 10**9)
        p = fraction_params(m, frac)
        assert frac.b**2 * p.r0 == p.beta * m + p.alpha**2
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"
    _passed("criterion 1 (anchor identity, 10000 random pairs)", started)


def test_02_lattice_evaluations_match_direct_squaring():
    started = time.perf_counter()
    rng = random.Random(8976)
    checked = 0
    while checked < 10_000:
        frac = random_fraction(rng, 30)
        m = rng.randrange(max(frac.b * frac.b + 1, 1000), 10**9)
        family = parabola_family(fraction_params(m, frac))
        for _ in range(10):
            i, _, B, C, _ = family.members[rng.randrange(len(family.members))]
            b_prime = family.params.b_prime
            base = family.params.x0 + i
            j = rng.randint(-(base // b_prime), (m - 1 - base) // b_prime)
            x = base + j * b_prime  # in [0, m)
            assert (b_prime * b_prime * j * j + B * j + C) % m == pow(x, 2, m), (m, str(frac), i, j)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"lattice suite took {elapsed:.2f}s"
    _passed("criterion 2 (10000 lattice evaluations vs direct squaring)", started)


def test_03_vertex_structure_of_every_tested_family():
    started = time.perf_counter()
    cases = []
    for m in (415, 997, 20171, 20179):
        for frac in farey(12):
            if m > frac.b**2:
                cases.append((m, frac))
    rng = random.Random(415)
    for _ in range(300):
        frac = random_fraction(rng, 30)
        cases.append((rng.randrange(frac.b**2 + 1, 10**8), frac))

    for m, frac in cases:
        params = fraction_params(m, frac)
        family = parabola_family(params)
        b, b_prime = frac.b, params.b_prime
        assert len(family.members) == (b if b % 2 else b // 2) == b_prime
        # each vertex sits at (a*m/b, h*m/b^2), a/b and m from the family's one params
        assert family.params is params
        heights = sorted(Fraction(h * m, b * b) for *_, h in family.members)
        assert all(0 <= y < m for y in heights)
        gap = Fraction(m, b_prime)
        assert all(
            heights[i + 1] - heights[i] == gap for i in range(len(heights) - 1)
        )
        assert heights[0] + m - heights[-1] == gap
    _passed(f"criterion 3 (vertex structure, {len(cases)} families)", started)


def test_04_layout_equivalence_of_reference_pair():
    started = time.perf_counter()
    period = layout_period(9)
    assert period == 5040
    result = layouts_equivalent(20179, 25219, period, 18)
    assert result.equivalent and result.witness is None
    # the comparison covers 1..9 plus the covered denominators up to 18: c*b | period
    assert {b for b in range(1, 19) if period % (b if b % 2 else 2 * b) == 0} == {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18
    }
    perturbed = layouts_equivalent(20179, 20180, period, 18)
    assert not perturbed.equivalent
    assert perturbed.witness is not None and perturbed.witness.b <= 4
    _passed("criterion 4 (layout equivalence 20179 vs 25219, witness on perturbation)", started)


def test_05_every_vertex_lies_on_a_bundle_line():
    started = time.perf_counter()
    period = layout_period(9)
    for m in (20179, 25219, 25200, 20171):
        s = bundle_parameter(m, period)
        if m == 25200:
            assert s == 0
        for frac in farey(9):
            if period % (frac.b if frac.b % 2 else 2 * frac.b):
                continue  # b is not covered: c*b does not divide the period
            params = fraction_params(m, frac)
            beta_prime = params.beta % (params.c * frac.b)
            for shift in (0, period):
                ns = vertex_on_bundle(m, period, frac, s=s + shift)
                assert len(ns) == params.b_prime
                for k, n in enumerate(ns):
                    x = Fraction(frac.a, frac.b)
                    y = (Fraction(beta_prime, frac.b**2) + Fraction(k, params.b_prime)) % 1
                    assert (y + (s + shift) * x * x - 2 * n * x) % 1 == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"bundle membership took {elapsed:.2f}s"
    _passed("criterion 5 (bundle membership over four moduli, shifted too)", started)


def test_06_brute_force_coverage_for_all_small_moduli():
    started = time.perf_counter()
    fractions = farey(7)
    for m in range(50, 3000):
        for frac in fractions:
            family = parabola_family(fraction_params(m, frac))
            window = 3 * family.params.b_prime
            for x, r in residues_near(m, frac, window):
                assert len(covering_members(family, x, r)) == 1, (m, str(frac), x)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"coverage oracle took {elapsed:.2f}s"
    _passed("criterion 6 (coverage oracle, all m < 3000, b <= 7)", started)


def test_07_figure_outputs_are_byte_stable(tmp_path):
    started = time.perf_counter()
    first = tmp_path / "plot1.pgm"
    second = tmp_path / "plot2.pgm"
    assert main(["plot", "--modulus", "20171", "--out", str(first)]) == 0
    assert main(["plot", "--modulus", "20171", "--out", str(second)]) == 0
    plot_bytes = first.read_bytes()
    assert plot_bytes == second.read_bytes()
    assert plot_bytes.startswith(b"P5\n800 800\n255\n")
    assert read_pgm(first).width == 800
    assert hashlib.sha256(plot_bytes).hexdigest() == GOLDEN_PLOT_20171

    grid_first = tmp_path / "grid1.pgm"
    grid_second = tmp_path / "grid2.pgm"
    assert main(["grid", "--modulus", "415", "--size", "415", "--out", str(grid_first)]) == 0
    assert main(["grid", "--modulus", "415", "--size", "415", "--out", str(grid_second)]) == 0
    grid_bytes = grid_first.read_bytes()
    assert grid_bytes == grid_second.read_bytes()
    assert grid_bytes.startswith(b"P5\n415 415\n255\n")
    assert hashlib.sha256(grid_bytes).hexdigest() == GOLDEN_GRID_415
    _passed("criterion 7 (plot/grid PGMs byte-stable, golden hashes)", started)


def test_08_layout_period_values_and_divisibility():
    started = time.perf_counter()
    assert layout_period(9) == 5040 == 2**4 * 3**2 * 5 * 7
    for n in range(2, 31):
        period = layout_period(n)
        for b in range(1, n + 1):
            c = 1 if b % 2 else 2
            assert period % (c * b) == 0
    _passed("criterion 8 (doubled-lcm values and divisibility)", started)
