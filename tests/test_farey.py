"""Tests for F_D as the CLI walks it in increasing order (``cli._farey``) and as
its plan walks it for bundle, and the F_D that the other test modules compare against."""

import math
from fractions import Fraction

import pytest

from qrbench import workloads
from qrpat import ReducedFraction, cli
from qrpat.cli import main


def farey(max_denominator):
    """F_D in increasing order: qrbench's brute-force enumeration, sorted with Fraction."""
    return sorted(map(ReducedFraction._make, workloads.farey(max_denominator)),
                  key=lambda f: Fraction(*f))


def random_fraction(rng, max_b):
    """a/b drawn as b in [1, max_b] and a in [0, b], both drawn again until gcd(a, b) == 1."""
    while True:
        b = rng.randrange(1, max_b + 1)
        a = rng.randrange(0, b + 1)
        if math.gcd(a, b) == 1:
            return ReducedFraction(a, b)


def test_farey_smallest():
    assert list(cli._farey(1)) == [ReducedFraction(0, 1), ReducedFraction(1, 1)]


def test_farey_order_three():
    assert list(cli._farey(3)) == [
        ReducedFraction(0, 1),
        ReducedFraction(1, 3),
        ReducedFraction(1, 2),
        ReducedFraction(2, 3),
        ReducedFraction(1, 1),
    ]


def test_farey_order_five_count():
    assert len(list(cli._farey(5))) == 11


def test_farey_matches_brute_enumeration():
    for n in range(1, 61):
        got = list(cli._farey(n))
        assert got == farey(n)
        assert all(type(f) is ReducedFraction for f in got)
        assert len(got) == len(set(got))
        values = [Fraction(f.a, f.b) for f in got]
        assert values == sorted(values)


def test_farey_rejects_nonpositive(capsys):
    # the parser refuses D < 1 before any plan
    for command in ("predict", "verify", "bundle"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--modulus", "997", "--max-denominator", "0"])
        assert exc.value.code == 2
        assert "expected a positive integer, got 0" in capsys.readouterr().err


def test_the_plan_walks_f_d_by_denominator_then_numerator():
    # the order bundle writes; qrbench enumerates F_D the same way.  predict and verify
    # walk _farey instead, and their plans return how many fractions they planned, verify's
    # with its oracle points (at weight 1 here): qrbench counts them alike at --window 1.
    for n in range(1, 30):
        m = n * n + 1
        planned = cli._plan("bundle", m, n)
        assert planned == [ReducedFraction(a, b) for a, b in workloads.farey(n)]
        assert planned == sorted(planned, key=lambda f: (f.b, f.a))
        assert cli._plan("predict", m, n) == len(planned)
        assert cli._plan("predict", m, n, planned[-1]) == 1
        assert cli._plan("verify", m, n, window=1) == (len(planned),
                                                       workloads.oracle_points(m, n, 1))
        x0 = workloads.nearest_anchor(m, *planned[-1])
        assert cli._plan("verify", m, n, planned[-1], 1) == (1, min(m - 1, x0 + 1)
                                                              - max(0, x0 - 1) + 1)


def test_farey_neighbours_satisfy_bc_minus_ad_equals_one():
    # a/b < c/d adjacent in F_D exactly when b*c - a*d = 1
    for n in range(1, 61):
        got = list(cli._farey(n))
        assert got[0] == (0, 1) and got[-1] == (1, 1)
        assert all(b * c - a * d == 1 for (a, b), (c, d) in zip(got, got[1:]))
