"""Tests for the qrpat command-line interface."""

import argparse
import fractions
import hashlib
import inspect
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from importlib.metadata import PackageNotFoundError, distribution, distributions
from pathlib import Path

import pytest

from qrpat import (
    ReducedFraction,
    cli,
    parabola,
    patterns,
    render,
)
from qrpat.cli import main
import differential
import pins
from test_render import GOLDEN_SVG_20179, by_denominator, forks, read_pgm, traced_peak
from test_farey import farey

# stdout of `qrpat bundle --modulus 20179 --lambda-n 9 --max-denominator 9`.
GOLDEN_BUNDLE_20179 = "116345aa72c8b824aa0aed30064a2e3e49af0d63df2ebaf9ad489dc473fac066"

# stdout of `qrpat bundle --modulus 10**40+1 --lambda-n 400 --max-denominator 60` (2,194,208
# bytes): bundle_reference matches vertices with vertex_on_bundle, so this pins its line indices.
GOLDEN_BUNDLE_M40 = "a8feabd54be205178915e2adb0108c890d2b545bb5ce9726cba033d3aa4ed5a1"

# A 39-digit modulus for the `equiv` goldens at --max-denominator 40; layout_period(40) = 10685862914126400.
M39 = "123456789012345678901234567890123456789"
M40 = 10**40 + 1

# SHA-256 of `qrpat equiv <argv>` stdout.
GOLDEN_EQUIV = {
    # congruent modulo 5040
    ("--m1", "20179", "--m2", "25219"):
        "c7176bcd6d95681a25e15e36a8fb0b8aed80f09b1ffb12b630a3ae5a051da642",
    # off by one: witness 1/2
    ("--m1", "20179", "--m2", "20180"):
        "164d7b9be8d26a2a2dda584dfdb90391eec2fe56cf45fa7dc60f9b499cce5c3f",
    # the moduli differ at the uncovered 11, 13, 16 and 17, which must be ignored
    ("--m1", "20179", "--m2", "25219", "--max-denominator", "18"):
        "648750e322de85267305365a8d9ad226bce89ec18c3399d52fb31eb052491106",
    # m2 = m1 + 3 * layout_period(40)
    ("--m1", M39, "--m2", "123456789012345678901266625478865835989",
     "--lambda-n", "40", "--max-denominator", "40"):
        "714594fa9d6b85407c39ac241e14a9890c85ba6bafb1658957b95e5bb4743754",
    # m2 = m1 + layout_period(40) / 37: witness 1/37
    ("--m1", M39, "--m2", "123456789012345678901234856697229243989",
     "--lambda-n", "40", "--max-denominator", "40"):
        "8b47fc90f42261d0cf1be19226f7d8109cb294538bda6c2b2fcc274cc32f845f",
    # m2 = m1 + 5040 at the default period, most of b <= 40 uncovered
    ("--m1", M39, "--m2", "123456789012345678901234567890123461829",
     "--max-denominator", "40"):
        "619110fe15b13f64940d09f088b7d7392a2e747ea9ff98cf185d20852a9076d3",
}

# SHA-256 of `qrpat predict <argv>` stdout, recorded before members became integers.
GOLDEN_PREDICT = {
    ("--modulus", "20171", "--fraction", "1/3"):
        "b81d0418a1a857062a5529effd5eba3a2ea7637da50cb1f5f05903fc3eccfaad",
    ("--modulus", M39, "--max-denominator", "28", "--json"):
        "d815e71371856f7143945b967cfe3f634a2bf5a33998136798cd7b78901ffe79",
    ("--modulus", "987654321098765432109876543210987654321", "--max-denominator", "28",
     "--json"):
        "4be7db164f590e2e67f9d3a7e82e8a7377c550992b45098b61cb0628ce2bf395",
    # the a = 0 and a = b extremes
    ("--modulus", "20171", "--fraction", "0/1"):
        "dc66eefb1585ae894b8ee1f7e80216a8236a36f336b100dce1e80b780d550627",
    ("--modulus", "20171", "--fraction", "1/1"):
        "5d067d4714d19b9858625e43ae13c1ae8a804d508e48f727e3f1724464818f4d",
    ("--modulus", M39, "--fraction", "0/1", "--json"):
        "98fd353f527d867ee657a30f95ecd585a30c6ab513f1065f35cf7573e6681b52",
    ("--modulus", M39, "--fraction", "1/1", "--json"):
        "3ee4188b50e6bc474117b00ee853dfb26ecdc3929d49f7d2b2e4dc4200a8b2e6",
    # m = b^2 + 1 for even b: 28^2 + 1, 60^2 + 1 and 2^2 + 1
    ("--modulus", "785", "--max-denominator", "28", "--json"):
        "7e27c1be1d147d25fd9d6f6a6e7566f265c8f8e2352451b433db00d16306fe17",
    ("--modulus", "3601", "--fraction", "7/60"):
        "088d17eaa49c6111f3775dfebf799b4ba08ad2f3fe634da8b10b613b7e1ae216",
    ("--modulus", "5", "--max-denominator", "2"):
        "7d504a98ed436c1966fef3557cab22b296c9346c3589dcc8bd9fd99fdbd0aae9",
}


# Each wraps the cli-bound check so that it fails some fractions: identity at
# a = 1, the structure law at even b, and coverage at every point of b = 3.
TAMPERS = {
    "verify_identity": lambda check: lambda params: params.frac.a != 1 and check(params),
    "family_structure": lambda check: lambda family: family.params.frac.b % 2 and check(family),
    "covering_members": lambda find: lambda family, x, r: (
        [] if family.params.frac.b == 3 else find(family, x, r)),
}
ALL_TAMPERS = tuple(TAMPERS)

# SHA-256 of `qrpat verify <argv>` stdout with the named TAMPERS applied, which
# pins the order of the failures; recorded before verify became one pass.
GOLDEN_VERIFY = {
    ((), ("--modulus", "2", "--max-denominator", "1")):
        "372fa0db140112758fa32c353adda5bd8d4efc52ff09481ce8231f9416b5b548",
    ((), ("--modulus", "3", "--max-denominator", "1")):
        "04c4e314dfbc9f1d755f3b16f23e840e5ee38c65351e636518be9190fe352a29",
    ((), ("--modulus", "5", "--max-denominator", "2")):
        "400b1fe552633282f4224dddb6e2b8ff1412c4eb100070b52b8d94568c7a5648",
    ((), ("--modulus", "20171", "--max-denominator", "9", "--window", "50")):
        "1895984a9ebb8187800b9199dc8c74547345c1acc731cb013109c335f652d642",
    ((), ("--modulus", str(M40), "--max-denominator", "8")):
        "d1a536341863f18a1b77af6796b6f5918b41ef1523a143f82a07c635fdecc7a5",
    (("verify_identity",), ("--modulus", "997", "--max-denominator", "5")):
        "16764d47cfa9ff812132fbb8dad36bad79c17e5a0ceae5ce2084c61da5ba45f1",
    (("family_structure",), ("--modulus", "997", "--max-denominator", "5")):
        "df3fffe8506e312e1140a1f2ea0f95c9ec5dd365a815d790dfd2bf65ad5da9de",
    (("covering_members",), ("--modulus", "997", "--max-denominator", "5")):
        "de6c021d6dab24d76f97cf299bc0bc6d2e6565388e9bc57a3edd25cb66734663",
    (ALL_TAMPERS, ("--modulus", "997", "--max-denominator", "5")):
        "f69457ef0a23827bf6e38dba4489213446373641d8622fc816f2904c8b646df2",
    (ALL_TAMPERS, ("--modulus", "20171", "--max-denominator", "9", "--window", "50")):
        "ca91fc73e49a5e87c76c1894f90f7faa125572eaa1ec46876f5d79a8af55c307",
}


def predict_payload(m, frac):
    """The predict entry for a/b as a dict, as the CLI built it before it streamed."""
    params = parabola.fraction_params(m, frac)
    members = parabola.parabola_family(params).members
    x = fractions.Fraction(frac.a * m, frac.b)
    return {
        "modulus": m,
        "fraction": {"a": frac.a, "b": frac.b},
        "b_prime": params.b_prime,
        "c": params.c,
        "alpha": params.alpha,
        "beta": params.beta,
        "x0": params.x0,
        "r0": params.r0,
        "vertices": [
            {"i": i, "a_prime": a_prime, "x_num": x.numerator, "x_den": x.denominator,
             "y_num": y.numerator, "y_den": y.denominator}
            for i, a_prime, _, _, h in members for y in [fractions.Fraction(h * m, frac.b ** 2)]
        ],
        "coefficients": [{"i": i, "A": params.b_prime ** 2, "B": B, "C": C}
                         for i, _, B, C, _ in members],
    }


def predict_argv(m, selector, compact):
    """predict argv for F_D at an int selector D, else for the one fraction."""
    flag = "--max-denominator" if isinstance(selector, int) else "--fraction"
    return ["predict", "--modulus", str(m), flag, str(selector)] + ["--json"] * compact


def predict_reference(m, selector, compact):
    """The byte reference for predict stdout: json.dumps of the whole payload,
    a list over F_D for an int selector D, else the entry of one fraction."""
    if isinstance(selector, int):
        payload = [predict_payload(m, frac) for frac in farey(selector)]
    else:
        payload = predict_payload(m, selector)
    if compact:
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return json.dumps(payload, indent=2) + "\n"


def bundle_argv(m, lambda_n, max_d):
    return ["bundle", "--modulus", str(m), "--lambda-n", str(lambda_n),
            "--max-denominator", str(max_d)]


def bundle_reference(m, lambda_n, max_d):
    """The byte reference for bundle: (exit code, stdout, stderr) as the CLI wrote
    them before it streamed, stdout being json.dumps(indent=2) of the whole payload."""
    period = patterns.layout_period(lambda_n)
    fractions, skipped, err = [], [], ""
    for frac in by_denominator(max_d):
        if period % (frac.b if frac.b % 2 else 2 * frac.b):
            err += (f"warning: skipping {frac}: denominator {frac.b} is not covered "
                    f"by period {period}\n")
            skipped.append({"a": frac.a, "b": frac.b})
            continue
        ns = patterns.vertex_on_bundle(m, period, frac, patterns.bundle_parameter(m, period))
        fractions.append(
            {"a": frac.a, "b": frac.b, "vertices": [{"k": k, "n": n} for k, n in enumerate(ns)]}
        )
    payload = {
        "modulus": m,
        "lambda_n": lambda_n,
        "lambda": period,
        "s": patterns.bundle_parameter(m, period),
        "max_denominator": max_d,
        "line_indices": sorted({v["n"] for f in fractions for v in f["vertices"]}),
        "fractions": fractions,
        "skipped": skipped,
    }
    return 0, json.dumps(payload, indent=2) + "\n", err


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_plot_writes_pgm(tmp_path, capsys):
    out = tmp_path / "tiny.pgm"
    code, _, _ = run(capsys, "plot", "--modulus", "4", "--width", "16",
                     "--height", "16", "--no-half", "--out", str(out))
    assert code == 0
    canvas = read_pgm(out)
    assert (canvas.width, canvas.height) == (16, 16)
    assert canvas.pixels.count(0) == 4


def test_plot_default_is_half_range(tmp_path, capsys):
    full = tmp_path / "full.pgm"
    half = tmp_path / "half.pgm"
    assert run(capsys, "plot", "--modulus", "101", "--width", "32",
               "--height", "32", "--no-half", "--out", str(full))[0] == 0
    assert run(capsys, "plot", "--modulus", "101", "--width", "32",
               "--height", "32", "--out", str(half))[0] == 0
    assert read_pgm(full) != read_pgm(half)


def test_plot_missing_modulus_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--out", "x.pgm"])
    assert exc.value.code == 2


def test_plot_io_error_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "plot", "--modulus", "101",
                       "--out", str(tmp_path / "missing" / "x.pgm"))
    assert code == 3
    assert "x.pgm" in err


@pytest.mark.parametrize("half", ["--half", "--no-half"])
def test_scatter_over_the_square_cap_exits_2(tmp_path, capsys, monkeypatch, half):
    # m = 101 squares (101 + 1) // 2 = 51 x in either mode; a small cap stands in.
    out = tmp_path / "s.pgm"
    argv = ("plot", "--modulus", "101", "--width", "32", "--height", "32", half, "--out", str(out))
    monkeypatch.setattr(render, "MAX_SCATTER_SQUARES", 51)
    assert run(capsys, *argv) == (0, "", "")
    out.unlink()
    monkeypatch.setattr(render, "MAX_SCATTER_SQUARES", 50)
    assert run(capsys, *argv) == (2, "", "error: scatter of 51 squares exceeds the cap of 50\n")
    assert not out.exists()


def test_scatter_real_cap_refuses_a_huge_modulus_at_once(tmp_path, capsys, monkeypatch):
    # plot --modulus 10^12 at 800x800 ran past a 20 s timeout before the cap.
    def forbidden(*args, **kwargs):
        raise AssertionError("canvas allocated")

    monkeypatch.setattr(render.Canvas, "blank", forbidden)
    out = tmp_path / "s.pgm"
    started = time.perf_counter()
    assert run(capsys, "plot", "--modulus", str(10**12), "--out", str(out)) == (
        2, "", f"error: scatter of {5 * 10**11} squares exceeds the cap of "
        f"{render.MAX_SCATTER_SQUARES}\n"
    )
    assert time.perf_counter() - started < 1.0
    assert not out.exists()


def test_grid_known_pixels(tmp_path, capsys):
    out = tmp_path / "grid.pgm"
    code, _, _ = run(capsys, "grid", "--modulus", "2", "--size", "2", "--out", str(out))
    assert code == 0
    assert list(read_pgm(out).pixels) == [0, 255, 255, 0]


def test_grid_rejects_size_one(tmp_path, capsys):
    code, _, err = run(capsys, "grid", "--modulus", "415", "--size", "1",
                       "--out", str(tmp_path / "g.pgm"))
    assert code == 2
    assert "size" in err


@pytest.mark.parametrize("argv", [
    ["plot", "--modulus", "101", "--width", "40", "--height", "40"],
    ["grid", "--modulus", "415", "--size", "40"],
])
def test_oversized_canvas_exits_2(tmp_path, capsys, monkeypatch, argv):
    # A small cap stands in for the real one, so no test allocates a giant canvas.
    monkeypatch.setattr(render, "MAX_PIXELS", 1599)
    out = tmp_path / "big.pgm"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: canvas of 40x40 pixels exceeds the cap of 1599\n"
    assert not out.exists()


def test_predict_single_fraction(capsys):
    code, payload, _ = run_json(capsys, "predict", "--modulus", "20171",
                                "--fraction", "1/3")
    assert code == 0
    assert payload["r0"] == 8965
    assert payload["beta"] == 4
    assert payload["alpha"] == -1
    assert payload["x0"] == 6724
    assert {(v["y_num"], v["y_den"]) for v in payload["vertices"]} == {
        (20171, 9), (80684, 9), (141197, 9)
    }
    assert all((v["x_num"], v["x_den"]) == (20171, 3) for v in payload["vertices"])
    assert {(c["i"], c["A"], c["B"]) for c in payload["coefficients"]} == {
        (-1, 9, -4), (0, 9, 2), (1, 9, 8)
    }


def test_predict_even_denominator(capsys):
    code, payload, _ = run_json(capsys, "predict", "--modulus", "415",
                                "--fraction", "1/4")
    assert code == 0
    assert payload["beta"] == 1
    assert payload["r0"] == 26
    assert len(payload["vertices"]) == 2


def test_predict_all_fractions(capsys):
    code, payload, _ = run_json(capsys, "predict", "--modulus", "997",
                                "--max-denominator", "5")
    assert code == 0
    assert isinstance(payload, list)
    assert len(payload) == 11


def test_predict_compact_json(capsys):
    code, out, _ = run(capsys, "predict", "--modulus", "997",
                       "--fraction", "1/3", "--json")
    assert code == 0
    assert out.count("\n") == 1
    payload = json.loads(out)
    # 332^2 = 110224 = 110 * 997 + 554 and 9 * 554 = 5 * 997 + 1
    assert (payload["x0"], payload["r0"], payload["beta"]) == (332, 554, 5)


def test_predict_no_floats_in_output(capsys):
    _, out, _ = run(capsys, "predict", "--modulus", "20171", "--fraction", "2/5")
    assert "." not in out


def test_predict_rejects_unreduced_fraction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--modulus", "997", "--fraction", "2/6"])
    assert exc.value.code == 2


def test_predict_rejects_small_modulus(capsys):
    assert run(capsys, "predict", "--modulus", "10", "--fraction", "1/7") == (
        2, "", "error: modulus 10 must exceed 7^2\n"
    )
    # 0/1 and every b < 10 allow m = 100, so a writer that checked each
    # fraction as it went would print part of the array first.
    assert run(capsys, "predict", "--modulus", "100", "--max-denominator", "28", "--json") == (
        2, "", "error: modulus 100 must exceed 28^2\n"
    )
    assert run(capsys, "predict", "--modulus", "1", "--max-denominator", "3") == (
        2, "", "error: modulus must be an integer >= 2, got 1\n"
    )


def test_predict_needs_exactly_one_selector(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("work done before the parser refused")

    monkeypatch.setattr(cli, "fraction_params", forbidden)
    for selector, last in [
        ([], "one of the arguments --fraction --max-denominator is required"),
        (["--fraction", "1/3", "--max-denominator", "5"],
         "argument --max-denominator: not allowed with argument --fraction"),
        (["--max-denominator", "5", "--fraction", "1/3"],
         "argument --fraction: not allowed with argument --max-denominator"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--modulus", "997", *selector])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: qrpat predict ")
        assert err.splitlines()[-1] == f"qrpat predict: error: {last}"


@pytest.mark.parametrize("argv", list(GOLDEN_PREDICT))
def test_predict_stdout_golden_hash(capsys, argv):
    code, out, err = run(capsys, "predict", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PREDICT[argv]


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("m, selector", [
    (20171, 9),
    (10**38 + 39, 28),
    (10**40 + 1, 28),
    (785, 28),
    (5, 2),
    (2, 1),
    (3601, ReducedFraction(7, 60)),
    (3601, ReducedFraction(59, 60)),
    (10**40 + 1, ReducedFraction(1, 59)),
    (20171, ReducedFraction(0, 1)),
    (20171, ReducedFraction(1, 1)),
    # b_prime 1,201 is five windows, the turn to the coefficients inside the third;
    # b_prime 512 is two, the second opening on the turn
    (10**40 + 1, ReducedFraction(1, 1201)),
    (10**40, ReducedFraction(1023, 1024)),
])
def test_predict_streams_the_json_dumps_bytes(capsys, m, selector, compact):
    expected = predict_reference(m, selector, compact)
    assert run(capsys, *predict_argv(m, selector, compact)) == (0, expected, "")


@pytest.mark.parametrize("window", [1, 2, 3, 4, 7])
def test_predict_windows_of_any_size_join_to_the_json_dumps_bytes(capsys, monkeypatch,
                                                                    window):
    # Small windows cut F_D's entries too, at every place a window can start or end:
    # the head, the turn from vertices to coefficients, a separator and the tail.
    monkeypatch.setattr(cli, "_WINDOW", window)
    for m, selector in [(20171, 9), (10**40 + 1, ReducedFraction(1, 7)),
                        (3601, ReducedFraction(7, 60))]:
        for compact in (False, True):
            expected = predict_reference(m, selector, compact)
            assert run(capsys, *predict_argv(m, selector, compact)) == (0, expected, "")


@pytest.mark.parametrize("selector, lookups", [
    (40, len(farey(40))),
    (ReducedFraction(1, 512), 1),  # b_prime 256: 512 items, one window
    (ReducedFraction(1, 257), 2),  # b_prime 257: 514 items, two windows
])
def test_predict_fills_an_entry_of_up_to_256_members_by_one_template(capsys, monkeypatch,
                                                                       selector, lookups):
    # Every F_D entry the member cap admits (b_prime <= 180) is one % over one template.
    template, calls = cli._predict_template, []

    def counted(*key):
        calls.append(key)
        return template(*key)

    monkeypatch.setattr(cli, "_predict_template", counted)
    code, _, err = run(capsys, *predict_argv(M40, selector, True))
    assert (code, err, len(calls)) == (0, "", lookups)


def test_predict_past_the_digit_limit_exits_2_before_any_byte(capsys, monkeypatch):
    # No printed integer exceeds b^2 * m for the largest b, and Python will not
    # write an int of more digits than its limit.
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 60)
    m = str(10**58 + 7)
    assert run(capsys, "predict", "--modulus", m, "--max-denominator", "10", "--json") == (
        2, "", "error: predict output can exceed Python's limit of 60 digits per integer\n"
    )
    # at 1/3 the bound 9 * m has 59 digits
    code, out, err = run(capsys, "predict", "--modulus", m, "--fraction", "1/3", "--json")
    assert (code, err) == (0, "")
    assert out == predict_reference(int(m), ReducedFraction(1, 3), True)


def test_predict_at_pythons_digit_limit_exits_2_before_any_byte(capsys):
    # The default limit is 4300 digits; a writer without the up-front check
    # printed 4,506 bytes of this answer before the int-to-str error.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int-to-str conversion is unlimited here")
    m = str(10 ** (limit - 1) + 7)
    assert run(capsys, "predict", "--modulus", m, "--max-denominator", "10", "--json") == (
        2, "", f"error: predict output can exceed Python's limit of {limit} digits per integer\n"
    )


def test_predict_over_the_cap_exits_2(capsys, monkeypatch):
    # F_28 has 3,709 members; a small cap stands in for the real one.
    argv = ("predict", "--modulus", "785", "--max-denominator", "28", "--json")
    monkeypatch.setattr(cli, "MAX_MEMBERS", 3709)
    code, payload, _ = run_json(capsys, *argv)
    assert (code, sum(f["b_prime"] for f in payload)) == (0, 3709)
    refused = (2, "", "error: predict exceeds the cap of 3708 family members\n")
    monkeypatch.setattr(cli, "MAX_MEMBERS", 3708)
    assert run(capsys, *argv) == refused
    # one fraction has b_prime members: 14 at 27/28 and 27 at 1/27
    monkeypatch.setattr(cli, "MAX_MEMBERS", 14)
    assert run(capsys, "predict", "--modulus", "785", "--fraction", "27/28")[0] == 0
    assert run(capsys, "predict", "--modulus", "785", "--fraction", "1/27") == (
        2, "", "error: predict exceeds the cap of 14 family members\n"
    )


def test_hot_paths_build_no_fraction(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction built on a hot path")

    monkeypatch.setattr(fractions.Fraction, "__new__", forbidden)
    family = parabola.parabola_family(parabola.fraction_params(20171, ReducedFraction(1, 3)))
    assert parabola.family_structure(family)
    assert parabola.covering_members(family, 6724, 8965) == [(family.members[1], 0)]
    argv = ("--modulus", M39, "--max-denominator", "28", "--json")
    code, out, _ = run(capsys, "predict", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PREDICT[argv]


def test_predict_builds_no_parabola_family(capsys, monkeypatch):
    # predict reads family_rows; verify builds a family, which covering_members reads.
    def forbidden(*args, **kwargs):
        raise AssertionError("parabola_family called")

    listed = predict_reference(20171, 9, False)
    for module in (cli, parabola):
        monkeypatch.setattr(module, "parabola_family", forbidden)
    assert run(capsys, "predict", "--modulus", "20171", "--max-denominator", "9") == (
        0, listed, "")
    argv = ("--modulus", "20171", "--fraction", "1/3")
    code, out, err = run(capsys, "predict", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PREDICT[argv]
    with pytest.raises(AssertionError, match="^parabola_family called$"):
        main(["verify", "--modulus", "20171", "--max-denominator", "3"])


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ("predict", "--modulus", "20171", "--fraction", "1/3")
    first, second = run(capsys, *argv), run(capsys, *argv)
    cli._build_parser.cache_clear()
    assert built.count("qrpat") == 1
    assert first == second
    assert hashlib.sha256(first[1].encode()).hexdigest() == GOLDEN_PREDICT[argv[1:]]


def test_verify_reference_modulus(capsys):
    code, payload, _ = run_json(capsys, "verify", "--modulus", "20171",
                                "--max-denominator", "9", "--window", "50")
    assert code == 0
    assert payload["ok"] is True
    assert payload["fractions_checked"] == 29
    for counts in payload["checks"].values():
        assert counts["failed"] == 0


@pytest.mark.parametrize("tampered, argv", list(GOLDEN_VERIFY))
def test_verify_stdout_golden_hash(capsys, monkeypatch, tampered, argv):
    for name in tampered:
        monkeypatch.setattr(cli, name, TAMPERS[name](getattr(cli, name)))
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (1 if tampered else 0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[tampered, argv]

@pytest.fixture
def split_verify(monkeypatch, forks):
    """verify made to split every request, as on two CPUs: split_verify(capsys, *argv)
    runs one and checks that it forked once and left no child of this process.  The
    fractions this process checked, in order, are kept in checked_here."""
    pid, checked_here, checks = os.getpid(), [], cli._fraction_checks
    monkeypatch.setattr(cli, "_SPLIT_POINTS", 1)

    def recorded(m, frac, window):
        if os.getpid() == pid:
            checked_here.append(frac)
        return checks(m, frac, window)
    monkeypatch.setattr(cli, "_fraction_checks", recorded)

    def split(capsys, *argv):
        return forks.run(run, capsys, "verify", *argv)
    split.checked_here = checked_here
    return split


@pytest.mark.parametrize("tampered, argv", list(GOLDEN_VERIFY))
def test_split_verify_gives_every_golden_hash(capsys, monkeypatch, split_verify, tampered,
                                              argv):
    for name in tampered:
        monkeypatch.setattr(cli, name, TAMPERS[name](getattr(cli, name)))
    code, out, err = split_verify(capsys, *argv)
    assert (code, err) == (1 if tampered else 0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[tampered, argv]
    fractions = farey(int(argv[3]))  # this process checked F_D's lower half only
    assert split_verify.checked_here == fractions[:len(fractions) // 2]


# A child that raises at its last fraction, after writing the others' bytes, exits 1; with
# SIGCHLD ignored the child's status is lost.  Each way this process checks the upper half
# too, over the bytes the child wrote.
@pytest.mark.parametrize("failure", ["child raises", "ignore SIGCHLD"])
def test_split_verify_survives_a_failed_child(capsys, monkeypatch, split_verify, request,
                                              failure):
    for name in ALL_TAMPERS:
        monkeypatch.setattr(cli, name, TAMPERS[name](getattr(cli, name)))
    argv = ("--modulus", "20171", "--max-denominator", "9", "--window", "50")
    if failure == "child raises":
        pid, checks = os.getpid(), cli._fraction_checks

        def raising(m, frac, window):
            if os.getpid() != pid and frac == farey(9)[-1]:
                raise RuntimeError("the child fails")
            return checks(m, frac, window)
        monkeypatch.setattr(cli, "_fraction_checks", raising)
    else:
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        request.addfinalizer(lambda: signal.signal(signal.SIGCHLD, previous))
    code, out, err = split_verify(capsys, *argv)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[ALL_TAMPERS, argv]
    assert split_verify.checked_here == farey(9)  # the lower half, then the upper


def test_verify_never_forks_below_its_threshold(capsys, forks):
    # qrbench's traced request, whose covering_members calls its tracer counts, stays whole
    argv = ("--modulus", "10007", "--max-denominator", "5", "--window", "30")
    assert cli._plan("verify", 10007, 5, window=30) == (11, 610)
    assert 610 < cli._SPLIT_POINTS
    assert forks.run(run, capsys, "verify", *argv, forked=0)[0] == 0


def test_verify_small_modulus_default_window(capsys):
    code, payload, _ = run_json(capsys, "verify", "--modulus", "101",
                                "--max-denominator", "9")
    assert code == 0
    assert payload["ok"] is True


@pytest.mark.parametrize("m", [2, 3, 5])
def test_verify_smallest_moduli(capsys, m):
    # the default window 3 * b_prime reaches past both ends of these plots and is clipped
    code, payload, _ = run_json(capsys, "verify", "--modulus", str(m),
                                "--max-denominator", "1")
    assert code == 0
    assert payload["ok"] is True
    assert payload["fractions_checked"] == 2


def test_verify_oracle_over_the_cap_exits_2(capsys, monkeypatch):
    # 0/1 with window 50 lists x = 0..50; a small cap stands in for the real one.
    argv = ("verify", "--modulus", "997", "--max-denominator", "1", "--window", "50")
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 51)
    assert run_json(capsys, *argv)[:1] == (0,)
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 50)
    assert run(capsys, *argv) == (
        2, "", "error: oracle window of 51 points exceeds the cap of 50\n"
    )
    # 1/2 lists x = 449..549; the plan refuses it before any family is built.
    def forbidden(*args):
        raise AssertionError("family built before the plan refused")

    argv = ("verify", "--modulus", "997", "--max-denominator", "2", "--window", "50")
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 101)
    assert run_json(capsys, *argv)[:1] == (0,)
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 100)
    monkeypatch.setattr(cli, "fraction_params", forbidden)
    assert run(capsys, *argv) == (
        2, "", "error: oracle window of 101 points exceeds the cap of 100\n"
    )


def test_verify_request_over_the_cap_exits_2(capsys, monkeypatch):
    # F_9's default windows list this many points; a small cap stands in for the real one.
    argv = ("verify", "--modulus", "997", "--max-denominator", "9")
    planned = sum(len(parabola.residues_near(997, f, 3 * (f.b if f.b % 2 else f.b // 2)))
                  for f in farey(9))
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", planned)
    assert run_json(capsys, *argv)[:1] == (0,)
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", planned - 1)
    refused = f"error: verify windows reach {planned} oracle points, over the cap of {planned - 1}\n"
    assert run(capsys, *argv) == (2, "", refused)

    # 0/1 and 1/1 with a window of 10^9 list 10^9 + 1 and 10^9 points, and are
    # refused by that count alone: no window list is built.  The oracle cap, which
    # the plan checks first, is raised to let them through.
    def forbidden(*args):
        raise AssertionError("oracle window built")

    monkeypatch.setattr(cli, "residues_near", forbidden)
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 10**9 + 1)
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 10**9)
    big = ("verify", "--modulus", str(10**40 + 1), "--max-denominator", "1")
    assert run(capsys, *big, "--window", str(10**9)) == (
        2, "", "error: verify windows reach 2000000001 oracle points, over the cap of 1000000000\n"
    )


def test_verify_real_cap_refuses_a_wide_request_at_once(capsys, monkeypatch):
    # verify --max-denominator 1000 at m = 10^40 + 1 ran past a 10 s timeout before the cap.
    # Windows of 200,001 points pass the point cap at b = 13, long before the members.
    def forbidden(*args):
        raise AssertionError("F_D built")

    monkeypatch.setattr(cli, "ReducedFraction", forbidden)
    started = time.perf_counter()
    assert run(capsys, "verify", "--modulus", str(M40), "--max-denominator", "1000",
               "--window", "100000") == (
        2, "", "error: verify windows reach 11600058 oracle points, over the cap of 10000000\n"
    )
    assert time.perf_counter() - started < 1.0


def test_verify_window_wider_than_the_plot_is_clipped(capsys):
    # 2 * 7 >= 5 was refused; the window is clipped to [0, 5) like any other.
    code, payload, err = run_json(capsys, "verify", "--modulus", "5", "--max-denominator", "2",
                                  "--window", "7")
    assert (code, err, payload["ok"], payload["window"]) == (0, "", True, 7)
    assert payload["fractions_checked"] == 3


def test_verify_over_the_member_cap_exits_2(capsys, monkeypatch):
    # F_9 has 151 members; small caps stand in for the real ones.
    argv = ("verify", "--modulus", "997", "--max-denominator", "9", "--window", "1")
    monkeypatch.setattr(cli, "MAX_MEMBERS", 151)
    assert run_json(capsys, *argv)[:1] == (0,)
    monkeypatch.setattr(cli, "MAX_MEMBERS", 150)
    assert run(capsys, *argv) == (2, "", "error: verify exceeds the cap of 150 family members\n")
    # at each b: widest window, points, members.  F_9's 29 fractions plan 3 points
    # each, except 0/1 and 1/1, which list 2 and 1: 84 in all, and both caps cross at b = 9
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 83)
    assert run(capsys, *argv) == (
        2, "", "error: verify windows reach 84 oracle points, over the cap of 83\n"
    )
    # F_8 has 97 members and plans 66 points, so a member cap of 96 stops the walk at b = 8
    monkeypatch.setattr(cli, "MAX_MEMBERS", 96)
    assert run(capsys, *argv) == (2, "", "error: verify exceeds the cap of 96 family members\n")


def test_verify_real_member_cap_refuses_a_narrow_request_at_once(capsys, monkeypatch):
    # D = 3000 with --window 1 plans 8,208,567 oracle points, under their cap, but
    # 4,560,421,995 members; uncapped, D = 400 took 25.8 s and D = 3000 would have
    # taken hours.  D = 1000 with the default windows has planned about 6.1 M points
    # when its members pass the cap at b = 181.
    def forbidden(*args):
        raise AssertionError("F_D built")

    monkeypatch.setattr(cli, "ReducedFraction", forbidden)
    for max_d, window in (("3000", ["--window", "1"]), ("1000", [])):
        started = time.perf_counter()
        assert run(capsys, "verify", "--modulus", str(M40), "--max-denominator", max_d,
                   *window) == (2, "", "error: verify exceeds the cap of 1000000 family members\n")
        assert time.perf_counter() - started < 1.0


def test_the_plan_counts_every_member_of_f_d(monkeypatch):
    # b_prime members per a/b of F_D, 0/1 and 1/1 included, whether or not the windows clip
    for max_d in range(1, 61):
        members = sum(f.b if f.b % 2 else f.b // 2 for f in farey(max_d))
        for m in (max_d * max_d + 1, M40):
            for command, window in (("predict", None), ("bundle", None), ("verify", 1)):
                monkeypatch.setattr(cli, "MAX_MEMBERS", members)
                cli._plan(command, m, max_d, window=window)
                monkeypatch.setattr(cli, "MAX_MEMBERS", members - 1)
                with pytest.raises(ValueError, match=f"^{command} exceeds the cap of "
                                                     f"{members - 1} family members$"):
                    cli._plan(command, m, max_d, window=window)


def test_verify_plans_the_clipped_windows_of_0_1_and_1_1(capsys, monkeypatch):
    # 0/1 and 1/1 list 454,546 and 454,545 points, the 9 other windows of F_5
    # 909,091 each: 9,090,910 in all.  Counting 2w + 1 at b = 1 refused this.
    monkeypatch.setattr(cli, "_fraction_checks", lambda m, frac, window: (True, True, True))
    argv = ("verify", "--modulus", str(M40), "--max-denominator", "5", "--window", "454545")
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 9090910)
    assert run_json(capsys, *argv)[:1] == (0,)
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 9090909)
    assert run(capsys, *argv) == (
        2, "", "error: verify windows reach 9090910 oracle points, over the cap of 9090909\n"
    )


def test_verify_plans_the_window_of_1_2_exactly(capsys, monkeypatch):
    # 1/2's anchor is 500001, so a window of 500000 lists x = 1..1000000: 10^6 points,
    # at the oracle cap.  Counting min(2w + 1, m) at b = 2 refused it as 1000001.
    monkeypatch.setattr(cli, "_fraction_checks", lambda m, frac, window: (True, True, True))
    argv = ("verify", "--modulus", "1000001", "--max-denominator", "2", "--window", "500000")
    code, payload, err = run_json(capsys, *argv)
    assert (code, err, payload["ok"], payload["fractions_checked"]) == (0, "", True, 3)
    monkeypatch.setattr(parabola, "MAX_ORACLE_POINTS", 10**6 - 1)
    assert run(capsys, *argv) == (
        2, "", "error: oracle window of 1000000 points exceeds the cap of 999999\n"
    )


def test_verify_plans_windows_that_reach_an_end_of_the_plot_exactly(capsys, monkeypatch):
    # At w = 499999 every window of F_6 but 1/2's reaches x = 0 or x = m - 1, and
    # the clipped windows list 9,700,001 points.  Counting 2w + 1 for each a/b at
    # b >= 3 refused this as 11,999,988.
    monkeypatch.setattr(cli, "_fraction_checks", lambda m, frac, window: (True, True, True))
    argv = ("verify", "--modulus", "1000003", "--max-denominator", "6", "--window", "499999")
    code, payload, err = run_json(capsys, *argv)
    assert (code, err, payload["ok"], payload["fractions_checked"]) == (0, "", True, 13)
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 9700000)
    assert run(capsys, *argv) == (
        2, "", "error: verify windows reach 9700001 oracle points, over the cap of 9700000\n"
    )


# One row per refusal of predict, verify and bundle, in the plan's order: the
# modulus, m > D^2, then at each b: widest window, points, members; last,
# predict's digit bound.
# At --max-denominator 3000 and m = 100 predict named the member cap, and at
# m = 1 verify and bundle named m > D^2.
REFUSALS = [
    (["predict", "--modulus", "1", "--max-denominator", "3000"],
     "modulus must be an integer >= 2, got 1"),
    (["verify", "--modulus", "1", "--max-denominator", "3000"],
     "modulus must be an integer >= 2, got 1"),
    (["bundle", "--modulus", "1"], "modulus must be an integer >= 2, got 1"),
    (["predict", "--modulus", "100", "--max-denominator", "3000"],
     "modulus 100 must exceed 3000^2"),
    (["predict", "--modulus", "100", "--fraction", "1/3000"],
     "modulus 100 must exceed 3000^2"),
    (["verify", "--modulus", "100", "--max-denominator", "3000"],
     "modulus 100 must exceed 3000^2"),
    (["bundle", "--modulus", "100", "--lambda-n", "400", "--max-denominator", "3000"],
     "modulus 100 must exceed 3000^2"),
    # windows of at most 999,999 points each, which pass the oracle cap checked before them
    (["verify", "--modulus", str(M40), "--max-denominator", "6", "--window", "499999"],
     "verify windows reach 11999988 oracle points, over the cap of 10000000"),
    (["verify", "--modulus", str(M40), "--max-denominator", "3000", "--window", "1"],
     "verify exceeds the cap of 1000000 family members"),
    (["predict", "--modulus", str(10**58 + 7), "--max-denominator", "3000"],
     "predict exceeds the cap of 1000000 family members"),
    (["bundle", "--modulus", str(M40), "--lambda-n", "400", "--max-denominator", "3000"],
     "bundle exceeds the cap of 1000000 family members"),
    (["predict", "--modulus", str(10**58 + 7), "--max-denominator", "10"],
     "predict output can exceed Python's limit of 60 digits per integer"),
    # one --fraction at its real member cap: b_prime = 2000001 members
    (["predict", "--modulus", str(M40), "--fraction", "1/2000001"],
     "predict exceeds the cap of 1000000 family members"),
    # argument checks outside the plan come first
    (["bundle", "--modulus", "1", "--lambda-n", "1"], "layout period needs lambda-n >= 2, got 1"),
    # verify's widest oracle window, which the walk checks first at each b
    # (listed here so that the rows above keep their test ids)
    (["verify", "--modulus", str(M40), "--max-denominator", "1", "--window", str(10**6)],
     "oracle window of 1000001 points exceeds the cap of 1000000"),
    # bundle --out's scene cap, right after the plan
    (["bundle", "--modulus", str(M40), "--lambda-n", "400", "--max-denominator", "180",
      "--out", "x.svg"],
     f"scene of {M40} scatter points exceeds the cap of 1000000"),
    # bundle --out's canvas, right after its scene (the SVG's coordinates grew without
    # bound: 10^400 ended in a traceback and a partial file)
    (["bundle", "--modulus", "20179", "--width", str(10**400), "--out", "x.svg"],
     f"canvas of {10**400}x800 pixels exceeds the cap of 100000000"),
    (["bundle", "--modulus", "20179", "--height", str(10**400), "--out", "x.svg"],
     f"canvas of 800x{10**400} pixels exceeds the cap of 100000000"),
    (["bundle", "--modulus", "999983", "--width", str(10**30), "--out", "x.svg"],
     f"canvas of {10**30}x800 pixels exceeds the cap of 100000000"),
    # Each message names only values parsed from argv, or bounded ones: these printed
    # Python's int-to-str error, for b*b, width*height and a 4,301-digit sum of windows.
    (["predict", "--modulus", "5", "--max-denominator", "9" * 3000],
     f"modulus 5 must exceed {'9' * 3000}^2"),
    (["equiv", "--m1", "5", "--m2", "7", "--max-denominator", "9" * 3000],
     f"modulus 5 must exceed {'9' * 3000}^2"),
    (["plot", "--modulus", "20179", "--width", "9" * 2200, "--height", "9" * 2200,
      "--out", "x.pgm"],
     f"canvas of {'9' * 2200}x{'9' * 2200} pixels exceeds the cap of 100000000"),
    (["verify", "--modulus", "9" * 4300, "--max-denominator", "1", "--window", "9" * 4300],
     f"oracle window of {'9' * 4300} points exceeds the cap of 1000000"),
    # the two caps checked outside the plan, which README's caps table also names
    (["plot", "--modulus", str(10**12), "--out", "x.pgm"],
     "scatter of 500000000000 squares exceeds the cap of 50000000"),
    (["bundle", "--modulus", "1", "--lambda-n", "9001"],
     "layout period needs lambda-n <= 9000, got 9001"),
    # each point counted at a 4,300-digit modulus's weight: at weight 1 this ran 62 s
    (["verify", "--modulus", str(10**4299 + 7), "--max-denominator", "1", "--window", "100000"],
     "verify windows reach 200001 oracle points at 675 each, over the cap of 10000000"),
    # each grid cell counted at a 4,300-digit modulus's weight, the first size past the
    # cap (1336 runs 7 s); at weight 1, --size 10000 was drawn, in 4.5 minutes
    (["grid", "--modulus", str(10**4299 + 7), "--size", "1337", "--out", "x.pgm"],
     "canvas of 1337x1337 pixels at 56 each exceeds the cap of 100000000"),
    # each predict member counted at a 4,001-digit modulus's weight, refused at b = 37
    # (D = 36 is the pin long-modulus-predict); at weight 1, F_180's 987,919 members
    # were inside the cap, a run of about 20 minutes and 12 GB
    (["predict", "--modulus", str(10**4000 + 7), "--max-denominator", "180"],
     "predict exceeds the cap of 1000000 family members at 123 each"),
    # each verify member counted at a 4,001-digit modulus's weight, refused at b = 33; with
    # members at weight 1, F_164's 751,449 members and 24,702 points at 401 each were
    # inside the caps, a run of 18.8 s
    (["verify", "--modulus", str(10**4000 + 7), "--max-denominator", "164", "--window", "1"],
     "verify exceeds the cap of 1000000 family members at 169 each"),
    # each point counted at a 165-digit modulus's weight, the linear term's 2 (the square
    # term's is 1 below 2^549), refused at b = 4; at weight 1, F_5's 8,999,990 points ran 23-28 s
    (["verify", "--modulus", str(10**164 + 7), "--max-denominator", "5", "--window", "449999"],
     "verify windows reach 5399994 oracle points at 2 each, over the cap of 10000000"),
]


def test_weights_are_1_below_their_scale(monkeypatch):
    # so no golden, pin or qrbench request is weighed but the long-modulus pins; the
    # (scale, power) of verify's points (two terms), verify's and predict's members, grid's cells
    weight = parabola.length_weight
    for scale, power in ((300, 1), (550, 2), (1024, 2), (1200, 2), (256, 1)):
        assert weight(10**58 + 7, scale, power) == weight(2**(scale - 1) - 1, scale, power) == 1
        assert weight(2**(scale - 1), scale, power) == 2
    monkeypatch.setattr(cli, "MAX_MEMBERS", 1)
    for command in ("predict", "verify", "bundle"):
        with pytest.raises(ValueError, match=" 1 family members$"):
            cli._plan(command, 10**58 + 7, 1, window=1)
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 1)
    with pytest.raises(ValueError, match=r"^verify windows reach 3 oracle points, over"):
        cli._plan("verify", 10**58 + 7, 1, window=1)
    monkeypatch.undo()
    # each long-modulus pin sits at its largest accepted D: F_36 in 961,245 weighted
    # members of predict's 10^6, F_24 in 8,507,712 weighted points of verify's 10^7
    for name, each, plan in (("long-modulus-predict", 123, len(farey(36))),
                             ("long-modulus-verify", 584, (len(farey(24)), 8507712))):
        pin = next(pin for pin in pins.PINS if pin.name == name)
        command, m, max_d = pin.argv[0], int(pin.argv[2]), int(pin.argv[4])
        assert cli._plan(command, m, max_d) == plan
        with pytest.raises(ValueError, match=f" at {each} each"):
            cli._plan(command, m, max_d + 1)


def forbidden_work(*args):
    raise AssertionError("work done before every check passed")


def checked_blank(width, height, weight=1):
    render.check_canvas(width, height, weight)
    forbidden_work()


# What each command calls first once its request passes every check, with its stand-in,
# patched where the handler reads it when it runs: cli binds parabola's names, and reads
# the others from patterns and render.  plot and grid allocate their canvas first, and
# Canvas.blank holds its check, so the stand-in makes the check and then stops.
FIRST_WORK = ((cli, "fraction_params", forbidden_work), (patterns, "covered", forbidden_work),
              (patterns, "vertex_on_bundle", forbidden_work), (render, "write_svg", forbidden_work),
              (render.Canvas, "blank", staticmethod(checked_blank)))


def forbid_first_work(monkeypatch):
    for owner, name, stand_in in FIRST_WORK:
        monkeypatch.setattr(owner, name, stand_in)


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_every_refusal_comes_in_one_order_before_any_work(tmp_path, capsys, monkeypatch,
                                                           argv, message):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 60)
    forbid_first_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["plot", "--modulus", "20179", "--out", "x.pgm"],
    ["grid", "--modulus", "20179", "--size", "10000", "--out", "x.pgm"],  # at MAX_PIXELS
    ["predict", "--modulus", "20179", "--fraction", "1/3"],
    ["verify", "--modulus", "20179", "--max-denominator", "9"],
    ["bundle", "--modulus", "20179", "--out", "x.svg"],
], ids=lambda argv: argv[0])
def test_first_work_stops_a_request_that_no_check_refuses_at_once(tmp_path, monkeypatch, argv):
    # So a REFUSALS row that the code stops refusing fails fast: before Canvas.blank was
    # in FIRST_WORK, a grid row at --size 10000 drew its grid for 4.5 minutes first.
    forbid_first_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    with pytest.raises(AssertionError, match="work done before every check passed"):
        main(argv)
    assert time.perf_counter() - started < 1.0


def test_verify_exits_1_on_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_identity", lambda params: False)
    code, payload, _ = run_json(capsys, "verify", "--modulus", "997",
                                "--max-denominator", "3")
    assert code == 1
    assert payload["ok"] is False
    assert payload["checks"]["identity"]["failed"] == payload["fractions_checked"]
    assert payload["failures"]


def test_verify_reports_tampered_family_structure(capsys, monkeypatch):
    build = cli.parabola_family

    def tampered(params):
        family = build(params)
        (*first, h), *rest = family.members  # h is a family_rows row's last field
        return family._replace(members=((*first, h + 1), *rest))

    monkeypatch.setattr(cli, "parabola_family", tampered)
    code, payload, _ = run_json(capsys, "verify", "--modulus", "997",
                                "--max-denominator", "3")
    assert code == 1
    assert payload["ok"] is False
    checks = payload["checks"]
    assert checks["family_structure"]["failed"] == payload["fractions_checked"] > 0
    assert checks["coverage"]["failed"] == 0
    assert checks["identity"]["failed"] == 0
    assert "1/3:family_structure" in payload["failures"]


def test_equiv_reference_pair(capsys):
    code, payload, _ = run_json(capsys, "equiv", "--m1", "20179", "--m2", "25219")
    assert code == 0
    assert payload["equivalent"] is True
    assert payload["witness"] is None
    assert payload["lambda"] == 5040


def test_equiv_perturbed_pair(capsys):
    code, payload, _ = run_json(capsys, "equiv", "--m1", "20179", "--m2", "20180")
    assert code == 0
    assert payload["equivalent"] is False
    assert payload["witness"] == {"a": 1, "b": 2}


@pytest.mark.parametrize("argv", list(GOLDEN_EQUIV))
def test_equiv_stdout_golden_hash(capsys, argv):
    code, out, err = run(capsys, "equiv", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EQUIV[argv]


@pytest.mark.parametrize("moduli", [("81", "20179"), ("20179", "81")])
def test_equiv_small_modulus_exits_2(capsys, moduli):
    m1, m2 = moduli
    assert run(capsys, "equiv", "--m1", m1, "--m2", m2, "--max-denominator", "9") == (
        2, "", "error: modulus 81 must exceed 9^2\n"
    )


PERIOD_9000 = patterns.layout_period(9000)


@pytest.mark.parametrize("m2, witness", [
    (M40 + 1, {"a": 1, "b": 2}),
    (M40 + 7 * PERIOD_9000, None),
    # every prime power of the period divides period / 8191 except 8191 itself
    (M40 + PERIOD_9000 // 8191, {"a": 1, "b": 8191}),
])
def test_equiv_at_a_huge_max_denominator_answers_at_once(capsys, m2, witness):
    # A loop over every b <= D would never end at D = 10^19.
    started = time.perf_counter()
    code, payload, err = run_json(capsys, "equiv", "--m1", str(M40), "--m2", str(m2),
                                  "--lambda-n", "9000", "--max-denominator", str(10**19))
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    assert (payload["equivalent"], payload["witness"]) == (witness is None, witness)


def test_equiv_small_moduli_at_a_huge_max_denominator_exit_2_at_once(capsys):
    # The moduli were checked only after an O(D) loop: over 20 s at D = 10^11.
    started = time.perf_counter()
    assert run(capsys, "equiv", "--m1", "5", "--m2", "7", "--max-denominator", str(10**11)) == (
        2, "", "error: modulus 5 must exceed 100000000000^2\n"
    )
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("argv", [
    ["equiv", "--m1", "20179", "--m2", "25219"],
    ["bundle", "--modulus", "20179"],
])
def test_lambda_n_one_exits_2_with_one_line(capsys, argv):
    assert run(capsys, *argv, "--lambda-n", "1") == (
        2, "", "error: layout period needs lambda-n >= 2, got 1\n"
    )


@pytest.mark.parametrize("argv", [
    ["equiv", "--m1", "20179", "--m2", "25219"],
    ["bundle", "--modulus", "20179"],
])
def test_lambda_n_over_the_cap_exits_2_at_once(capsys, monkeypatch, argv):
    # --lambda-n 10^6 ran past a 60 s timeout in lcm(2..n) before the cap.
    def forbidden(*args):
        raise AssertionError("layout period computed")

    monkeypatch.setattr(patterns.math, "lcm", forbidden)
    started = time.perf_counter()
    assert run(capsys, *argv, "--lambda-n", "1000000") == (
        2, "", "error: layout period needs lambda-n <= 9000, got 1000000\n"
    )
    assert time.perf_counter() - started < 1.0


def test_lambda_n_at_the_cap_prints_its_period(capsys):
    # 2 * lcm(2..9000) has 3,902 digits, under Python's int-to-str limit.
    assert patterns.MAX_LAMBDA_N == 9000
    code, payload, _ = run_json(capsys, "equiv", "--m1", "20179", "--m2", "25219",
                                "--lambda-n", "9000")
    assert code == 0
    assert payload["lambda"] == patterns.layout_period(9000)
    assert len(str(payload["lambda"])) == 3902
    code, payload, _ = run_json(capsys, "bundle", "--modulus", "20179", "--lambda-n", "9000")
    assert code == 0
    assert payload["lambda"] == patterns.layout_period(9000)


def test_bundle_reference_modulus(tmp_path, capsys):
    out = tmp_path / "fig3a.svg"
    code, payload, err = run_json(capsys, "bundle", "--modulus", "20179",
                                  "--out", str(out))
    assert code == 0
    assert payload["s"] == 19
    assert payload["skipped"] == []
    assert err == ""
    assert out.exists()
    covered = {(f["a"], f["b"]) for f in payload["fractions"]}
    assert (1, 3) in covered and (0, 1) in covered
    assert payload["line_indices"] == sorted(set(payload["line_indices"]))


def test_bundle_stdout_golden_hash(capsys):
    code, out, _ = run(capsys, "bundle", "--modulus", "20179", "--lambda-n", "9",
                       "--max-denominator", "9")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_BUNDLE_20179


def test_bundle_stdout_golden_hash_at_40_digits(capsys):
    code, out, _ = run(capsys, *bundle_argv(M40, 400, 60))
    assert (code, len(out)) == (0, 2194208)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_BUNDLE_M40


def test_bundle_scene_over_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    # A small cap stands in for the real one, so no test lists a giant scene.
    monkeypatch.setattr(render, "MAX_SCENE_POINTS", 20178)
    out = tmp_path / "big.svg"
    argv = ["bundle", "--modulus", "20179", "--out", str(out)]
    assert run(capsys, *argv) == (
        2, "", "error: scene of 20179 scatter points exceeds the cap of 20178\n"
    )
    assert not out.exists()
    monkeypatch.setattr(render, "MAX_SCENE_POINTS", 20179)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.read_bytes().startswith(b"<?xml")


def test_bundle_degenerate_multiple(capsys):
    code, payload, _ = run_json(capsys, "bundle", "--modulus", "25200")
    assert code == 0
    assert payload["s"] == 0


def test_bundle_skips_uncovered_denominators(capsys):
    code, payload, err = run_json(capsys, "bundle", "--modulus", "20179",
                                  "--max-denominator", "11")
    assert code == 0
    assert {f["b"] for f in payload["skipped"]} == {11}
    assert len(payload["skipped"]) == 10
    assert err.count("warning") == 10


@pytest.mark.parametrize("m, lambda_n, max_d", [
    (20179, 9, 9),
    (20179, 3, 9),  # 22 skipped fractions
    (25200, 9, 3),  # s = 0
    (977, 9, 1),
    (M40, 30, 25),
    (M40, 400, 12),
    (M40, 2, 60),  # only b <= 2 covered
    (20179, 4, 30),  # 266 skipped fractions
])
def test_bundle_streams_the_json_dumps_bytes(capsys, m, lambda_n, max_d):
    assert run(capsys, *bundle_argv(m, lambda_n, max_d)) == bundle_reference(m, lambda_n, max_d)


class ByteCounter:
    """A stdout that keeps nothing but the number of characters written to it."""

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)

    def flush(self):
        pass


def test_bundle_holds_a_small_fraction_of_what_it_writes():
    # 7.4 MB of JSON.  Building the whole payload and its json.dumps text first
    # peaked at 13 times the bytes written, and holding every vertex's line index
    # for the head at 0.23 times; streamed, F_D, one fraction's matches and a
    # template per member count are held, 0.07 times.
    sink = ByteCounter()
    cli._build_parser()
    cli._bundle_template.cache_clear()

    def request():
        with redirect_stdout(sink):
            assert main(bundle_argv(M40, 400, 90)) == 0

    _, peak = traced_peak(request)
    assert sink.count > 7 * 10**6
    assert peak < 0.12 * sink.count


def test_verify_peak_does_not_grow_with_the_window():
    # 0/1 and 1/1 at m = 10^40 + 1: two clipped windows of w + 1 and w points.  Listed
    # whole, each window peaked at about 150 bytes a point (3.1 MB at w = 20,000); read
    # as a view, each point is squared as it is checked.  Traced, a point costs about
    # 13 µs (w = 200,000 took 5 s), so the windows stay this small.
    def peak(window):
        argv = ["verify", "--modulus", str(M40), "--max-denominator", "1", "--window", window]
        with redirect_stdout(ByteCounter()):
            return traced_peak(lambda: main(argv))

    peak("1")  # the parser and its caches, built once per process
    (narrow_code, narrow), (wide_code, wide) = peak("2000"), peak("20000")
    assert narrow_code == wide_code == 0
    assert wide < narrow + 16 * 1024 and narrow < 64 * 1024


def test_predict_and_verify_peaks_do_not_grow_with_f_d(monkeypatch):
    # F_D walked by the next-term rule holds two fractions at a time.  Built whole in the
    # plan and sorted into a copy, F_D grew each peak by about 530 KB from D = 30 to 120.
    # Each fraction's work is stubbed, as one fraction's peak is another probe's: traced
    # whole, the two requests at D = 120 took 18 s and grew 18 and 53 KB.
    monkeypatch.setattr(cli, "_fraction_checks", lambda m, frac, window: (True, True, True))
    monkeypatch.setattr(cli, "_write_predict_entry",
                        lambda write, m, frac, indented, listed: write(str(frac)))

    def peak(argv):
        with redirect_stdout(ByteCounter()):
            main(argv)  # the parser and its caches, built untraced
            return traced_peak(lambda: main(argv))

    for command, option in (("verify", "--window=1"), ("predict", "--json")):
        (small_code, small), (large_code, large) = (
            peak([command, "--modulus", str(M40), "--max-denominator", d, option])
            for d in ("30", "120"))
        assert small_code == large_code == 0
        assert large < small + 100 * 1024, command


def test_one_fraction_predict_holds_a_small_fraction_of_what_it_writes():
    # 5.0 MB of JSON for 20,001 members.  One % over the whole entry peaked at 2.8
    # times the bytes written; a window of _WINDOW items at a time, with the window
    # templates it caches, at 0.07 times.
    sink = ByteCounter()
    cli._build_parser()
    cli._predict_template.cache_clear()

    def request():
        with redirect_stdout(sink):
            assert main(["predict", "--modulus", str(M40), "--fraction", "1/20001",
                         "--json"]) == 0

    _, peak = traced_peak(request)
    assert sink.count > 5 * 10**6
    assert peak < 0.1 * sink.count


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call adds one to the returned list's only entry."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_bundle_fills_cached_templates_without_json_dumps(capsys, monkeypatch):
    # The head and "skipped" went through json.dumps(indent=2) on every request.  A warm
    # predict takes every part from the cache too: F_D and one fraction of two windows
    # (b_prime 257), indented and compact.
    argvs = [bundle_argv(20179, 3, 9)]  # 22 skipped fractions
    for selector in (9, ReducedFraction(1, 257)):
        argvs += [predict_argv(M40, selector, compact) for compact in (False, True)]
    warm = [run(capsys, *argv) for argv in argvs]
    calls = count_calls(monkeypatch, cli.json, "dumps")
    assert [run(capsys, *argv) for argv in argvs] == warm
    assert calls[0] == 0


def test_bundle_out_matches_each_vertex_once(tmp_path, capsys, monkeypatch):
    # The overlay matched every covered fraction a second time: 58 calls against 29.
    calls = count_calls(monkeypatch, patterns, "vertex_on_bundle")
    out = tmp_path / "fig.svg"
    code, stdout, err = run(capsys, "bundle", "--modulus", "20179", "--out", str(out))
    assert (code, err, calls[0]) == (0, "", 29)
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_BUNDLE_20179
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SVG_20179


def test_bundle_out_draws_its_scene_from_its_own_matches(tmp_path, capsys):
    # bundle builds the Scene itself: every fraction gets circles, the ten skipped k/11
    # included; the curves run over -n..n, n the largest line index, also where the
    # line indices are uneven (at --lambda-n 4 the widest covered b_prime is 6, at
    # b = 12); s is the balanced -13, not 10067 % 5040.
    out, drawn = tmp_path / "x.svg", tmp_path / "scene.svg"
    for lambda_n, max_d, s, lines, curves in ((9, 11, -13, range(-4, 5), range(-4, 5)),
                                              (4, 12, 11, range(-2, 4), range(-3, 4))):
        argv = [*bundle_argv(10067, lambda_n, max_d), "--width", "320", "--height", "240",
                "--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout, err) == bundle_reference(10067, lambda_n, max_d)
        assert json.loads(stdout)["line_indices"] == list(lines)
        render.write_svg(render.Scene(320, 240, 10067, s, curves, by_denominator(max_d)), drawn)
        assert out.read_bytes() == drawn.read_bytes()


def test_bundle_builds_no_fraction_params(tmp_path, capsys, monkeypatch):
    # The overlay rebuilt each covered fraction's params for its vertex heights: 58
    # fraction_params calls with --out against 29 without.  The heights now come
    # from beta == -a^2*m (mod c*b), one vertex_heights call per covered fraction
    # in vertex_on_bundle and one in the overlay, and no params at all.
    built = [count_calls(monkeypatch, module, "fraction_params") for module in (parabola, cli)]
    heights = [count_calls(monkeypatch, module, "vertex_heights") for module in (patterns, render)]
    out = tmp_path / "fig.svg"
    code, stdout, err = run(capsys, "bundle", "--modulus", "20179", "--out", str(out))
    assert (code, err, built, heights) == (0, "", [[0], [0]], [[29], [29]])
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_BUNDLE_20179
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SVG_20179
    assert run(capsys, "bundle", "--modulus", "20179")[0] == 0
    assert (built, heights) == ([[0], [0]], [[58], [29]])


@pytest.mark.parametrize("modulus, cap", [("2000003", None), ("20179", 20178)])
def test_refused_bundle_out_prints_one_line_and_no_warning(tmp_path, capsys, monkeypatch,
                                                           modulus, cap):
    # At --lambda-n 3, 22 of F_9's fractions are uncovered: a refused --out used to
    # print their 22 warnings before its error.
    if cap is not None:
        monkeypatch.setattr(render, "MAX_SCENE_POINTS", cap)
    out = tmp_path / "x.svg"
    assert run(capsys, "bundle", "--modulus", modulus, "--lambda-n", "3",
               "--max-denominator", "9", "--out", str(out)) == (
        2, "", f"error: scene of {modulus} scatter points exceeds the cap of "
               f"{render.MAX_SCENE_POINTS}\n"
    )
    assert not out.exists()


def test_bundle_out_over_the_scene_cap_refuses_before_matching(tmp_path, capsys, monkeypatch):
    # The scene cap sat in write_svg alone: this request matched 987,919 vertices
    # (3.9 s and 215 MB) before it was refused.
    forbid_first_work(monkeypatch)
    out = tmp_path / "x.svg"
    started = time.perf_counter()
    code, stdout, err = run(capsys, *bundle_argv(M40, 400, 180), "--out", str(out))
    assert time.perf_counter() - started < 1.0
    assert (code, stdout) == (2, "")
    assert err == f"error: scene of {M40} scatter points exceeds the cap of 1000000\n"
    assert not out.exists()


def test_bundle_over_the_member_cap_exits_2(tmp_path, capsys, monkeypatch):
    # F_9 has 151 members, which is also the overlay's marker count.
    argv = ["bundle", "--modulus", "20179", "--lambda-n", "3", "--out", str(tmp_path / "o.svg")]
    monkeypatch.setattr(cli, "MAX_MEMBERS", 151)
    code, _, err = run(capsys, *argv)
    assert (code, err.count("warning")) == (0, 22)
    monkeypatch.setattr(cli, "MAX_MEMBERS", 150)
    calls = count_calls(monkeypatch, patterns, "vertex_on_bundle")
    (tmp_path / "o.svg").unlink()
    assert run(capsys, *argv) == (2, "", "error: bundle exceeds the cap of 150 family members\n")
    assert calls[0] == 0 and not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("lambda_n, max_d", [("400", "200"), ("2", "1500"), ("9", str(10**11))])
def test_bundle_real_member_cap_refuses_at_once(capsys, monkeypatch, lambda_n, max_d):
    # Uncapped, 400/200 (1,362,855 members) took 13.9 s and 1.1 GB, and 2/1500
    # printed 684,180 warning lines.
    def forbidden(*args):
        raise AssertionError("vertex matched")

    monkeypatch.setattr(patterns, "vertex_on_bundle", forbidden)
    started = time.perf_counter()
    assert run(capsys, "bundle", "--modulus", str(M40), "--lambda-n", lambda_n,
               "--max-denominator", max_d) == (
        2, "", "error: bundle exceeds the cap of 1000000 family members\n"
    )
    assert time.perf_counter() - started < 1.0


# The arguments each subcommand needs, and every integer flag it declares.
REQUIRED = {
    "plot": {"--modulus": "20179", "--out": "x.pgm"},
    "grid": {"--modulus": "20179", "--size": "8", "--out": "x.pgm"},
    "predict": {"--modulus": "20179", "--max-denominator": "9"},
    "verify": {"--modulus": "20179", "--max-denominator": "9"},
    "equiv": {"--m1": "20179", "--m2": "20183"},
    "bundle": {"--modulus": "20179"},
}
INTEGER_FLAGS = [
    ("plot", "--modulus"), ("plot", "--width"), ("plot", "--height"),
    ("grid", "--modulus"), ("grid", "--size"),
    ("predict", "--modulus"), ("predict", "--max-denominator"),
    ("verify", "--modulus"), ("verify", "--max-denominator"), ("verify", "--window"),
    ("equiv", "--m1"), ("equiv", "--m2"), ("equiv", "--lambda-n"), ("equiv", "--max-denominator"),
    ("bundle", "--modulus"), ("bundle", "--lambda-n"), ("bundle", "--max-denominator"),
    ("bundle", "--width"), ("bundle", "--height"),
]


@pytest.mark.parametrize("command, flag", INTEGER_FLAGS,
                         ids=[" ".join(pair) for pair in INTEGER_FLAGS])
def test_integer_past_pythons_digit_limit_names_flag_and_limit(tmp_path, capsys, monkeypatch,
                                                               command, flag):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int-from-str conversion is unlimited here")
    monkeypatch.chdir(tmp_path)

    def refusal(value):
        argv = {**REQUIRED[command], flag: value}
        with pytest.raises(SystemExit) as exc:
            main([command, *(part for pair in argv.items() for part in pair)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        return err

    err = refusal("9" * (limit + 1))
    last = err.splitlines()[-1]
    assert last.startswith(f"qrpat {command}: error: argument {flag}: ")
    assert f"({limit} digits)" in last
    # argparse used to echo all of the digits back
    assert "9" * 64 not in err and len(err) < 500
    assert refusal("0").splitlines()[-1] == (
        f"qrpat {command}: error: argument {flag}: expected a positive integer, got 0"
    )
    assert not list(tmp_path.iterdir())


def test_overlong_fraction_names_the_limit_without_its_digits(capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int-from-str conversion is unlimited here")
    # 1/ and 5,000 nines wrote 5,202 bytes of stderr that repeated every digit
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--modulus", "20179", "--fraction", "1/" + "9" * (limit + 700)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    last = err.splitlines()[-1]
    assert last.startswith("qrpat predict: error: argument --fraction: cannot parse fraction: ")
    assert f"({limit} digits)" in last
    assert "9" * 64 not in err and len(err) < 500
    # a short malformed fraction is still echoed
    with pytest.raises(SystemExit):
        main(["predict", "--modulus", "20179", "--fraction", "1/x"])
    assert capsys.readouterr().err.splitlines()[-1] == (
        "qrpat predict: error: argument --fraction: cannot parse fraction '1/x'"
    )


def test_every_generated_request_keeps_the_exit_contract_in_time(monkeypatch):
    # Every cap at the differential's small value, so that a kind of work that no cap
    # bounds outlasts 500 ms.  The 1,000 requests take about 1.2 s in all.
    for name, value in differential.CAPS.items():
        for module in (cli, parabola, patterns, render):
            if name in vars(module):
                monkeypatch.setattr(module, name, value)
    for argv in differential.requests(2, 1000):
        started = time.perf_counter()
        answer = differential.answer(argv)
        seconds = time.perf_counter() - started
        assert differential.contract(argv, answer) and seconds < 0.5, (
            argv, seconds, answer["code"], answer["raised"], answer["stderr"][-500:])


def test_a_second_refusal_line_breaks_the_contract(monkeypatch):
    source, refusal = inspect.getsource(main), 'f"error: {exc}"'
    assert source.count(refusal) == 1
    namespace = dict(vars(cli))
    exec(source.replace(refusal, 'f"error: {exc}\\nsee --help"'), namespace)
    monkeypatch.setattr(cli, "main", namespace["main"])
    with pytest.raises(AssertionError, match="see --help"):
        test_every_generated_request_keeps_the_exit_contract_in_time(monkeypatch)


def test_python_dash_m_from_source_checkout():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def launch(*argv):
        return subprocess.run([sys.executable, "-m", "qrpat", *argv], env=env,
                              capture_output=True, text=True, timeout=60, check=False)

    ok = launch("predict", "--modulus", "997", "--fraction", "1/3", "--json")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["r0"] == 554
    bad = launch("verify", "--modulus", "81", "--max-denominator", "9")
    assert bad.returncode == 2
    assert "exceed" in bad.stderr


@pytest.mark.parametrize("sink, unbuffered", [(sink, unbuffered) for unbuffered in (False, True)
                                               for sink in ("/dev/full", "closed pipe")],
                         ids=["/dev/full", "closed pipe", "/dev/full-unbuffered",
                              "closed pipe-unbuffered"])
@pytest.mark.parametrize("argv", [
    ("equiv", "--m1", "20179", "--m2", "25219"),  # under stdout's buffer: written at exit
    ("predict", "--modulus", "20171", "--max-denominator", "60", "--json"),  # over it
    ("--help",),  # printed by argparse, which exits before any handler runs
    ("predict", "--help"),
], ids=["equiv", "predict-F60", "help", "predict-help"])
def test_block_buffered_stdout_failure_exits_3(argv, sink, unbuffered):
    # Unless PYTHONUNBUFFERED is set, a file or pipe stdout is block-buffered, so a short
    # answer first reached it in the interpreter's exit flush, outside main: that exited
    # 120 with an "Exception ignored" report, after main's own line for a long answer.
    # With it set, argparse wrote --help straight to stdout and dropped the error: exit 0.
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("no /dev/full")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if sink == "/dev/full":
        stdout = os.open(sink, os.O_WRONLY)
    else:
        unread, stdout = os.pipe()
        os.close(unread)
    try:
        child = subprocess.run([sys.executable, "-m", "qrpat", *argv], env=env, stdout=stdout,
                               stderr=subprocess.PIPE, text=True, timeout=60, check=False)
    finally:
        os.close(stdout)
    assert child.returncode == 3, child.stderr
    assert child.stderr.count("\n") == 1 and child.stderr.startswith("i/o error: ")


def _build_metadata_scripts(egg_base):
    """Console scripts in the metadata the build backend writes for an install.

    `egg_info` is the metadata command that needs neither `wheel` nor a
    network; the output goes to `egg_base` only, and the entry points are
    read from there alone, so an older copy of qrpat elsewhere on the path
    cannot answer for this checkout.
    """
    repo = Path(__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                    "-q", "egg_info", "--egg-base", str(egg_base)],
                   cwd=repo, capture_output=True, timeout=120, check=True)
    dists = list(distributions(path=[str(egg_base)]))
    assert [d.metadata["Name"] for d in dists] == ["qrpat"]
    return dists[0].entry_points.select(group="console_scripts")


def _installed(name):
    try:
        distribution(name)
    except PackageNotFoundError:
        return False
    return True


def test_console_script_installed(tmp_path):
    pytest.importorskip("setuptools")
    scripts = _build_metadata_scripts(tmp_path)
    assert [ep.name for ep in scripts] == ["qrpat"]
    assert scripts["qrpat"].load() is main


@pytest.mark.skipif(not _installed("qrpat"), reason="qrpat is not installed")
def test_installed_console_script_matches_build_metadata(tmp_path):
    pytest.importorskip("setuptools")
    installed = distribution("qrpat").entry_points.select(group="console_scripts")
    built = _build_metadata_scripts(tmp_path)
    assert ({ep.name: ep.value for ep in installed}
            == {ep.name: ep.value for ep in built})
