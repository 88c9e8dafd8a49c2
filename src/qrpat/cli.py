"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 I/O error.  Machine output is JSON with exact integers only; rational
values appear as numerator/denominator pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, lru_cache, partial
from itertools import starmap
from math import gcd, isqrt

from .parabola import (
    check_denominator,
    covering_members,
    family_structure,
    fraction_params,
    parabola_family,
    residues_near,
    stride,
    verify_identity,
)
from .patterns import bundle_matches, bundle_parameter, layouts_equivalent
from .render import overlay_predictions, render_scatter, render_sum_squares, write_pgm, write_svg
from .residues import ReducedFraction, check_modulus, farey_fractions, layout_period

# Most family members (b_prime per a/b) one predict, bundle or verify request builds.
# predict streams them, ~3.4 µs and 230 B of compact JSON each (~3.5 s and ~230 MB at
# the cap); bundle holds its whole answer, ~10 s and ~800 MB peak RSS near the cap;
# verify checks them, ~2.6 s with --window 1 and ~11 s by default (see README).
MAX_MEMBERS = 10**6
# Most oracle points one verify request checks (about 0.7 µs each, so ~7 s).
MAX_VERIFY_POINTS = 10**7


def _fraction_arg(text: str) -> ReducedFraction:
    try:
        return ReducedFraction.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        # int's message names Python's digit limit where argparse's would echo every digit
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_plot(args) -> int:
    canvas = render_scatter(args.modulus, args.width, args.height, args.half)
    write_pgm(canvas, args.out)
    return 0


def _cmd_grid(args) -> int:
    canvas = render_sum_squares(args.modulus, args.size)
    write_pgm(canvas, args.out)
    return 0


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms; taking num mod den first keeps the gcd small."""
    g = gcd(num % den, den)
    return num // g, den // g


def _predict_values(m: int, frac: ReducedFraction) -> tuple[int, ...]:
    """Every integer of the predict entry for a/b, in output order."""
    params = fraction_params(m, frac)
    members = parabola_family(params).members
    x_num, x_den = _reduced(frac.a * m, frac.b)
    A, bb = params.b_prime ** 2, frac.b ** 2
    values = [m, frac.a, frac.b, params.b_prime, params.c, params.alpha, params.beta,
              params.x0, params.r0]
    for p in members:
        values += (p.i, p.a_prime, x_num, x_den, *_reduced(p.h * m, bb))
    for p in members:
        values += (p.i, A, p.B, p.C)
    return tuple(values)


@lru_cache(maxsize=256)
def _predict_template(members: int, indented: bool, listed: bool) -> str:
    """The JSON of one predict entry with this many members, a %d per integer
    in the order _predict_values gives them.

    It is json.dumps of the entry's shape with "%d" for every value, so its
    layout is json's; %d writes an int as json does.  Listed entries sit one
    level deeper, which indents every line after the first two more spaces.
    """
    d = "%d"
    shape = {
        "modulus": d,
        "fraction": {"a": d, "b": d},
        **dict.fromkeys(("b_prime", "c", "alpha", "beta", "x0", "r0"), d),
        "vertices": [dict.fromkeys(("i", "a_prime", "x_num", "x_den", "y_num", "y_den"), d)]
        * members,
        "coefficients": [dict.fromkeys(("i", "A", "B", "C"), d)] * members,
    }
    if not indented:
        return json.dumps(shape, separators=(",", ":")).replace('"%d"', d)
    text = json.dumps(shape, indent=2).replace('"%d"', d)
    return text.replace("\n", "\n  ") if listed else text


def _farey_counts(max_d: int):
    """(b, the number of a/b in F_D) for b = 1..D: phi(b) by trial division,
    and 2 at b = 1 (0/1 and 1/1), so no F_D is built."""
    for b in range(1, max_d + 1):
        phi, n = b + (b == 1), b
        for p in range(2, isqrt(b) + 1):
            if n % p == 0:
                phi -= phi // p
                while n % p == 0:
                    n //= p
        yield b, phi - phi // n if n > 1 else phi


def _window(b: int, window: int | None) -> int:
    """The oracle half-width at denominator b: --window, or 3 * b_prime."""
    return window or 3 * stride(b)[0]


def _plan(command: str, m: int, b_max: int, fraction: ReducedFraction | None = None,
          window: int | None = None) -> None:
    """Refuse a predict, verify or bundle request before any work or output.

    In one order: the modulus; m > b_max^2; one b-by-b walk of F_D (or of
    the one fraction) counting members, b_prime per a/b, and verify's oracle
    points, which stops past MAX_VERIFY_POINTS or, for predict and bundle,
    past MAX_MEMBERS; the member cap; for predict, the digit bound b*b*m
    (y_num is at most h*m with h < b*b, and x_num at most a*m with a <= b).

    A window w lists min(w + 1, m) points at 0/1 and min(w, m) at 1/1, so
    b = 1 counts exactly min(2w + 1, 2m); at b >= 2 each a/b counts the
    bound min(2w + 1, m), exact unless a window reaches an end of the plot.
    """
    check_modulus(m)
    check_denominator(m, b_max)
    members = points = 0
    for b, count in _farey_counts(b_max) if fraction is None else [(b_max, 1)]:
        members += count * stride(b)[0]
        if command == "verify":
            w = 2 * _window(b, window) + 1
            points += min(w, 2 * m) if b == 1 else count * min(w, m)
            if points > MAX_VERIFY_POINTS:
                raise ValueError(f"verify windows reach {points} oracle points, "
                                 f"over the cap of {MAX_VERIFY_POINTS}")
        elif members > MAX_MEMBERS:
            break
    if members > MAX_MEMBERS:
        raise ValueError(f"{command} exceeds the cap of {MAX_MEMBERS} family members")
    # Python before 3.10.7 has no limit (0 means none); 2**(3*limit) < 10**limit.
    limit = getattr(sys, "get_int_max_str_digits", int)() if command == "predict" else 0
    largest = b_max * b_max * m
    if limit and largest.bit_length() > 3 * limit and largest >= 10**limit:
        raise ValueError(f"predict output can exceed Python's limit of {limit} digits per integer")


def _cmd_predict(args) -> int:
    """Write each fraction's entry as soon as its family is built, each
    filled by one % over its template; of F_D only the fractions are held."""
    if (args.fraction is None) == (args.max_denominator is None):
        raise ValueError("provide exactly one of --fraction or --max-denominator")
    m, fraction, indented = args.modulus, args.fraction, not args.json
    _plan("predict", m, args.max_denominator or fraction.b, fraction)
    listed = fraction is None
    write = sys.stdout.write
    if listed:
        write("[\n  " if indented else "[")
    for k, frac in enumerate(farey_fractions(args.max_denominator) if listed else [fraction]):
        values = _predict_values(m, frac)
        if k:
            write(",\n  " if indented else ",")
        write(_predict_template(stride(frac.b)[0], indented, listed) % values)
    if listed:
        write("\n]" if indented else "]")
    write("\n")
    return 0


def _fraction_checks(m: int, frac: ReducedFraction, window: int | None) -> tuple[bool, ...]:
    """(identity, family_structure, coverage) at a/b; its oracle list dies on return."""
    params = fraction_params(m, frac)
    family = parabola_family(params)
    points = residues_near(m, frac, _window(frac.b, window))
    # covering_members returns one (member, j) pair or [], so truth is "hit once".
    coverage = all(starmap(partial(covering_members, family), points))
    return verify_identity(params), family_structure(family), coverage


def _cmd_verify(args) -> int:
    """Check each a/b of F_D once, tallying each check's failures as it goes."""
    m, max_d = args.modulus, args.max_denominator
    _plan("verify", m, max_d, window=args.window)
    fractions = farey_fractions(max_d)
    failed = {"identity": [], "family_structure": [], "coverage": []}
    for frac in fractions:
        for name, passed in zip(failed, _fraction_checks(m, frac, args.window)):
            if not passed:
                failed[name].append(f"{frac}:{name}")
    failures = [failure for names in failed.values() for failure in names]
    _emit(
        {
            "modulus": m,
            "max_denominator": max_d,
            "window": args.window,
            "fractions_checked": len(fractions),
            "checks": {
                name: {"passed": len(fractions) - len(names), "failed": len(names)}
                for name, names in failed.items()
            },
            "failures": failures,
            "ok": not failures,
        }
    )
    return 1 if failures else 0


def _cmd_equiv(args) -> int:
    period = layout_period(args.lambda_n)
    result = layouts_equivalent(args.m1, args.m2, period, args.max_denominator)
    _emit(
        {
            "m1": args.m1,
            "m2": args.m2,
            "lambda_n": args.lambda_n,
            "lambda": period,
            "max_denominator": args.max_denominator,
            "equivalent": result.equivalent,
            "witness": None
            if result.witness is None
            else {"a": result.witness.a, "b": result.witness.b},
        }
    )
    return 0


def _cmd_bundle(args) -> int:
    """Match each covered vertex of F_D once, then write the SVG, the warnings and
    the JSON from those matches, so every refusal comes before any output."""
    period = layout_period(args.lambda_n)
    m, max_d = args.modulus, args.max_denominator
    _plan("bundle", m, max_d)
    matches = bundle_matches(m, period, max_d)
    if args.out:
        write_svg(overlay_predictions(m, period, matches, args.width, args.height), args.out)
    fractions, skipped = [], []
    for i, (frac, pairs) in enumerate(matches):
        matches[i] = None  # frees each pair list once its dict is built
        if pairs is None:
            print(
                f"warning: skipping {frac}: denominator {frac.b} is not covered "
                f"by period {period}",
                file=sys.stderr,
            )
            skipped.append({"a": frac.a, "b": frac.b})
            continue
        fractions.append(
            {"a": frac.a, "b": frac.b, "vertices": [{"k": k, "n": n} for k, n in pairs]}
        )
    _emit(
        {
            "modulus": m,
            "lambda_n": args.lambda_n,
            "lambda": period,
            "s": bundle_parameter(m, period),
            "max_denominator": max_d,
            "line_indices": sorted({v["n"] for f in fractions for v in f["vertices"]}),
            "fractions": fractions,
            "skipped": skipped,
        }
    )
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; the handlers look up what they call
    when they run, so a patched module name still takes effect."""
    parser = argparse.ArgumentParser(
        prog="qrpat",
        description="Predict, verify, and render the parabola patterns of "
        "quadratic-residue plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plot = sub.add_parser("plot", help="scatter plot of x*x mod m as a PGM image")
    plot.add_argument("--modulus", type=_positive_int, required=True)
    plot.add_argument("--width", type=_positive_int, default=800)
    plot.add_argument("--height", type=_positive_int, default=800)
    plot.add_argument(
        "--half",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="plot only 0 <= x < m/2 (the rest mirrors it); default on",
    )
    plot.add_argument("--out", required=True, help="output PGM path")
    plot.set_defaults(handler=_cmd_plot)

    grid = sub.add_parser("grid", help="grayscale grid of (x*x + y*y) mod m as PGM")
    grid.add_argument("--modulus", type=_positive_int, required=True)
    grid.add_argument("--size", type=_positive_int, required=True)
    grid.add_argument("--out", required=True, help="output PGM path")
    grid.set_defaults(handler=_cmd_grid)

    predict = sub.add_parser(
        "predict", help="exact family parameters and vertices as JSON"
    )
    predict.add_argument("--modulus", type=_positive_int, required=True)
    predict.add_argument("--fraction", type=_fraction_arg, help="anchor fraction a/b")
    predict.add_argument(
        "--max-denominator", type=_positive_int, help="predict every anchor up to this b"
    )
    predict.add_argument(
        "--json", action="store_true", help="compact single-line JSON (default is indented)"
    )
    predict.set_defaults(handler=_cmd_predict)

    verify = sub.add_parser(
        "verify", help="run the brute-force oracles against every predicted family"
    )
    verify.add_argument("--modulus", type=_positive_int, required=True)
    verify.add_argument("--max-denominator", type=_positive_int, required=True)
    verify.add_argument(
        "--window",
        type=_positive_int,
        help="half-width of the oracle window around each anchor "
        "(default: 3 * b_prime per fraction), clipped to the plot",
    )
    verify.set_defaults(handler=_cmd_verify)

    equiv = sub.add_parser(
        "equiv", help="compare the family layouts of two moduli"
    )
    equiv.add_argument("--m1", type=_positive_int, required=True)
    equiv.add_argument("--m2", type=_positive_int, required=True)
    equiv.add_argument("--lambda-n", type=_positive_int, default=9, dest="lambda_n")
    equiv.add_argument("--max-denominator", type=_positive_int, default=9)
    equiv.set_defaults(handler=_cmd_equiv)

    bundle = sub.add_parser(
        "bundle", help="match family vertices to the wrapped line bundle"
    )
    bundle.add_argument("--modulus", type=_positive_int, required=True)
    bundle.add_argument("--lambda-n", type=_positive_int, default=9, dest="lambda_n")
    bundle.add_argument("--max-denominator", type=_positive_int, default=9)
    bundle.add_argument("--out", default=None, help="optional SVG overlay path")
    bundle.add_argument("--width", type=_positive_int, default=800)
    bundle.add_argument("--height", type=_positive_int, default=800)
    bundle.set_defaults(handler=_cmd_bundle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
