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
from itertools import chain, starmap, takewhile
from math import gcd, isqrt

from .parabola import (
    anchor,
    check_denominator,
    check_oracle_window,
    covering_members,
    family_rows,
    family_structure,
    fraction_params,
    parabola_family,
    residues_near,
    stride,
    verify_identity,
)
from .patterns import bundle_matches, bundle_parameter, layouts_equivalent
from .render import (check_scene, overlay_predictions, render_scatter, render_sum_squares,
                     write_pgm, write_svg)
from .residues import ReducedFraction, check_modulus, farey_fractions, layout_period

# Most family members (b_prime per a/b) one predict, bundle or verify request builds.
# predict streams them from member rows, ~3.2 µs and 228 B of compact JSON each (~3.1 s,
# 225 MB of JSON and 17 MB peak RSS near the cap); bundle, ~1 s and ~26 MB peak RSS, and
# with --out at m = 999983 (a 77 MB SVG) ~2.0-2.5 s and 36 MB; verify checks them, ~2.6 s
# with --window 1 and ~11 s by default (see README).
MAX_MEMBERS = 10**6
# Most oracle points one verify checks: ~1.2 µs each at 7 digits, ~1.5 µs at 40 (see README).
MAX_VERIFY_POINTS = 10**7
# What json.dumps(indent=2) writes between two entries of a top-level field's list.
_ENTRY_SEP = ",\n    "


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


def _predict_values(m: int, frac: ReducedFraction) -> tuple[int, ...]:
    """Every integer of the predict entry for a/b, in output order, from the
    rows of ``family_rows``.  With g = gcd(m, b*b) and k = gcd(h, b*b/g), the
    ordinate h*m/b^2 in lowest terms is (h/k * m/g) / (b*b/g/k), since m/g and
    b*b/g are coprime: one big gcd per fraction, a small one per member.  As
    a/b is reduced, the abscissa a*m/b reduces by gcd(m, b)."""
    params = fraction_params(m, frac)
    a, b = frac
    gx, g = gcd(m, b), gcd(m, b * b)
    x_num, x_den = a * m // gx, b // gx
    m_g, bb_g, A = m // g, b * b // g, params.b_prime ** 2
    rows = family_rows(params)
    values = [m, a, b, params.b_prime, params.c, params.alpha, params.beta, params.x0, params.r0]
    for i, a_prime, _, _, h in rows:
        k = gcd(h, bb_g)
        values += (i, a_prime, x_num, x_den, h // k * m_g, bb_g // k)
    for i, _, B, C, _ in rows:
        values += (i, A, B, C)
    return tuple(values)


def _json_template(shape, indented: bool, depth: int) -> str:
    """json.dumps of shape with each "%d" left bare, so one % fills in ints as json
    writes them; indented, laid out as an entry of a list depth lists deep."""
    if not indented:
        return json.dumps(shape, separators=(",", ":")).replace('"%d"', "%d")
    return json.dumps(shape, indent=2).replace('"%d"', "%d").replace("\n", "\n" + "  " * depth)


@lru_cache(maxsize=256)
def _predict_template(members: int, indented: bool, listed: bool) -> str:
    """The JSON of one predict entry with this many members, a %d per integer
    in the order _predict_values gives them; listed entries sit in the list."""
    d = "%d"
    shape = {
        "modulus": d,
        "fraction": {"a": d, "b": d},
        **dict.fromkeys(("b_prime", "c", "alpha", "beta", "x0", "r0"), d),
        "vertices": [dict.fromkeys(("i", "a_prime", "x_num", "x_den", "y_num", "y_den"), d)]
        * members,
        "coefficients": [dict.fromkeys(("i", "A", "B", "C"), d)] * members,
    }
    return _json_template(shape, indented, listed)


@lru_cache(maxsize=256)
def _bundle_template(members: int) -> str:
    """The JSON of one covered bundle fraction with this many vertices, as an
    entry of "fractions": a %d for a, b and each vertex's n; k is its position."""
    shape = {"a": "%d", "b": "%d", "vertices": [{"k": k, "n": "%d"} for k in range(members)]}
    return _json_template(shape, True, 2)


@cache
def _bundle_frame(skips: bool) -> tuple[str, str, str]:
    """bundle's JSON around "fractions"' entries, "skipped" holding entries or not:
    the head with a %d per field and a %s for "line_indices"' entries, the
    template of one "skipped" entry, and the tail with a %s for those entries."""
    shape = {**dict.fromkeys(("modulus", "lambda_n", "lambda", "s", "max_denominator"), "%d"),
             "line_indices": ["%s"], "fractions": [None], "skipped": ["%s"] * skips}
    head, tail = _json_template(shape, True, 0).replace('"%s"', "%s").split("null")
    return head, _json_template({"a": "%d", "b": "%d"}, True, 2), tail


def _entries(entry: str, count: int, values) -> str:
    """count entries of one template as a top-level field's list holds them, filled by one %."""
    return _ENTRY_SEP.join([entry] * count) % tuple(values)


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


def _clipped_windows(m: int, b: int, count: int, w: int) -> tuple[int, int]:
    """(points, widest) of the oracle windows of the count a/b of F_D at b.

    Window a/b lists min(x0 + w, m - 1) - max(0, x0 - w) + 1 points, x0 =
    ``anchor(m, a, b)``.  Only the a/b with x0 within w of 0 or of m are walked,
    in from each end (gcd(a, b) == 1 keeps 0/1 and 1/1 at b = 1); the rest
    list 2w + 1 each.
    """
    def x0(a):
        return anchor(m, a, b)

    low = list(takewhile(lambda a: x0(a) < w, range(b + 1)))
    high = takewhile(lambda a: x0(a) + w >= m, range(b, len(low) - 1, -1))
    sizes = [min(x0(a) + w, m - 1) - max(0, x0(a) - w) + 1
             for a in (*low, *high) if gcd(a, b) == 1]
    rest = count - len(sizes)
    return sum(sizes) + rest * (2 * w + 1), 2 * w + 1 if rest else max(sizes)


def _plan(command: str, m: int, b_max: int, fraction: ReducedFraction | None = None,
          window: int | None = None) -> None:
    """Refuse a predict, verify or bundle request before any work or output.

    In one order: the modulus; m > b_max^2; one b-by-b walk of F_D (or of
    the one fraction) counting members, b_prime per a/b, and for verify the
    exact oracle points (``_clipped_windows``) against MAX_VERIFY_POINTS,
    then the widest window at b against MAX_ORACLE_POINTS (predict and
    bundle stop past MAX_MEMBERS); the member cap; for predict, the digit
    bound b*b*m (y_num is at most h*m with h < b*b, and x_num at most a*m
    with a <= b).
    """
    check_modulus(m)
    check_denominator(m, b_max)
    members = points = 0
    for b, count in _farey_counts(b_max) if fraction is None else [(b_max, 1)]:
        members += count * stride(b)[0]
        if command == "verify":
            at_b, widest = _clipped_windows(m, b, count, _window(b, window))
            points += at_b
            if points > MAX_VERIFY_POINTS:
                raise ValueError(f"verify windows reach {points} oracle points, "
                                 f"over the cap of {MAX_VERIFY_POINTS}")
            check_oracle_window(widest)
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
    """Match each covered vertex of F_D once, holding only its line index n;
    from those matches write the SVG, the warnings in one write, then the JSON's
    head with its line indices, each covered fraction and the skipped ones, each
    by one % over a template.  Every refusal comes before any work or output."""
    period = layout_period(args.lambda_n)
    m, max_d = args.modulus, args.max_denominator
    _plan("bundle", m, max_d)
    if args.out:
        check_scene(m)
    matches = list(bundle_matches(m, period, max_d))
    if args.out:
        write_svg(overlay_predictions(m, period, matches, args.width, args.height), args.out)
    skipped = [(frac.a, frac.b) for frac, ns in matches if ns is None]
    sys.stderr.write("".join(f"warning: skipping {a}/{b}: denominator {b} is not covered "
                             f"by period {period}\n" for a, b in skipped))
    # b = 1 is always covered, so neither "line_indices" nor "fractions" is ever "[]".
    lines = sorted(set().union(*(ns for _, ns in matches if ns)))
    head, skip, tail = _bundle_frame(bool(skipped))
    write = sys.stdout.write
    write(head % (m, args.lambda_n, period, bundle_parameter(m, period), max_d,
                  _entries("%d", len(lines), lines)))
    for k, (frac, ns) in enumerate((frac, ns) for frac, ns in matches if ns is not None):
        write((_ENTRY_SEP if k else "") + _bundle_template(len(ns)) % (frac.a, frac.b, *ns))
    if skipped:
        tail %= _entries(skip, len(skipped), chain.from_iterable(skipped))
    write(tail + "\n")
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
