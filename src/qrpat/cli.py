"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 I/O error.  Machine output is JSON with exact integers only; rational
values appear as numerator/denominator pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, lru_cache
from itertools import chain, islice, repeat
from math import gcd

from . import patterns, render
from .parabola import (ReducedFraction, anchor, canonical_offsets, check_denominator,
                       check_modulus, check_oracle_window, covering_members, family_rows,
                       family_structure, fraction_params, length_weight, parabola_family,
                       residues_near, stride, verify_identity)

# Most family members (b_prime per a/b) one predict, bundle or verify request builds.
# predict streams F_D and a single --fraction alike, a window at a time; the pins in
# tests/pins.py time each command near the cap (near-cap-predict, one-fraction-predict,
# near-cap-bundle, large-bundle-svg, near-cap-verify with --window 1) and bound its memory
# above the interpreter's floor.  verify with its default windows takes 4.0-6.7 s there
# split and 6.7-9.3 s on one CPU (2-CPU VM).
# _plan weighs each predict or verify member by m's length (parabola.length_weight).
MAX_MEMBERS = 10**6
# Most oracle points one verify checks, each also weighed by m's length.
MAX_VERIFY_POINTS = 10**7
_SPLIT_POINTS = 16_384  # fewest weighed oracle points a verify splits between two processes
# Vertex and coefficient items one % fills in a predict entry: an entry of up to
# _WINDOW // 2 members is one window, and a larger one is held a window at a time.
_WINDOW = 512
# A list as _cut cuts it: two marker items, so that its separator is written once.
_ITEMS = ["*", "*"]


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


def _cmd_plot(args) -> int:
    canvas = render.render_scatter(args.modulus, args.width, args.height, args.half)
    render.write_pgm(canvas, args.out)
    return 0


def _cmd_grid(args) -> int:
    render.write_pgm(render.render_sum_squares(args.modulus, args.size), args.out)
    return 0


def _write_predict_entry(write, m: int, frac: ReducedFraction, indented: bool,
                         listed: bool) -> None:
    """Write the predict entry for a/b: its b_prime vertex items, then its b_prime
    coefficient items, _WINDOW items to a window, each window filled by one % over its
    template from the ``family_rows`` rows of its slice of the offsets.
    With g = gcd(m, b*b) and k = gcd(h, b*b/g), the ordinate h*m/b^2 in lowest terms
    is (h/k * m/g) / (b*b/g/k), since m/g and b*b/g are coprime: one big gcd per
    fraction, a small one per member.  As a/b is reduced, the abscissa a*m/b reduces
    by gcd(m, b)."""
    params = fraction_params(m, frac)
    a, b = frac
    gx, g = gcd(m, b), gcd(m, b * b)
    x_num, x_den = str(a * m // gx), b // gx  # formatted once, as A is: a %s each
    b_prime = params.b_prime
    m_g, bb_g, A = m // g, b * b // g, str(b_prime ** 2)
    offsets, items = canonical_offsets(b_prime), 2 * b_prime
    for lo in range(0, items, _WINDOW):
        hi = min(lo + _WINDOW, items)
        vertex_at = offsets[lo:hi]
        # a window that is the whole entry reads one set of rows for both parts
        coefficient_at = (offsets[max(lo - b_prime, 0):max(hi - b_prime, 0)]
                          if lo or hi < items else vertex_at)
        rows = family_rows(params, vertex_at)
        values = [] if lo else [m, a, b, *params[2:]]  # b_prime, c, alpha, beta, x0, r0
        for i, a_prime, _, _, h in rows:
            k = gcd(h, bb_g)
            values += (i, a_prime, x_num, x_den, h // k * m_g, bb_g // k)
        if coefficient_at is not vertex_at:
            rows = family_rows(params, coefficient_at)
        for i, _, B, C, _ in rows:
            values += (i, A, B, C)
        if lo:
            _, sep, turn, coefficient_sep = _predict_parts(indented, listed)[:4]
            write(sep if lo < b_prime else turn if lo == b_prime else coefficient_sep)
        write(_predict_template(indented, listed, not lo, len(vertex_at), len(coefficient_at),
                                hi == items) % tuple(values))


def _cut(shape, indented: bool, depth: int = 0) -> list[str]:
    """json.dumps of shape, compact or indented as an entry of a list depth lists deep,
    each "%d" and "%s" left bare so that one % fills in ints as json writes them (a %s
    takes one formatted already), cut at each "*" item: a list that holds _ITEMS gives its
    opening text (the end of one part), its separator (a part) and its closing text."""
    text = (json.dumps(shape, indent=2).replace("\n", "\n" + "  " * depth) if indented
            else json.dumps(shape, separators=(",", ":")))
    return text.replace('"%d"', "%d").replace('"%s"', "%s").split('"*"')


@cache
def _predict_parts(indented: bool, listed: bool) -> list[str]:
    """[head, separator, turn, separator, tail, vertex, coefficient, opening, separator,
    closing]: one predict entry's JSON around and between its items, a %d per integer
    (a %s for x_num and A), then one vertex item and one coefficient item, then what
    F_D's list writes before, between and after its entries ("" for an entry that is not
    listed).  The head runs up to the first vertex, the turn from the last vertex to the
    first coefficient, the tail from the last coefficient."""
    d = "%d"
    vertex = {"i": d, "a_prime": d, "x_num": "%s", "x_den": d, "y_num": d, "y_den": d}
    coefficient = {"i": d, "A": "%s", "B": d, "C": d}
    shape = {
        "modulus": d,
        "fraction": {"a": d, "b": d},
        **dict.fromkeys(("b_prime", "c", "alpha", "beta", "x0", "r0"), d),
        "vertices": _ITEMS,
        "coefficients": _ITEMS,
    }
    items = [_cut(item, indented, listed + 2)[0] for item in (vertex, coefficient)]
    return [*_cut(shape, indented, listed), *items,
            *(_cut(_ITEMS, indented) if listed else ["", "", ""])]


@lru_cache(maxsize=256)
def _predict_template(indented: bool, listed: bool, opens: bool, vertices: int,
                      coefficients: int, closes: bool) -> str:
    """One window of a predict entry: this many vertex items, then this many
    coefficient items, a %d per integer in the order _write_predict_entry fills them,
    after the entry's head if the window opens it, before its tail if it closes it."""
    parts = _predict_parts(indented, listed)
    head, sep, turn, coefficient_sep, tail, vertex, coefficient = parts[:7]
    return "".join([head if opens else "", sep.join([vertex] * vertices),
                    turn if vertices and coefficients else "",
                    coefficient_sep.join([coefficient] * coefficients), tail if closes else ""])


@cache
def _bundle_parts(skips: bool) -> list[str]:
    """[head, separator, turn, separator, tail, (separator, closing,) skipped]: bundle's
    JSON, a %d per integer, around and between the entries of "line_indices", of
    "fractions" and, if skips, of "skipped" (the tail then opens it and the closing
    closes it), then the template of one "skipped" entry."""
    shape = {**dict.fromkeys(("modulus", "lambda_n", "lambda", "s", "max_denominator"), "%d"),
             "line_indices": _ITEMS, "fractions": _ITEMS, "skipped": _ITEMS * skips}
    return [*_cut(shape, True), *_cut({"a": "%d", "b": "%d"}, True, 2)]


@lru_cache(maxsize=256)
def _bundle_template(members: int) -> str:
    """The JSON of one covered bundle fraction with this many vertices, as an
    entry of "fractions": a %d for a, b and each vertex's n; k is its position."""
    shape = {"a": "%d", "b": "%d", "vertices": [{"k": k, "n": "%d"} for k in range(members)]}
    return _cut(shape, True, 2)[0]


def _window(b: int, window: int | None) -> int:
    """The oracle half-width at denominator b: --window, or 3 * b_prime."""
    return window or 3 * stride(b)[0]


def _plan(command: str, m: int, b_max: int, fraction: ReducedFraction | None = None,
          window: int | None = None) -> int | tuple[int, int] | list[ReducedFraction]:
    """Refuse a predict, verify or bundle request before any work or output; else
    return, once every check has passed, how many fractions it planned (predict), that
    and its oracle points at m's weight (verify), or bundle's F_D in (b, a) order.

    In one order: the modulus; m > b_max^2; then one walk over b = 1..b_max,
    the a/b at each b being those with gcd(a, b) == 1 (0/1 and 1/1 at b = 1),
    or over the one fraction.  At each b it checks each of verify's windows, clipped
    by check_oracle_window, against MAX_ORACLE_POINTS (which bounds the sum it prints
    next), then their oracle points, each at m's weight, against MAX_VERIFY_POINTS,
    then the members, b_prime per a/b (at m's weight for predict and verify), against
    MAX_MEMBERS.  Last, for predict, the digit bound b*b*m (y_num is at most h*m with
    h < b*b, and x_num at most a*m with a <= b).  Only bundle's numerators are kept.
    """
    check_modulus(m)
    check_denominator(m, b_max)
    planned, members, points, walked = 0, 0, 0, []
    point_weight = max(length_weight(m, 300, 1), length_weight(m, 550))  # 1 below 2^299
    member_weight = 1 if command == "bundle" else length_weight(
        m, 1200 if command == "predict" else 1024)  # 1 below 2^1199 or 2^1023
    walk = ((b, [a for a in range(b + 1) if gcd(a, b) == 1]) for b in range(1, b_max + 1))
    for b, numerators in walk if fraction is None else [(fraction.b, [fraction.a])]:
        planned += len(numerators)
        members += len(numerators) * stride(b)[0]
        if command == "verify":
            w = _window(b, window)
            for a in numerators:
                lo, hi = check_oracle_window(m, anchor(m, a, b), w)
                points += hi - lo + 1
            if points * point_weight > MAX_VERIFY_POINTS:
                each = f" at {point_weight} each" if point_weight > 1 else ""
                raise ValueError(f"verify windows reach {points} oracle points{each}, "
                                 f"over the cap of {MAX_VERIFY_POINTS}")
        if members * member_weight > MAX_MEMBERS:
            each = f" at {member_weight} each" if member_weight > 1 else ""
            raise ValueError(f"{command} exceeds the cap of {MAX_MEMBERS} family members{each}")
        if command == "bundle":
            walked.append((b, numerators))
    # Python before 3.10.7 has no limit (0 means none); 2**(3*limit) < 10**limit.
    limit = getattr(sys, "get_int_max_str_digits", int)() if command == "predict" else 0
    largest = b_max * b_max * m
    if limit and largest.bit_length() > 3 * limit and largest >= 10**limit:
        raise ValueError(f"predict output can exceed Python's limit of {limit} digits per integer")
    if command != "bundle":
        return (planned, points * point_weight) if command == "verify" else planned
    return [ReducedFraction(a, b) for b, numerators in walked for a in numerators]


def _farey(b_max: int):
    """F_D, D = b_max, in increasing order, by the next-term rule (Hardy & Wright,
    ch. III): after neighbours a/b < c/d comes (k*c - a)/(k*d - b), k = (D + b) // d,
    from 0/1 and 1/D through 1/1, so that only two fractions are held."""
    a, b, c, d = 0, 1, 1, b_max
    while a <= b:
        yield ReducedFraction(a, b)
        k = (b_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def _cmd_predict(args) -> int:
    """Write the one fraction, or each of F_D in increasing order, window by window of
    its entry (see _write_predict_entry); of F_D only two fractions and one window are held."""
    m, fraction, indented = args.modulus, args.fraction, not args.json
    b_max = args.max_denominator or fraction.b
    _plan("predict", m, b_max, fraction)
    listed = fraction is None
    fractions = _farey(b_max) if listed else [fraction]
    opening, sep, closing = _predict_parts(indented, listed)[7:]
    write = sys.stdout.write
    for k, frac in enumerate(fractions):
        write(sep if k else opening)
        _write_predict_entry(write, m, frac, indented, listed)
    write(closing + "\n")
    return 0


def _fraction_checks(m: int, frac: ReducedFraction, window: int | None) -> tuple[bool, ...]:
    """(identity, family_structure, coverage) at a/b.  The oracle window is read once,
    each point squared as covering_members takes it, so no list of points is held."""
    params = fraction_params(m, frac)
    family = parabola_family(params)
    points = residues_near(m, frac, _window(frac.b, window))
    # covering_members returns one (member, j) pair or [], so truth is "hit once".
    coverage = all(map(covering_members, repeat(family), points.xs, points.residues()))
    return verify_identity(params), family_structure(family), coverage


def _failures(m: int, max_d: int, window: int | None, checked: int, points: int) -> dict:
    """Each check's failures over F_D in increasing order.  From _SPLIT_POINTS oracle points
    on (as _plan weighs them) a forked child may check F_D's upper half: as a/b -> (b - a)/b
    maps F_D onto itself, its windows match.  The child exits 1 at its half's first failure,
    so that this process checks that half again after its own; else the half passed."""
    failed = {"identity": [], "family_structure": [], "coverage": []}
    def check(part: range, child: bool) -> None:
        for frac in islice(_farey(max_d), part.start, part.stop):
            for (name, names), passed in zip(failed.items(), _fraction_checks(m, frac, window)):
                if not passed:
                    if child:
                        raise SystemExit(1)
                    names.append(f"{frac}:{name}")
    mid = checked // 2 if points >= _SPLIT_POINTS else checked  # else no upper half
    render._two_processes(check, range(mid), range(mid, checked))
    return failed


def _cmd_verify(args) -> int:
    """Check F_D by _failures, then write the report."""
    m, max_d = args.modulus, args.max_denominator
    checked, points = _plan("verify", m, max_d, window=args.window)
    failed = _failures(m, max_d, args.window, checked, points)
    failures = [failure for names in failed.values() for failure in names]
    print(json.dumps({
        "modulus": m,
        "max_denominator": max_d,
        "window": args.window,
        "fractions_checked": checked,
        "checks": {
            name: {"passed": checked - len(names), "failed": len(names)}
            for name, names in failed.items()
        },
        "failures": failures,
        "ok": not failures,
    }, indent=2))
    return 1 if failures else 0


def _cmd_equiv(args) -> int:
    period = patterns.layout_period(args.lambda_n)
    result = patterns.layouts_equivalent(args.m1, args.m2, period, args.max_denominator)
    print(json.dumps({
        "m1": args.m1,
        "m2": args.m2,
        "lambda_n": args.lambda_n,
        "lambda": period,
        "max_denominator": args.max_denominator,
        "equivalent": result.equivalent,
        "witness": None
        if result.witness is None
        else {"a": result.witness.a, "b": result.witness.b},
    }, indent=2))
    return 0


def _cmd_bundle(args) -> int:
    """Write the SVG, the warnings in one write and the JSON's head, then each covered
    fraction of the plan's F_D, in its (b, a) order, as its vertices are matched, then
    the tail.  A covered fraction's n are canonical_offsets(b_prime), so the head's line
    indices are those of the widest covered b_prime and the Scene's curves run -n..n, n
    the largest.  Each part is filled by one % over a template, and of the matches only
    the fraction being written is held.  Every refusal comes before any work or output."""
    period = patterns.layout_period(args.lambda_n)
    m, max_d = args.modulus, args.max_denominator
    fractions = _plan("bundle", m, max_d)
    if args.out:
        render.check_scene(m)
        render.check_canvas(args.width, args.height)
    s = patterns.bundle_parameter(m, period)
    covers = {b for b in range(1, max_d + 1) if patterns.covered(b, period)}
    # b = 1 is always covered, so neither "line_indices" nor "fractions" is ever "[]".
    lines = canonical_offsets(max(stride(b)[0] for b in covers))
    if args.out:
        curves = range(-lines[-1], lines[-1] + 1)
        render.write_svg(render.Scene(args.width, args.height, m, s, curves, tuple(fractions)),
                         args.out)
    skipped = [(frac.a, frac.b) for frac in fractions if frac.b not in covers]
    sys.stderr.write("".join(f"warning: skipping {a}/{b}: denominator {b} is not covered "
                             f"by period {period}\n" for a, b in skipped))
    head, line_sep, turn, sep, tail, *skip_parts, skip = _bundle_parts(bool(skipped))
    write = sys.stdout.write
    write((head + line_sep.join(["%d"] * len(lines)) + turn)
          % (m, args.lambda_n, period, s, max_d, *lines))
    for k, frac in enumerate(frac for frac in fractions if frac.b in covers):
        ns = patterns.vertex_on_bundle(m, period, frac, s)
        write((sep if k else "") + _bundle_template(len(ns)) % (frac.a, frac.b, *ns))
    if skipped:
        skip_sep, closing = skip_parts
        tail += skip_sep.join([skip] * len(skipped)) + closing
    write(tail % tuple(chain.from_iterable(skipped)) + "\n")
    return 0


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, sized from the terminal only as it formats: argparse makes
    one in every add_argument, and sizing imports shutil (with bz2, lzma and fnmatch)."""

    def format_help(self):
        sized = argparse.HelpFormatter(self._prog)
        self._width, self._max_help_position = sized._width, sized._max_help_position
        return super().format_help()


class _Parser(argparse.ArgumentParser):
    def _get_formatter(self):
        return _Formatter(self.prog, width=80)  # a stand-in: format_help sizes it

    def _print_message(self, message, file=None):
        if file is not sys.stdout:  # argparse drops a failed write; --help's reaches main
            return super()._print_message(message, file)
        file.write(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (its subparsers share its class) without
    formatting text, as the subcommands' prog is given.  The handlers look up what they
    call as they run, so a patched name takes effect: here for parabola's, else its own."""
    parser = _Parser(prog="qrpat", description="Predict, verify, and render the parabola "
                     "patterns of quadratic-residue plots.")
    sub = parser.add_subparsers(dest="command", required=True, prog="qrpat")

    plot = sub.add_parser("plot", help="scatter plot of x*x mod m as a PGM image")
    plot.add_argument("--modulus", type=_positive_int, required=True)
    plot.add_argument("--width", type=_positive_int, default=800)
    plot.add_argument("--height", type=_positive_int, default=800)
    plot.add_argument("--half", action=argparse.BooleanOptionalAction, default=True,
                      help="plot only 0 <= x < m/2 (the rest mirrors it); default on")
    plot.add_argument("--out", required=True, help="output PGM path")
    plot.set_defaults(handler=_cmd_plot)

    grid = sub.add_parser("grid", help="grayscale grid of (x*x + y*y) mod m as PGM")
    grid.add_argument("--modulus", type=_positive_int, required=True)
    grid.add_argument("--size", type=_positive_int, required=True)
    grid.add_argument("--out", required=True, help="output PGM path")
    grid.set_defaults(handler=_cmd_grid)

    predict = sub.add_parser("predict", help="exact family parameters and vertices as JSON")
    predict.add_argument("--modulus", type=_positive_int, required=True)
    anchors = predict.add_mutually_exclusive_group(required=True)
    anchors.add_argument("--fraction", type=_fraction_arg, help="anchor fraction a/b")
    anchors.add_argument("--max-denominator", type=_positive_int,
                         help="predict every anchor up to this b")
    predict.add_argument("--json", action="store_true",
                         help="compact single-line JSON (default is indented)")
    predict.set_defaults(handler=_cmd_predict)

    verify = sub.add_parser("verify",
                            help="run the brute-force oracles against every predicted family")
    verify.add_argument("--modulus", type=_positive_int, required=True)
    verify.add_argument("--max-denominator", type=_positive_int, required=True)
    verify.add_argument("--window", type=_positive_int,
                        help="half-width of the oracle window around each anchor "
                        "(default: 3 * b_prime per fraction), clipped to the plot")
    verify.set_defaults(handler=_cmd_verify)

    equiv = sub.add_parser("equiv", help="compare the family layouts of two moduli")
    equiv.add_argument("--m1", type=_positive_int, required=True)
    equiv.add_argument("--m2", type=_positive_int, required=True)
    equiv.add_argument("--lambda-n", type=_positive_int, default=9)
    equiv.add_argument("--max-denominator", type=_positive_int, default=9)
    equiv.set_defaults(handler=_cmd_equiv)

    bundle = sub.add_parser("bundle", help="match family vertices to the wrapped line bundle")
    bundle.add_argument("--modulus", type=_positive_int, required=True)
    bundle.add_argument("--lambda-n", type=_positive_int, default=9)
    bundle.add_argument("--max-denominator", type=_positive_int, default=9)
    bundle.add_argument("--out", default=None, help="optional SVG overlay path")
    bundle.add_argument("--width", type=_positive_int, default=800)
    bundle.add_argument("--height", type=_positive_int, default=800)
    bundle.set_defaults(handler=_cmd_bundle)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            return args.handler(args)
        finally:  # a file or pipe fails here, --help's text too, not in the exit flush
            sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # what stdout still holds goes nowhere, so the exit flush cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
