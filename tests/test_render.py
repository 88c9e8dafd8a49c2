"""Tests for the deterministic PGM/SVG renderers."""

import hashlib
import math
import re
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from qrpat import render
from qrpat import (
    BundleCurve,
    Canvas,
    ReducedFraction,
    Scene,
    bundle_matches,
    bundle_parameter,
    farey_fractions,
    fraction_params,
    layout_period,
    overlay_predictions,
    render_scatter,
    render_sum_squares,
    sample_bundle_curve,
    write_pgm,
    write_svg,
)

# Locked at the first verified build; any byte change in the renderers
# must be deliberate and re-locked.
GOLDEN_PLOT_20171 = "04c9a8845a373c41a3c23508bb5bc3ed17d136bdfe5d47aa69273a2d254cd1dd"
GOLDEN_GRID_415 = "63377b669e2929b855a64d58a4a56fa758b12187a55a19d0c8c10c0fcd683413"
# The overlay of bundle_matches(20179, 5040, 9) on 800x800, written by write_svg.
GOLDEN_SVG_20179 = "9ce0d1c0539ff8f200b65582828d7085eb830c7d90fc5960802b47f4cee9b73f"

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the generated-input property below is skipped
    given = None


def read_pgm(path):
    """The Canvas in a PGM that write_pgm wrote; the header must be its P5 and
    maxval 255, and Canvas refuses a payload of the wrong length."""
    magic, size, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
    assert (magic, maxval) == (b"P5", b"255")
    width, height = map(int, size.split(b" "))
    return Canvas(width, height, bytearray(payload))


def black_pixels(canvas):
    return {
        (col, row)
        for row in range(canvas.height)
        for col in range(canvas.width)
        if canvas.pixels[row * canvas.width + col] == 0
    }


def test_scatter_tiny_modulus_exact_pixels():
    canvas = render_scatter(4, 16, 16, half_range=False)
    expected = set()
    for x in range(4):
        r = x * x % 4
        expected.add((x * 16 // 4, 16 - 1 - r * 16 // 4))
    assert expected == {(0, 15), (4, 11), (8, 15), (12, 11)}
    assert black_pixels(canvas) == expected


def test_scatter_half_range_points():
    m = 101
    canvas = render_scatter(m, 64, 64, half_range=True)
    expected = {
        (x * 128 // m, 63 - (x * x % m) * 64 // m) for x in range(51)
    }
    assert black_pixels(canvas) == expected


def test_scatter_full_range_matches_definition():
    m = 211
    canvas = render_scatter(m, 32, 32, half_range=False)
    expected = {(x * 32 // m, 31 - (x * x % m) * 32 // m) for x in range(m)}
    assert black_pixels(canvas) == expected


def test_scatter_deterministic():
    a = render_scatter(977, 64, 64)
    b = render_scatter(977, 64, 64)
    assert a == b


def test_scatter_rejects_degenerate_canvas():
    with pytest.raises(ValueError):
        render_scatter(101, 8, 64)
    with pytest.raises(ValueError):
        render_scatter(101, 64, 15)


def test_grid_two_by_two():
    canvas = render_sum_squares(2, 2)
    assert list(canvas.pixels) == [0, 255, 255, 0]


def test_grid_values_match_definition():
    m, size = 415, 37
    canvas = render_sum_squares(m, size)
    for row in range(size):
        for col in range(size):
            x = col * m // size
            y = row * m // size
            assert canvas.pixels[row * size + col] == (x * x + y * y) % m * 255 // (m - 1)


def test_grid_symmetric():
    canvas = render_sum_squares(415, 83)
    for row in range(83):
        for col in range(83):
            assert canvas.pixels[row * 83 + col] == canvas.pixels[col * 83 + row]


def reference_scatter(m, width, height, half_range):
    """The per-point scatter loop: one column, row and index per x."""
    pixels = bytearray([255]) * (width * height)
    xs, x_scale = (range((m + 1) // 2), 2 * width) if half_range else (range(m), width)
    for x in xs:
        r = x * x % m
        col = x * x_scale // m
        row = height - 1 - r * height // m
        pixels[row * width + col] = 0
    return pixels


def reference_sum_squares(m, size):
    """The per-cell grid loop over unreduced squares."""
    pixels = bytearray(size * size)
    squares = [(u * m // size) ** 2 for u in range(size)]
    for row in range(size):
        for col in range(size):
            pixels[row * size + col] = (squares[col] + squares[row]) % m * 255 // (m - 1)
    return pixels


# m < width leaves empty columns; 1600 and 3200 put column boundaries
# exactly on an x for the 800- and 16-wide canvases (gcd(m, x_scale) > 1);
# 320000 is dense and opens every column of the 640- and 800-wide canvases
# with an edge point (m divides x*width).  801x33 has a dense middle column,
# which is its own mirror twin.
@pytest.mark.parametrize("m", [2, 3, 4, 17, 1600, 3200, 20171, 100003, 320000])
@pytest.mark.parametrize(
    "width, height", [(16, 16), (17, 1000), (640, 480), (800, 800), (801, 33)]
)
@pytest.mark.parametrize("half_range", [True, False])
def test_scatter_matches_per_point_reference(m, width, height, half_range):
    canvas = render_scatter(m, width, height, half_range)
    assert canvas.pixels == reference_scatter(m, width, height, half_range)


@pytest.mark.parametrize("m", [2, 7, 415, 1000, 999331])
@pytest.mark.parametrize("size", [2, 3, 64, 415, 500])
def test_grid_matches_per_cell_reference(m, size):
    assert render_sum_squares(m, size).pixels == reference_sum_squares(m, size)


@pytest.mark.skipif(given is None, reason="hypothesis is not installed")
def test_renderers_match_references_on_generated_inputs():
    sides = st.integers(16, 300)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10**5), sides, sides, st.booleans())
    def check(m, width, height, half_range):
        canvas = render_scatter(m, width, height, half_range)
        assert canvas.pixels == reference_scatter(m, width, height, half_range)
        assert render_sum_squares(m, width).pixels == reference_sum_squares(m, width)

    # m = k*width + delta makes many x with m | x*width (the full-range
    # mirror's edge points) or puts column boundaries next to them.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), sides, sides, st.sampled_from((-1, 0, 1)))
    def check_edges(k, width, height, delta):
        m = max(2, k * width + delta)
        for half_range in (True, False):
            canvas = render_scatter(m, width, height, half_range)
            assert canvas.pixels == reference_scatter(m, width, height, half_range)

    check()
    check_edges()


def test_canvas_pixel_cap(monkeypatch):
    monkeypatch.setattr(render, "MAX_PIXELS", 16 * 20)
    assert len(render_scatter(101, 16, 20).pixels) == 320
    with pytest.raises(ValueError, match="canvas of 336 pixels exceeds the cap of 320"):
        render_scatter(101, 16, 21)
    with pytest.raises(ValueError, match="canvas of 324 pixels exceeds the cap of 320"):
        render_sum_squares(101, 18)


def test_canvas_rejects_a_buffer_of_the_wrong_length():
    with pytest.raises(ValueError, match="^pixel buffer of 3 bytes does not match 2x2$"):
        Canvas(2, 2, bytearray(3))


def test_grid_rejects_tiny_size():
    with pytest.raises(ValueError):
        render_sum_squares(415, 1)


def test_write_pgm_exact_bytes(tmp_path):
    path = tmp_path / "two.pgm"
    write_pgm(Canvas(2, 1, bytearray([0, 255])), path)
    assert path.read_bytes() == b"P5\n2 1\n255\n\x00\xff"


def test_write_pgm_makes_no_copy_of_the_pixels(tmp_path):
    canvas = Canvas.blank(800, 800)
    tracemalloc.start()
    try:
        write_pgm(canvas, tmp_path / "big.pgm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(canvas.pixels) // 4
    assert (tmp_path / "big.pgm").read_bytes().endswith(canvas.pixels)


def test_pgm_round_trip(tmp_path):
    canvas = render_scatter(211, 32, 32, half_range=False)
    path = tmp_path / "rt.pgm"
    write_pgm(canvas, path)
    assert read_pgm(path) == canvas


def test_pgm_golden_hashes(tmp_path):
    plot_path = tmp_path / "plot.pgm"
    write_pgm(render_scatter(20171, 800, 800, half_range=True), plot_path)
    assert hashlib.sha256(plot_path.read_bytes()).hexdigest() == GOLDEN_PLOT_20171

    grid_path = tmp_path / "grid.pgm"
    write_pgm(render_sum_squares(415, 415), grid_path)
    assert hashlib.sha256(grid_path.read_bytes()).hexdigest() == GOLDEN_GRID_415


def reference_curve_segments(s, n, samples):
    """Segments of Y = (2nX - sX^2) mod 1 sampled in Fraction arithmetic."""
    segments, current, prev_level = [], [], None
    for t in range(samples + 1):
        x = Fraction(t, samples)
        g = 2 * n * x - s * x * x
        level = math.floor(g)
        if prev_level is not None and level != prev_level and current:
            segments.append(tuple(current))
            current = []
        current.append((float(x), float(g - level)))
        prev_level = level
    if current:
        segments.append(tuple(current))
    return tuple(segments)


@pytest.mark.parametrize("samples", [1, 2, 7, 512, 1024])
def test_sample_curve_matches_fraction_reference(samples):
    for s in (-2519, -1, 0, 1, 7, 2520):
        for n in range(-12, 13):
            expected = reference_curve_segments(s, n, samples)
            assert sample_bundle_curve(s, n, samples).segments == expected, (s, n)


def test_sample_curve_segments_stay_inside_unit_band():
    curve = sample_bundle_curve(19, -2, samples=512)
    assert sum(len(seg) for seg in curve.segments) == 513
    for segment in curve.segments:
        for x, y in segment:
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y < 1.0


def test_sample_curve_degenerate_line():
    # s = 0 reduces the curve to straight wrapped lines Y = 2nX mod 1
    curve = sample_bundle_curve(0, 1, samples=512)
    points = [pt for segment in curve.segments for pt in segment]
    assert len(points) == 513
    for x, y in points:
        t = round(x * 512)
        assert y == float(2 * Fraction(t, 512) % 1)
    # slope 2 wraps at X = 1/2 and again exactly at X = 1
    assert len(curve.segments) == 3


def circles(path):
    return re.findall(rb"<circle [^\n]*\n", path.read_bytes())


def test_overlay_markers_and_curves(tmp_path):
    m, max_d, period = 20179, 9, 5040
    matches = list(bundle_matches(m, period, max_d))
    scene = overlay_predictions(m, period, matches, 800, 800)
    assert (scene.modulus, scene.s) == (m, bundle_parameter(m, period))
    assert scene.fractions == tuple(sorted(farey_fractions(max_d), key=ReducedFraction.sort_key))
    matched = {n for _, ns in matches for n in ns or ()}
    n_max = max(map(abs, matched))
    # every line a vertex was matched to has its curve drawn, and no other
    assert scene.lines == range(-n_max, n_max + 1) and set(scene.lines) == matched
    # one circle per vertex, in (b, a, k) order, at (beta'/b^2 + k/b_prime) mod 1
    expected = []
    for frac in scene.fractions:
        params = fraction_params(m, frac)
        beta_prime = params.beta % (params.c * frac.b)
        for k in range(params.b_prime):
            y = (Fraction(beta_prime, frac.b**2) + Fraction(k, params.b_prime)) % 1
            expected.append(b'<circle cx="%.6f" cy="%.6f" r="3"/>\n'
                            % (frac.a / frac.b * 800, (1.0 - float(y)) * 800))
    path = tmp_path / "o.svg"
    write_svg(scene, path)
    assert circles(path) == expected


def test_overlay_degenerate_bundle_is_straight():
    # m a multiple of the period gives s = 0: every curve is the wrapped
    # straight line Y = 2nX mod 1 through the rational vertices
    scene = overlay_predictions(25200, 5040, bundle_matches(25200, 5040, 3), 640, 640)
    assert scene.s == 0 and len(scene.lines) > 1
    samples = 1024
    for curve in (sample_bundle_curve(scene.s, n) for n in scene.lines):
        for segment in curve.segments:
            for x, y in segment:
                t = round(x * samples)
                assert y == float(2 * curve.n * Fraction(t, samples) % 1)


def test_overlay_smallest_denominators_only(tmp_path):
    scene = overlay_predictions(977, 5040, bundle_matches(977, 5040, 1), 640, 640)
    assert scene.fractions == (ReducedFraction(0, 1), ReducedFraction(1, 1))
    path = tmp_path / "o.svg"
    write_svg(scene, path)
    assert circles(path) == [b'<circle cx="0.000000" cy="640.000000" r="3"/>\n',
                             b'<circle cx="640.000000" cy="640.000000" r="3"/>\n']


def test_overlay_rejects_small_modulus():
    with pytest.raises(ValueError):
        overlay_predictions(80, 5040, bundle_matches(80, 5040, 9), 640, 640)


def test_svg_empty_scene_is_valid(tmp_path):
    path = tmp_path / "empty.svg"
    write_svg(Scene(64, 64), path)
    text = path.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    assert path.read_bytes() == reference_svg(Scene(64, 64))


def test_svg_deterministic_bytes(tmp_path):
    scene = overlay_predictions(415, 24, bundle_matches(415, 24, 4), 320, 320)
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    write_svg(scene, first)
    write_svg(scene, second)
    assert first.read_bytes() == second.read_bytes()


def test_svg_element_order_and_precision(tmp_path):
    scene = overlay_predictions(415, 24, bundle_matches(415, 24, 3), 320, 320)
    path = tmp_path / "o.svg"
    write_svg(scene, path)
    text = path.read_text()
    assert text.index('<path d="M') < text.index("<polyline") < text.index("<circle")
    # every emitted coordinate carries exactly six decimals
    for value in re.findall(r'c?[xy]1?="([-0-9.]+)"', text):
        if "." in value:
            assert len(value.split(".")[1]) == 6


def test_svg_golden_hash(tmp_path):
    path = tmp_path / "overlay.svg"
    write_svg(overlay_predictions(20179, 5040, bundle_matches(20179, 5040, 9), 800, 800), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SVG_20179


def _fmt(value):
    return f"{value:.6f}"


def reference_polylines(curve, width, height):
    """The <polyline> elements of one curve, one f-string call per coordinate."""
    elements = []
    for segment in curve.segments:
        if len(segment) < 2:
            continue
        coords = " ".join(f"{_fmt(x * width)},{_fmt((1.0 - y) * height)}" for x, y in segment)
        elements.append(f'<polyline points="{coords}"/>')
    return elements


def reference_squares(m, width, height):
    """The path data "M x y h1v1h-1z" of each scatter square x in [0, m), in x order,
    from the point (x/m, (x*x mod m)/m) with one f-string call per coordinate."""
    points = [(x / m, x * x % m / m) for x in range(m)]
    return [f"M{_fmt(x * width)} {_fmt((1.0 - y) * height - 1.0)}h1v1h-1z" for x, y in points]


def reference_svg(scene):
    """The per-point writer: lists the m scatter squares (one <path> per CHUNK),
    samples every curve and takes every vertex height from fraction_params
    before it writes, then formats each coordinate with its own f-string call."""
    width, height, m = scene.width, scene.height, scene.modulus
    squares = reference_squares(m, width, height)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        '<g fill="black">',
    ]
    for lo in range(0, m, CHUNK):
        parts.append(f'<path d="{"".join(squares[lo:lo + CHUNK])}"/>')
    parts.append("</g>")
    parts.append('<g fill="none" stroke="#1f77b4" stroke-width="0.75">')
    for n in scene.lines:
        parts.extend(reference_polylines(sample_bundle_curve(scene.s, n), width, height))
    parts.append("</g>")
    parts.append('<g fill="none" stroke="#d62728">')
    for frac in scene.fractions:
        params = fraction_params(m, frac)
        step = params.c * frac.b
        for k in range(params.b_prime):
            y = (params.beta % step + k * step) / frac.b**2
            parts.append(
                f'<circle cx="{_fmt(frac.a / frac.b * width)}" cy="{_fmt((1.0 - y) * height)}" '
                'r="3"/>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def svg_bytes(scene, tmp_path):
    path = tmp_path / "scene.svg"
    write_svg(scene, path)
    return path.read_bytes()


SVG_SIZES = [(16, 16), (17, 1000), (640, 480), (800, 800), (801, 33)]


# Odd and even m; 320000 is a multiple of the 640- and 800-wide canvases.  The rest
# sit at the scatter's chunk edges: one chunk less one square, one chunk, one more,
# and 2*CHUNK - 2 and - 1 (whose first mirrored x, m // 2 + 1, opens the second
# chunk), 2*CHUNK and 2*CHUNK + 1 (whose first mirrored x is one past that edge).
CHUNK = render._CHUNK


@pytest.mark.parametrize("m", [2, 3, 4, 5, 415, 20179, 320000, CHUNK - 1, CHUNK, CHUNK + 1,
                               2 * CHUNK - 2, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1])
@pytest.mark.parametrize("width, height", SVG_SIZES)
def test_svg_scatter_matches_per_point_reference(m, width, height, tmp_path):
    scene = Scene(width, height, m)
    assert svg_bytes(scene, tmp_path) == reference_svg(scene)


# m = k*width +- 1 puts x*width/m just off an integer for many x.
@pytest.mark.parametrize("k", [1, 2, 25])
@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("width, height", SVG_SIZES)
def test_svg_scatter_next_to_width_multiples(k, delta, width, height, tmp_path):
    scene = Scene(width, height, k * width + delta)
    assert svg_bytes(scene, tmp_path) == reference_svg(scene)


# The held ordinates are fields of len("%.6f" % height) + 2 bytes: the heights where
# that length steps (9 -> 10, 99 -> 100), and height 1, whose ordinates all lie in
# (-1, 0] and so fill all but one byte of the field with a minus sign.
@pytest.mark.parametrize("height", [1, 9, 10, 99, 100, 1000])
@pytest.mark.parametrize("m", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK,
                               2 * CHUNK + 1])
def test_svg_scatter_ordinate_block_widths_match_reference(m, height, tmp_path):
    scene = Scene(37, height, m)
    assert svg_bytes(scene, tmp_path) == reference_svg(scene)


@pytest.mark.parametrize("m, width, height", [(2, 16, 16), (415, 640, 480), (20179, 800, 800),
                                              (2 * CHUNK + 1, 801, 33)])
def test_svg_scatter_parses_to_each_square_of_x_squared(m, width, height, tmp_path):
    # Read back with ElementTree, not compared with the reference's scatter bytes:
    # ceil(m / CHUNK) paths whose data splits into exactly the m squares, in x order.
    scene = Scene(width, height, m, 7, range(-1, 2), tuple(farey_fractions(1)))
    data = svg_bytes(scene, tmp_path)
    black = ET.fromstring(data).find("svg:g[@fill='black']",
                                     {"svg": "http://www.w3.org/2000/svg"})
    assert [child.tag for child in black] == ["{http://www.w3.org/2000/svg}path"] * -(-m // CHUNK)
    d = "".join(path.get("d") for path in black)
    squares = re.findall(r"M(\S+) (\S+)h1v1h-1z", d)
    assert "".join(f"M{x} {y}h1v1h-1z" for x, y in squares) == d
    assert squares == [(f"{x / m * width:.6f}", f"{(1 - x * x % m / m) * height - 1:.6f}")
                       for x in range(m)]
    curves, reference = b'</g>\n<g fill="none" stroke="#1f77b4"', reference_svg(scene)
    assert data[data.index(curves):] == reference[reference.index(curves):]


def formatted_polylines(curve, width, height):
    return render._polylines(curve, width, height).decode().splitlines()


def test_svg_overlay_and_one_point_segments_match_reference(tmp_path):
    scene = overlay_predictions(20179, 5040, bundle_matches(20179, 5040, 9), 800, 800)
    assert svg_bytes(scene, tmp_path) == reference_svg(scene)
    assert svg_bytes(scene._replace(modulus=0, fractions=()), tmp_path) == reference_svg(
        scene._replace(modulus=0, fractions=()))
    # Two samples of a steep curve wrap at every step: one-point segments
    # only, so no polyline is drawn, and a lone point between longer ones.
    steep = sample_bundle_curve(7, 40, samples=2)
    assert steep.segments and all(len(seg) == 1 for seg in steep.segments)
    assert formatted_polylines(steep, 800, 800) == reference_polylines(steep, 800, 800) == []
    mixed = BundleCurve(-1, (((0.0, 0.25),), ((0.5, 0.0), (0.75, 0.5)), ((1.0, 0.125),)))
    assert formatted_polylines(mixed, 640, 480) == reference_polylines(mixed, 640, 480) == [
        '<polyline points="320.000000,480.000000 480.000000,240.000000"/>']


def test_svg_overlay_with_skipped_fractions_matches_reference(tmp_path):
    # Period 5040 skips b = 11: its circles are drawn all the same.  s = -13 makes
    # the nine curves wrap 10 to 22 times over the non-square canvas.
    matches = list(bundle_matches(10067, 5040, 11))
    scene = overlay_predictions(10067, 5040, matches, 320, 240)
    assert [frac.b for frac, ns in matches if ns is None] == [11] * 10
    assert (scene.s, scene.lines, len(scene.fractions)) == (-13, range(-4, 5), 43)
    assert [len(sample_bundle_curve(-13, n).segments) for n in (-4, 4)] == [10, 22]
    assert svg_bytes(scene, tmp_path) == reference_svg(scene)


@pytest.mark.skipif(given is None, reason="hypothesis is not installed")
def test_svg_writer_matches_reference_on_generated_scenes(tmp_path):
    sides = st.integers(16, 900)

    @st.composite
    def scenes(draw):
        m = draw(st.just(0) | st.integers(2, 5000))
        # vertices need m > b*b; F_9 holds every fraction drawn
        fractions = farey_fractions(min(9, math.isqrt(m - 1))) if m > 1 else []
        lo = draw(st.integers(-6, 6))
        return Scene(draw(sides), draw(sides), m, draw(st.integers(-50, 50)),
                     range(lo, lo + draw(st.integers(0, 3))),
                     tuple(draw(st.lists(st.sampled_from(fractions), max_size=6)))
                     if fractions else ())

    @settings(max_examples=60, deadline=None)
    @given(scenes())
    def check(scene):
        assert svg_bytes(scene, tmp_path) == reference_svg(scene)

    @settings(max_examples=60, deadline=None)
    @given(st.builds(sample_bundle_curve, st.integers(-50, 50), st.integers(-6, 6),
                     st.integers(1, 40)), sides, sides)
    def check_curve(curve, width, height):
        assert formatted_polylines(curve, width, height) == reference_polylines(
            curve, width, height)

    check()
    check_curve()


def svg_peak(scene_of, path):
    """tracemalloc's peak while scene_of() builds a scene and write_svg writes it."""
    tracemalloc.start()
    try:
        write_svg(scene_of(), path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_svg_writer_memory_stays_near_the_file_size(tmp_path):
    path = tmp_path / "overlay.svg"
    peak = svg_peak(lambda: overlay_predictions(20179, 5040, bundle_matches(20179, 5040, 9),
                                                800, 800), path)
    # The per-point scene and writer peaked at 6.2 times the file, and formatting
    # the whole file before opening it at 3.7 times.
    assert peak < 1.5 * path.stat().st_size


def test_svg_writer_memory_with_many_vertices_stays_under_the_file_size(tmp_path):
    # 36,709 vertices over F_60: one marker record per vertex peaked at 8.2 times the file.
    path = tmp_path / "markers.svg"
    period = layout_period(400)
    peak = svg_peak(lambda: overlay_predictions(20179, period, bundle_matches(20179, period, 60),
                                                800, 800), path)
    assert peak < path.stat().st_size


def test_svg_scatter_memory_stays_under_the_file_size(tmp_path):
    # One % over all 320,000 squares peaked at 3.4 times the file; the <path> form with
    # the held ordinates as a list of 160,001 bytes objects at 0.92 times.  As one block
    # of fixed-width fields they take 12 bytes each.
    path = tmp_path / "scatter.svg"
    peak = svg_peak(lambda: Scene(800, 800, 320000), path)
    assert peak < 0.5 * path.stat().st_size


def test_svg_writer_refuses_a_scene_over_the_cap_before_opening(tmp_path, monkeypatch):
    # The cap sat in overlay_predictions, so a scene built by hand went unchecked.
    path = tmp_path / "big.svg"
    started = time.perf_counter()
    message = r"^scene of 1000000000 scatter points exceeds the cap of 1000000$"
    with pytest.raises(ValueError, match=message):
        write_svg(Scene(64, 64, 10**9), path)
    assert time.perf_counter() - started < 1.0
    assert not path.exists()
    # a vertex needs m > b*b, checked before the file is opened too
    with pytest.raises(ValueError, match=r"^modulus 80 must exceed 9\^2 = 81$"):
        write_svg(Scene(64, 64, 80, fractions=(ReducedFraction(1, 3), ReducedFraction(1, 9))),
                  path)
    assert not path.exists()
    monkeypatch.setattr(render, "MAX_SCENE_POINTS", 415)
    write_svg(Scene(64, 64, 415), path)
    assert path.read_bytes() == reference_svg(Scene(64, 64, 415))
    path.unlink()
    with pytest.raises(ValueError, match="scene of 416 scatter points exceeds the cap of 415"):
        write_svg(Scene(64, 64, 416), path)
    assert not path.exists()


@pytest.mark.parametrize("m", [-5, 1])
def test_svg_writer_refuses_a_modulus_below_2_before_opening(m, tmp_path):
    # Scene(64, 64, -5) wrote zero squares and Scene(64, 64, 1) one, while
    # render_scatter refused both; 0 alone means no scatter.
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match=rf"^modulus must be an integer >= 2, got {m}$"):
        write_svg(Scene(64, 64, m), path)
    assert not path.exists()


def test_refused_svg_formats_no_curve_or_marker(tmp_path, monkeypatch):
    # The scatter, and so its cap, came after every polyline and circle was formatted;
    # now no curve is sampled and no vertex height taken before the cap either.
    def formatted(*args):
        raise AssertionError("a curve or marker was computed before the scene cap")

    scene = overlay_predictions(20179, 5040, bundle_matches(20179, 5040, 9), 800, 800)
    assert scene.lines and scene.fractions
    for name in ("_scatter", "_polylines", "sample_bundle_curve", "vertex_heights"):
        monkeypatch.setattr(render, name, formatted)
    monkeypatch.setattr(render, "MAX_SCENE_POINTS", 20178)
    path = tmp_path / "x.svg"
    message = "^scene of 20179 scatter points exceeds the cap of 20178$"
    with pytest.raises(ValueError, match=message):
        write_svg(scene, path)
    assert not path.exists()


def test_svg_io_error_reports_path():
    scene = Scene(64, 64)
    with pytest.raises(OSError):
        write_svg(scene, "/nonexistent-dir/out.svg")
