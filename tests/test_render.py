"""Tests for the deterministic PGM/SVG renderers."""

import hashlib
import math
import os
import re
import signal
import threading
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
    bundle_parameter,
    covered,
    fraction_params,
    render_scatter,
    render_sum_squares,
    sample_bundle_curve,
    vertex_on_bundle,
    write_pgm,
    write_svg,
)
from qrpat.cli import main
from test_farey import farey

# Locked at the first verified build; any byte change in the renderers
# must be deliberate and re-locked.
GOLDEN_PLOT_20171 = "04c9a8845a373c41a3c23508bb5bc3ed17d136bdfe5d47aa69273a2d254cd1dd"
GOLDEN_GRID_415 = "63377b669e2929b855a64d58a4a56fa758b12187a55a19d0c8c10c0fcd683413"
# write_svg of SCENE_20179, the scene of `qrpat bundle --modulus 20179 --out`.
GOLDEN_SVG_20179 = "9ce0d1c0539ff8f200b65582828d7085eb830c7d90fc5960802b47f4cee9b73f"

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the generated-input property below is skipped
    given = None


def by_denominator(max_d):
    """F_D in (b, a) order, the order bundle draws its fractions in."""
    return tuple(sorted(farey(max_d), key=lambda f: (f.b, f.a)))


# The default bundle at m = 20179 on 800x800: period 5040, so s = 20179 - 4*5040 = 19,
# and F_9's vertices lie on the lines -4..4.
SCENE_20179 = Scene(800, 800, 20179, 19, range(-4, 5), by_denominator(9))


def traced_peak(fn):
    """(fn(), tracemalloc's peak while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
SCATTER_MODULI = [2, 3, 4, 17, 1600, 3200, 20171, 100003, 320000]
SCATTER_SIZES = [(16, 16), (17, 1000), (640, 480), (800, 800), (801, 33)]


@pytest.mark.parametrize("m", SCATTER_MODULI)
@pytest.mark.parametrize("width, height", SCATTER_SIZES)
@pytest.mark.parametrize("half_range", [True, False])
def test_scatter_matches_per_point_reference(m, width, height, half_range):
    canvas = render_scatter(m, width, height, half_range)
    assert canvas.pixels == reference_scatter(m, width, height, half_range)


@pytest.fixture
def split(monkeypatch):
    """render_scatter made to split every scatter, as on two CPUs; each call checks that
    it forked once and that no child of this process is left."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    fork, forks = os.fork, []
    monkeypatch.setattr(render, "_SPLIT_SQUARES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(pid) or fork())
    pid = os.getpid()

    def draw(m, width, height, half_range=True):
        before = len(forks)
        canvas = render_scatter(m, width, height, half_range)
        assert len(forks) == before + 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return canvas
    return draw


@pytest.mark.parametrize("m", SCATTER_MODULI)
@pytest.mark.parametrize("width, height", SCATTER_SIZES)
@pytest.mark.parametrize("half_range", [True, False])
def test_split_scatter_matches_per_point_reference(m, width, height, half_range, split):
    canvas = split(m, width, height, half_range)
    assert canvas.pixels == reference_scatter(m, width, height, half_range)


def test_split_scatter_gives_the_golden_plot(split, tmp_path):
    path = tmp_path / "plot.pgm"
    write_pgm(split(20171, 800, 800), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_PLOT_20171


# A child that raises exits 1; with SIGCHLD ignored its status is lost.  Either way this
# process draws the child's columns again, over what the child drew.
@pytest.mark.parametrize("failure", ["raise", "ignore SIGCHLD"])
@pytest.mark.parametrize("m, width, height", [(320000, 800, 800), (100003, 801, 33),
                                              (20171, 17, 1000)])
@pytest.mark.parametrize("half_range", [True, False])
def test_split_scatter_survives_a_failed_child(failure, m, width, height, half_range, split,
                                               monkeypatch, request):
    columns, pid, drawn = render._columns, os.getpid(), []

    def draw(*args):
        if os.getpid() == pid:
            drawn.append(args[-1])
        elif failure == "raise":
            raise RuntimeError("the child fails")
        columns(*args)
    monkeypatch.setattr(render, "_columns", draw)
    if failure == "ignore SIGCHLD":
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        request.addfinalizer(lambda: signal.signal(signal.SIGCHLD, previous))
    canvas = split(m, width, height, half_range)
    assert canvas.pixels == reference_scatter(m, width, height, half_range)
    columns = (width + 1) // 2 if not half_range else width
    assert drawn == [range(columns // 2), range(columns // 2, columns)]


def test_split_scatter_draws_every_column_when_fork_fails(split, monkeypatch):
    def fork():
        raise BlockingIOError("no process to spare")
    monkeypatch.setattr(os, "fork", fork)
    for half_range in (True, False):
        canvas = render_scatter(320000, 801, 33, half_range)
        assert canvas.pixels == reference_scatter(320000, 801, 33, half_range)


def test_scatter_never_forks_on_one_cpu_or_beside_a_thread(monkeypatch):
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(render, "_SPLIT_SQUARES", 1)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    reference = reference_scatter(20171, 800, 800, False)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert render_scatter(20171, 800, 800, False).pixels == reference
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    second = threading.Thread(target=release.wait)
    second.start()
    try:
        assert render_scatter(20171, 800, 800, False).pixels == reference
    finally:
        release.set()
        second.join(timeout=10)
    assert not second.is_alive()


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
    with pytest.raises(ValueError, match="^canvas of 16x21 pixels exceeds the cap of 320$"):
        render_scatter(101, 16, 21)
    with pytest.raises(ValueError, match="^canvas of 18x18 pixels exceeds the cap of 320$"):
        render_sum_squares(101, 18)


def test_canvas_rejects_a_buffer_of_the_wrong_length():
    for size in (3, 5):
        with pytest.raises(ValueError, match=f"^pixel buffer of {size} bytes does not match 2x2$"):
            Canvas(2, 2, bytearray(size))


def test_grid_rejects_tiny_size():
    with pytest.raises(ValueError):
        render_sum_squares(415, 1)


def test_write_pgm_exact_bytes(tmp_path):
    path = tmp_path / "two.pgm"
    write_pgm(Canvas(2, 1, bytearray([0, 255])), path)
    assert path.read_bytes() == b"P5\n2 1\n255\n\x00\xff"


def test_write_pgm_makes_no_copy_of_the_pixels(tmp_path):
    canvas = Canvas.blank(800, 800)
    _, peak = traced_peak(lambda: write_pgm(canvas, tmp_path / "big.pgm"))
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
def test_sample_curve_matches_fraction_reference(samples, monkeypatch):
    monkeypatch.setattr(render, "CURVE_SAMPLES", samples)
    for s in (-2519, -1, 0, 1, 7, 2520):
        for n in range(-12, 13):
            expected = reference_curve_segments(s, n, samples)
            assert sample_bundle_curve(s, n).segments == expected, (s, n)


def test_sample_curve_segments_stay_inside_unit_band(monkeypatch):
    monkeypatch.setattr(render, "CURVE_SAMPLES", 512)
    curve = sample_bundle_curve(19, -2)
    assert sum(len(seg) for seg in curve.segments) == 513
    for segment in curve.segments:
        for x, y in segment:
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y < 1.0


def test_sample_curve_degenerate_line(monkeypatch):
    # s = 0 reduces the curve to straight wrapped lines Y = 2nX mod 1
    monkeypatch.setattr(render, "CURVE_SAMPLES", 512)
    curve = sample_bundle_curve(0, 1)
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
    m, period, scene = 20179, 5040, SCENE_20179
    assert scene.s == bundle_parameter(m, period)
    # every line a vertex was matched to has its curve drawn, and no other
    assert set(scene.lines) == {n for frac in scene.fractions if covered(frac.b, period)
                                for n in vertex_on_bundle(m, period, frac, scene.s)}
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
    scene = Scene(640, 640, 25200, 0, range(-1, 2), by_denominator(3))
    assert bundle_parameter(25200, 5040) == 0
    samples = 1024
    for curve in (sample_bundle_curve(scene.s, n) for n in scene.lines):
        for segment in curve.segments:
            for x, y in segment:
                t = round(x * samples)
                assert y == float(2 * curve.n * Fraction(t, samples) % 1)


def test_overlay_smallest_denominators_only(tmp_path, capsys):
    path = tmp_path / "o.svg"
    assert main(["bundle", "--modulus", "977", "--max-denominator", "1", "--width", "640",
                 "--height", "640", "--out", str(path)]) == 0
    assert circles(path) == [b'<circle cx="0.000000" cy="640.000000" r="3"/>\n',
                             b'<circle cx="640.000000" cy="640.000000" r="3"/>\n']


def test_overlay_rejects_small_modulus(tmp_path, capsys):
    path = tmp_path / "o.svg"
    assert main(["bundle", "--modulus", "80", "--max-denominator", "9", "--out", str(path)]) == 2
    assert capsys.readouterr().err == "error: modulus 80 must exceed 9^2\n"
    assert not path.exists()


def test_svg_deterministic_bytes(tmp_path):
    scene = Scene(320, 320, 415, 7, range(-1, 2), by_denominator(4))
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    write_svg(scene, first)
    write_svg(scene, second)
    assert first.read_bytes() == second.read_bytes()


def test_svg_element_order_and_precision(tmp_path):
    scene = Scene(320, 320, 415, 7, range(-1, 2), by_denominator(3))
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
    write_svg(SCENE_20179, path)
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
# sit at the scatter's <path> edges: one chunk less one square, one chunk, one more,
# and 2*CHUNK - 2 and - 1 (whose first mirrored x, m // 2 + 1, opens the second
# chunk), 2*CHUNK and 2*CHUNK + 1 (whose first mirrored x is one past that edge);
# and at its fill-part edges inside the first <path>: FILL - 1, FILL, FILL + 1 and
# 2*FILL - 1 (whose first mirrored x, FILL, opens the second part).
CHUNK, FILL = render._CHUNK, render._FILL


@pytest.mark.parametrize("m", [2, 3, 4, 5, 415, 20179, 320000, CHUNK - 1, CHUNK, CHUNK + 1,
                               2 * CHUNK - 2, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
                               FILL - 1, FILL, FILL + 1, 2 * FILL - 1])
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
    scene = Scene(width, height, m, 7, range(-1, 2), tuple(farey(1)))
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


def test_svg_overlay_and_one_point_segments_match_reference(tmp_path, monkeypatch):
    scene = SCENE_20179
    assert svg_bytes(scene, tmp_path) == reference_svg(scene)
    # Two samples of a steep curve wrap at every step: one-point segments
    # only, so no polyline is drawn, and a lone point between longer ones.
    monkeypatch.setattr(render, "CURVE_SAMPLES", 2)
    steep = sample_bundle_curve(7, 40)
    assert steep.segments and all(len(seg) == 1 for seg in steep.segments)
    assert formatted_polylines(steep, 800, 800) == reference_polylines(steep, 800, 800) == []
    mixed = BundleCurve(-1, (((0.0, 0.25),), ((0.5, 0.0), (0.75, 0.5)), ((1.0, 0.125),)))
    assert formatted_polylines(mixed, 640, 480) == reference_polylines(mixed, 640, 480) == [
        '<polyline points="320.000000,480.000000 480.000000,240.000000"/>']


def test_svg_overlay_with_skipped_fractions_matches_reference(tmp_path):
    # Period 5040 skips b = 11: its circles are drawn all the same.  s = -13 makes
    # the nine curves wrap 10 to 22 times over the non-square canvas.
    scene = Scene(320, 240, 10067, -13, range(-4, 5), by_denominator(11))
    assert [frac.b for frac in scene.fractions if not covered(frac.b, 5040)] == [11] * 10
    assert len(scene.fractions) == 43
    assert [len(sample_bundle_curve(-13, n).segments) for n in (-4, 4)] == [10, 22]
    assert svg_bytes(scene, tmp_path) == reference_svg(scene)


@pytest.mark.skipif(given is None, reason="hypothesis is not installed")
def test_svg_writer_matches_reference_on_generated_scenes(tmp_path):
    sides = st.integers(16, 900)

    @st.composite
    def scenes(draw):
        m = draw(st.integers(2, 5000))
        # vertices need m > b*b; F_9 holds every fraction drawn
        fractions = farey(min(9, math.isqrt(m - 1)))
        lo = draw(st.integers(-6, 6))
        return Scene(draw(sides), draw(sides), m, draw(st.integers(-50, 50)),
                     range(lo, lo + draw(st.integers(0, 3))),
                     tuple(draw(st.lists(st.sampled_from(fractions), max_size=6))))

    @settings(max_examples=60, deadline=None)
    @given(scenes())
    def check(scene):
        assert svg_bytes(scene, tmp_path) == reference_svg(scene)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-50, 50), st.integers(-6, 6), st.integers(1, 40), sides, sides)
    def check_curve(s, n, samples, width, height):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(render, "CURVE_SAMPLES", samples)
            curve = sample_bundle_curve(s, n)
        assert formatted_polylines(curve, width, height) == reference_polylines(
            curve, width, height)

    check()
    check_curve()


def svg_peak(scene_of, path):
    """tracemalloc's peak while scene_of() builds a scene and write_svg writes it."""
    return traced_peak(lambda: write_svg(scene_of(), path))[1]


def test_svg_writer_memory_stays_near_the_file_size(tmp_path):
    path = tmp_path / "overlay.svg"
    peak = svg_peak(lambda: SCENE_20179, path)
    # The per-point scene and writer peaked at 6.2 times the file, and formatting
    # the whole file before opening it at 3.7 times.
    assert peak < 1.5 * path.stat().st_size


def test_svg_writer_memory_with_many_vertices_stays_under_the_file_size(tmp_path):
    # 36,709 vertices over F_60: one marker record per vertex peaked at 8.2 times the file.
    path = tmp_path / "markers.svg"
    peak = svg_peak(lambda: Scene(800, 800, 20179, 20179, range(-29, 30), by_denominator(60)),
                    path)
    assert peak < path.stat().st_size


def test_svg_scatter_memory_stays_under_the_file_size(tmp_path):
    # One % over all 320,000 squares peaked at 3.4 times the file; the <path> form with
    # the held ordinates as a list of 160,001 bytes objects at 0.92 times.  As one block
    # of fixed-width fields they take 12 bytes each (0.22 times), packed 6 (0.12 times).
    path = tmp_path / "scatter.svg"
    peak = svg_peak(lambda: Scene(800, 800, 320000), path)
    assert peak < 0.5 * path.stat().st_size


def scatter_peak(m):
    """(squares, tracemalloc's peak) while a bare 800x800 scatter at m is formatted."""
    return traced_peak(lambda: sum(part.count(b"h1v1h-1z")
                                   for part in render._scatter(m, 800, 800)))


def ordinate_block(m):
    """The held ordinates: m // 2 + 1 fields, 12 bytes each at height 800."""
    return (m // 2 + 1) * len(b" %.6f " % 800)


def test_scatter_holds_its_ordinate_block_once(monkeypatch):
    # The block is filled in place and each part splits a bytes copy of its slices,
    # so the peak is the block and one part's work.  Joining a list of per-part bytes
    # into the block would hold it twice, a whole block over.  Parts of 512 squares
    # keep one part's work near a third of the block at a modulus this small.
    monkeypatch.setattr(render, "_FILL", 512)
    m = 50021
    squares, peak = scatter_peak(m)
    assert squares == m
    assert peak - ordinate_block(m) < ordinate_block(m) // 2


def test_scatter_work_past_its_ordinate_block_is_one_fill_part():
    # 18,461 held fields at m = 36,920.  Filling a whole 4,096-square <path> per % held
    # 0.75 MB past them; a part of _FILL squares, 0.1 MB.
    m = 36920
    squares, peak = scatter_peak(m)
    assert squares == m
    assert peak - ordinate_block(m) < 150_000


def test_scatter_holds_its_ordinate_block_packed_two_characters_a_byte():
    # 50,002 fields at m = 100,003.  Held as their 12 characters each, the block peaked
    # at 696 KB; packed into 6 bytes each by unhexlify, at 396 KB.
    m = 100003
    squares, peak = scatter_peak(m)
    assert squares == m
    assert peak < ordinate_block(m) // 2 + 150_000


def test_svg_writer_refuses_a_scene_over_the_cap_before_opening(tmp_path, monkeypatch):
    # The cap sat in the scene builder bundle used, so a scene built by hand went unchecked.
    path = tmp_path / "big.svg"
    started = time.perf_counter()
    message = r"^scene of 1000000000 scatter points exceeds the cap of 1000000$"
    with pytest.raises(ValueError, match=message):
        write_svg(Scene(64, 64, 10**9), path)
    assert time.perf_counter() - started < 1.0
    assert not path.exists()
    # a vertex needs m > b*b, checked before the file is opened too
    with pytest.raises(ValueError, match=r"^modulus 80 must exceed 9\^2$"):
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


def test_svg_writer_refuses_a_canvas_over_the_pixel_cap_before_opening(tmp_path, monkeypatch):
    # A 10^400-wide canvas died in the scatter's float conversion with a partial file
    # open (a 10^400-high one in its "%.6f"), and a 10^30-wide one wrote 57 MB.
    path = tmp_path / "big.svg"
    for width, height in ((10**400, 800), (800, 10**400), (10**30, 800)):
        message = rf"^canvas of {width}x{height} pixels exceeds the cap of 100000000$"
        with pytest.raises(ValueError, match=message):
            write_svg(Scene(width, height, 20179), path)
        assert not path.exists()
    # the cap and its message are Canvas.blank's
    monkeypatch.setattr(render, "MAX_PIXELS", 16 * 20)
    write_svg(Scene(16, 20, 101), path)
    assert path.read_bytes() == reference_svg(Scene(16, 20, 101))
    path.unlink()
    with pytest.raises(ValueError, match="^canvas of 16x21 pixels exceeds the cap of 320$"):
        write_svg(Scene(16, 21, 101), path)
    assert not path.exists()


@pytest.mark.parametrize("m", [-5, 0, 1])
def test_svg_writer_refuses_a_modulus_below_2_before_opening(m, tmp_path):
    # Scene(64, 64, -5) wrote zero squares and Scene(64, 64, 1) one, while
    # render_scatter refused both; 0 drew no scatter, and every scene now has one.
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match=rf"^modulus must be an integer >= 2, got {m}$"):
        write_svg(Scene(64, 64, m), path)
    assert not path.exists()


def test_refused_svg_formats_no_curve_or_marker(tmp_path, monkeypatch):
    # The scatter, and so its cap, came after every polyline and circle was formatted;
    # now no curve is sampled and no vertex height taken before the cap either.
    def formatted(*args):
        raise AssertionError("a curve or marker was computed before the scene cap")

    scene = SCENE_20179
    for name in ("_scatter", "_polylines", "sample_bundle_curve", "vertex_heights"):
        monkeypatch.setattr(render, name, formatted)
    monkeypatch.setattr(render, "MAX_SCENE_POINTS", 20178)
    path = tmp_path / "x.svg"
    message = "^scene of 20179 scatter points exceeds the cap of 20178$"
    with pytest.raises(ValueError, match=message):
        write_svg(scene, path)
    assert not path.exists()


def test_svg_io_error_reports_path():
    scene = Scene(64, 64, 415)
    with pytest.raises(OSError):
        write_svg(scene, "/nonexistent-dir/out.svg")
