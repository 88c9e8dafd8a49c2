"""Deterministic rendering of residue plots.

Raster output is 8-bit binary PGM (P5); vector overlays are SVG 1.1.
Pixel placement uses integer arithmetic only, and SVG coordinates are
formatted with a fixed number of digits, so identical inputs produce
byte-identical files on every platform.  Exact integer membership
checks happen before anything is converted to floating point.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from math import gcd

from .parabola import check_denominator, vertex_heights
from .patterns import BundleMatch, bundle_parameter
from .residues import check_modulus

__all__ = [
    "BundleCurve",
    "Canvas",
    "Scene",
    "check_scene",
    "overlay_predictions",
    "render_scatter",
    "render_sum_squares",
    "sample_bundle_curve",
    "write_pgm",
    "write_svg",
]

# Polyline resolution for the wrapped bundle curves (points per unit X).
CURVE_SAMPLES = 1024
MAX_PIXELS = 10**8  # largest raster canvas (one byte per pixel); larger is refused
MAX_SCENE_POINTS = 10**6  # largest SVG scatter (one point per residue); larger is refused
# Most squares one render_scatter computes, (m + 1) // 2 in either mode (about 0.2 µs
# each, so ~10 s); larger is refused.
MAX_SCATTER_SQUARES = 5 * 10**7
# Scatter squares write_svg formats per % into one <path>, about 120 KB of SVG; a chunk
# and the held ordinate block of x <= m // 2 (w bytes each) are all the scatter keeps.
_CHUNK = 4096
_SQUARE = b"M%.6f %sh1v1h-1z"  # one scatter square at x and a formatted y
_PATH = b'<path d="%s"/>\n'
_CIRCLE = b'<circle cx="%.6f" cy="%%.6f" r="3"/>\n'


class Canvas(namedtuple("Canvas", "width height pixels")):
    """Row-major grayscale raster, origin top-left, as a checked, immutable
    namedtuple whose pixels bytearray is drawn into in place.

    Scatter plots place residue 0 on the bottom row.
    """

    __slots__ = ()

    def __new__(cls, width: int, height: int, pixels: bytearray) -> "Canvas":
        if len(pixels) != width * height:
            raise ValueError(
                f"pixel buffer of {len(pixels)} bytes does not match {width}x{height}"
            )
        return tuple.__new__(cls, (width, height, pixels))

    # namedtuple's own _make, which _replace calls, would skip the checks in __new__
    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def blank(cls, width: int, height: int) -> "Canvas":
        if width * height > MAX_PIXELS:
            raise ValueError(f"canvas of {width * height} pixels exceeds the cap of {MAX_PIXELS}")
        return cls(width, height, bytearray([255]) * (width * height))


class BundleCurve(namedtuple("BundleCurve", "n segments")):
    """Sampled polylines (tuples of (X, Y)) of bundle curve n, split at mod-1 wraps."""

    __slots__ = ()


class Scene(namedtuple("Scene", "width height modulus s lines fractions",
                       defaults=(0, 0, range(0), ()))):
    """The scatter of x*x mod m, bundle curves and family vertices on a canvas,
    each given by what draws it, not by its points.

    The scatter is the m points (x/m, (x*x mod m)/m) of the modulus (0: no
    scatter); the curves are ``sample_bundle_curve(s, n)`` for n in lines;
    the vertices are those of each a/b in fractions, at (a/b, h/b^2) for h in
    ``vertex_heights(modulus, a/b)``.  write_svg computes each as it writes it.
    """

    __slots__ = ()


def render_scatter(m: int, width: int, height: int, half_range: bool = True) -> Canvas:
    """Plot (x, x*x mod m) as black pixels on white.

    With half_range only 0 <= x < m/2 is drawn (the upper half mirrors
    it) and the x axis spans the plotted range; otherwise x covers
    [0, m).  The residue axis always spans [0, m) with 0 at the bottom.

    Column col holds the x in [lo, ceil((col+1)*m / x_scale)); a column of
    more than height/32 points is drawn into a buffer and stored with one
    strided slice, sparser ones point by point.

    The full range is drawn once per mirrored column pair: x and m - x
    share a row, and col(m - x) = width - 1 - col(x) unless m divides
    x*width.  Those g = gcd(m, width) edge points x = k*m/g each open
    their column and mirror one column further right, so the column loop
    skips them and draws each in its own column afterwards.

    Either mode squares about (m + 1) // 2 of the x; more than
    MAX_SCATTER_SQUARES is refused before the canvas is allocated.
    """
    check_modulus(m)
    if width < 16 or height < 16:
        raise ValueError(f"canvas must be at least 16x16, got {width}x{height}")
    squares = (m + 1) // 2
    if squares > MAX_SCATTER_SQUARES:
        raise ValueError(f"scatter of {squares} squares exceeds the cap of {MAX_SCATTER_SQUARES}")
    canvas = Canvas.blank(width, height)
    mirror = not half_range
    if mirror:
        count, x_scale, columns = m, width, (width + 1) // 2
        edge = m // gcd(m, width)
    else:
        count, x_scale, columns = (m + 1) // 2, 2 * width, width
    pixels = canvas.pixels
    bottom = (height - 1) * width
    white = bytes([255]) * height
    lo = 0
    for col in range(columns):
        hi = min(count, -(-(col + 1) * m // x_scale))
        xs = range(lo + 1 if mirror and lo % edge == 0 else lo, hi)
        if hi - lo > height >> 5:
            column = bytearray(white)
            for x in xs:
                column[x * x % m * height // m] = 0
            pixels[bottom + col::-width] = column
            if mirror:
                pixels[bottom + width - 1 - col::-width] = column
        elif mirror:
            twin = width - 1 - col
            for x in xs:
                row = bottom - x * x % m * height // m * width
                pixels[row + col] = pixels[row + twin] = 0
        else:
            for x in xs:
                pixels[bottom + col - x * x % m * height // m * width] = 0
        lo = hi
    if mirror:
        for x in range(0, m, edge):
            pixels[bottom + x * width // m - x * x % m * height // m * width] = 0
    return canvas


def render_sum_squares(m: int, size: int) -> Canvas:
    """Grayscale grid of (x*x + y*y) mod m over a size x size sampling.

    Sample u maps to coordinate floor(u * m / size); values scale
    linearly so that m - 1 becomes white (255).  The grid is symmetric, so
    each row from the diagonal on is stored along the row and down the column.
    """
    check_modulus(m)
    if size < 2:
        raise ValueError(f"grid size must be >= 2, got {size}")
    canvas = Canvas.blank(size, size)
    squares = [(u * m // size) ** 2 % m for u in range(size)]
    pixels = canvas.pixels
    for row in range(size):
        y2 = squares[row]
        start = row * size + row
        entries = bytes([(x2 + y2) % m * 255 // (m - 1) for x2 in squares[row:]])
        pixels[start:(row + 1) * size] = entries
        pixels[start::size] = entries
    return canvas


def sample_bundle_curve(s: int, n: int, samples: int = CURVE_SAMPLES) -> BundleCurve:
    """Sample Y = (2nX - sX^2) mod 1 at X = t/S for t in [0, S], S = samples.

    The unwrapped value is the integer (2nS - st)t over S^2, so its wrap
    level is exact; a new polyline starts wherever the level changes, so no
    segment jumps across the mod-1 seam.  Coordinates are int/int floats.
    """
    segments: list[tuple[tuple[float, float], ...]] = []
    current: list[tuple[float, float]] = []
    prev_level = 0  # the level at t = 0
    denom = samples * samples
    for t in range(samples + 1):
        level, rem = divmod((2 * n * samples - s * t) * t, denom)
        if level != prev_level:
            segments.append(tuple(current))
            current = []
        current.append((t / samples, rem / denom))
        prev_level = level
    segments.append(tuple(current))
    return BundleCurve(n, tuple(segments))


def overlay_predictions(
    m: int, period: int, matches: Iterable[BundleMatch], width: int, height: int
) -> Scene:
    """Scene with the full scatter, every vertex of matches and the bundle curves.

    matches is ``bundle_matches(m, period, D)``, read once; its fractions,
    skipped ones included, are kept in their (b, a) order, and the drawn
    curves run from -n_max to n_max, n_max the largest matched |n|.
    """
    s = bundle_parameter(m, period)
    fractions, n_max = [], 0
    for frac, ns in matches:
        fractions.append(frac)
        n_max = max(n_max, *map(abs, ns or (0,)))
    return Scene(width, height, m, s, range(-n_max, n_max + 1), tuple(fractions))


def write_pgm(canvas: Canvas, path) -> None:
    """Write the canvas as binary PGM: P5, maxval 255, row-major top-down."""
    header = b"P5\n%d %d\n255\n" % (canvas.width, canvas.height)
    with open(path, "wb") as stream:
        stream.write(header)
        stream.write(canvas.pixels)


def check_scene(points: int) -> None:
    """Refuse an SVG scatter of more than MAX_SCENE_POINTS points."""
    if points > MAX_SCENE_POINTS:
        raise ValueError(f"scene of {points} scatter points exceeds the cap of {MAX_SCENE_POINTS}")


def _scatter(m: int, width: int, height: int):
    """The m scatter squares, "M x y h1v1h-1z" each, one <path> per _CHUNK x.

    Square x is at (x/m*width, (1 - (x*x mod m)/m)*height - 1); the nonzero
    fill unions overlapping squares.  x and m - x share a y, so the ordinates
    of x <= m // 2 are formatted once, _CHUNK per %, into ys: one bytes block
    of w-wide fields, w two more than "%.6f" % height, so each starts with a
    space.  A chunk splits its y strings from a forward and a mirrored slice
    of ys, and one % over a template repeated per square fills its <path>.
    """
    half, w = m // 2 + 1, len(b"%.6f" % height) + 2
    ys = b"".join([b"%%%d.6f" % w * len(xs) % tuple([(1 - x * x % m / m) * height - 1 for x in xs])
                   for xs in (range(lo, min(lo + _CHUNK, half)) for lo in range(0, half, _CHUNK))])
    full = _PATH % (_SQUARE * _CHUNK)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        mirrored = ys[(m - hi + 1) * w:(m - max(lo, half) + 1) * w].split()
        values = [None] * (2 * (hi - lo))
        values[0::2] = [x / m * width for x in range(lo, hi)]
        values[1::2] = ys[lo * w:hi * w].split() + mirrored[::-1]
        yield (full if hi - lo == _CHUNK else _PATH % (_SQUARE * (hi - lo))) % tuple(values)


def _polylines(curve: BundleCurve, width: int, height: int) -> bytes:
    """One <polyline> line per segment of two or more points, filled by one %."""
    segments = [segment for segment in curve.segments if len(segment) > 1]
    points = [point for segment in segments for point in segment]
    values = [None] * (2 * len(points))
    values[0::2] = [x * width for x, _ in points]
    values[1::2] = [(1.0 - y) * height for _, y in points]
    return b"".join(
        [b'<polyline points="' + b" ".join([b"%.6f,%.6f"] * len(segment)) + b'"/>\n'
         for segment in segments]
    ) % tuple(values)


def write_svg(scene: Scene, path) -> None:
    """Write the scene as SVG 1.1, formatting it as it goes.

    Element order is fixed: the scatter (unit squares in <path>s, see _scatter),
    bundle curves in the order of scene.lines, then vertex circles fraction by
    fraction in the order of scene.fractions, each in vertex order.  Every
    coordinate carries six decimals, so equal scenes give identical bytes.
    Every check (modulus 0, for no scatter, or >= 2; the caps; m > b*b per
    vertex) comes before the file is opened.  Then each scatter chunk, curve
    (sampled as it is reached) and fraction's circles (from ``vertex_heights``)
    is filled by one % over a repeated template and written at once; the
    scatter's ordinate block ys and one chunk are all that stay held.
    """
    width, height, m = scene.width, scene.height, scene.modulus
    check_scene(m and check_modulus(m))  # m = 0 draws no scatter
    if scene.fractions:
        check_denominator(m, max(frac.b for frac in scene.fractions))
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
        '<g fill="black">\n'
    )
    with open(path, "wb") as stream:
        write = stream.write
        write(header.encode())
        if m:
            stream.writelines(_scatter(m, width, height))
        write(b'</g>\n<g fill="none" stroke="#1f77b4" stroke-width="0.75">\n')
        for n in scene.lines:
            write(_polylines(sample_bundle_curve(scene.s, n), width, height))
        write(b'</g>\n<g fill="none" stroke="#d62728">\n')
        for frac in scene.fractions:  # one cx per fraction, formatted once
            heights, bb = vertex_heights(m, frac), frac.b**2
            circle = _CIRCLE % (frac.a / frac.b * width)
            write(circle * len(heights) % tuple([(1.0 - h / bb) * height for h in heights]))
        write(b"</g>\n</svg>\n")
