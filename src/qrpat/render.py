"""Deterministic rendering of residue plots.

Raster output is 8-bit binary PGM (P5); vector overlays are SVG 1.1.
Pixel placement uses integer arithmetic only, and SVG coordinates are
formatted with a fixed number of digits, so identical inputs produce
byte-identical files on every platform.  Exact integer membership
checks happen before anything is converted to floating point.
"""

from __future__ import annotations

import mmap
import os
import sys
from binascii import hexlify, unhexlify
from collections import namedtuple
from math import gcd

from .parabola import check_denominator, check_modulus, length_weight, vertex_heights

__all__ = [
    "BundleCurve",
    "Canvas",
    "Scene",
    "check_canvas",
    "check_scene",
    "render_scatter",
    "render_sum_squares",
    "sample_bundle_curve",
    "write_pgm",
    "write_svg",
]

# Polyline resolution for the wrapped bundle curves (points per unit X), read per call.
CURVE_SAMPLES = 1024
MAX_PIXELS = 10**8  # largest canvas, PGM (one byte per pixel) or SVG; larger is refused
MAX_SCENE_POINTS = 10**6  # largest SVG scatter (one point per residue); larger is refused
# Most squares one render_scatter computes, (m + 1) // 2 in either mode; larger is refused.
# At the cap an 800x800 plot took 7.1-7.9 s in one process and 3.6-4.1 s split (2-CPU VM).
MAX_SCATTER_SQUARES = 5 * 10**7
_SPLIT_SQUARES = 100_000  # fewest squares a scatter splits between two processes
# Scatter squares per <path>, about 120 KB of SVG; it sets the file's bytes.
_CHUNK = 4096
# Scatter squares one % fills, about 15 KB of SVG, a divisor of _CHUNK; a part and the
# held ordinate block of x <= m // 2 (6 bytes each at height 800) are all the scatter keeps.
_FILL = 512
_PACK, _UNPACK = bytes.maketrans(b" -.", b"cde"), bytes.maketrans(b"cde", b" -.")
_SQUARE = b"M%.6f %sh1v1h-1z"  # one scatter square at x and a formatted y
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
    def blank(cls, width: int, height: int, weight: int = 1) -> "Canvas":
        check_canvas(width, height, weight)
        return cls(width, height, bytearray([255]) * (width * height))


class BundleCurve(namedtuple("BundleCurve", "n segments")):
    """Sampled polylines (tuples of (X, Y)) of bundle curve n, split at mod-1 wraps."""

    __slots__ = ()


class Scene(namedtuple("Scene", "width height modulus s lines fractions",
                       defaults=(0, range(0), ()))):
    """The scatter of x*x mod m, bundle curves and family vertices on a canvas,
    each given by what draws it, not by its points.

    The scatter is the m points (x/m, (x*x mod m)/m) of the modulus (required,
    >= 2); the curves are ``sample_bundle_curve(s, n)`` for n in lines;
    the vertices are those of each a/b in fractions, at (a/b, h/b^2) for h in
    ``vertex_heights(modulus, a/b)``.  write_svg computes each as it writes it.
    ``bundle --out`` builds its own before it matches a vertex: s is ``bundle_parameter``,
    lines runs -n..n, n its largest line index, and fractions is F_D in (b, a) order.
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
    skips those points, then draws each in its own column.

    Either mode squares about (m + 1) // 2 of the x; more than
    MAX_SCATTER_SQUARES is refused before the canvas is allocated.  From
    _SPLIT_SQUARES on, a forked child may draw half the column pairs: their
    pixel sets are disjoint and the edge points come after, so the bytes match.
    """
    check_modulus(m)
    if width < 16 or height < 16:
        raise ValueError(f"canvas must be at least 16x16, got {width}x{height}")
    squares = (m + 1) // 2
    if squares > MAX_SCATTER_SQUARES:
        raise ValueError(f"scatter of {squares} squares exceeds the cap of {MAX_SCATTER_SQUARES}")
    canvas = Canvas.blank(width, height)
    mirror, pixels = not half_range, canvas.pixels
    columns = (width + 1) // 2 if mirror else width
    threading = sys.modules.get("threading")  # a forked child would lack every other thread
    if (squares < _SPLIT_SQUARES or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
            or threading and threading.active_count() > 1):
        _columns(pixels, m, width, height, mirror, range(columns))
    else:  # a child draws columns [mid, columns) into a shared map, this process the rest
        with mmap.mmap(-1, width * height) as shared:
            shared[:], mid = pixels, columns // 2
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one draws every column
                pid = None
            if pid == 0:  # the child leaves by _exit whatever happens: no flush, no atexit
                try:
                    _columns(shared, m, width, height, mirror, range(mid, columns))
                    os._exit(0)
                finally:
                    os._exit(1)
            try:
                _columns(shared, m, width, height, mirror, range(mid))
            finally:
                try:
                    status = os.waitpid(pid, 0)[1] if pid else 1
                except ChildProcessError:  # SIGCHLD ignored: the child is reaped, its status lost
                    status = 1
            if status:  # drawn again, a child column gives the same pixels
                _columns(shared, m, width, height, mirror, range(mid, columns))
            pixels[:] = shared
    if mirror:
        bottom = (height - 1) * width
        for x in range(0, m, m // gcd(m, width)):
            pixels[bottom + x * width // m - x * x % m * height // m * width] = 0
    return canvas


def _columns(pixels, m: int, width: int, height: int, mirror: bool, cols: range) -> None:
    """Draw scatter columns cols into pixels, a mirrored plot's edge points aside."""
    if mirror:
        count, x_scale, edge = m, width, m // gcd(m, width)
    else:
        count, x_scale = (m + 1) // 2, 2 * width
    bottom = (height - 1) * width
    white = bytes([255]) * height
    lo = -(-cols.start * m // x_scale)
    for col in cols:
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


def render_sum_squares(m: int, size: int) -> Canvas:
    """Grayscale grid of (x*x + y*y) mod m over a size x size sampling.

    Sample u maps to coordinate floor(u * m / size); values scale
    linearly so that m - 1 becomes white (255).  The grid is symmetric, so
    each row from the diagonal on is stored along the row and down the column.
    """
    check_modulus(m)
    if size < 2:
        raise ValueError(f"grid size must be >= 2, got {size}")
    canvas = Canvas.blank(size, size, length_weight(m, 256, 1))
    squares = [(u * m // size) ** 2 % m for u in range(size)]
    pixels = canvas.pixels
    for row in range(size):
        y2 = squares[row]
        start = row * size + row
        entries = bytes([(x2 + y2) % m * 255 // (m - 1) for x2 in squares[row:]])
        pixels[start:(row + 1) * size] = entries
        pixels[start::size] = entries
    return canvas


def sample_bundle_curve(s: int, n: int) -> BundleCurve:
    """Sample Y = (2nX - sX^2) mod 1 at X = t/S for t in [0, S], S = CURVE_SAMPLES.

    The unwrapped value is the integer (2nS - st)t over S^2, so its wrap
    level is exact; a new polyline starts wherever the level changes, so no
    segment jumps across the mod-1 seam.  Coordinates are int/int floats.
    """
    segments: list[tuple[tuple[float, float], ...]] = []
    current: list[tuple[float, float]] = []
    prev_level = 0  # the level at t = 0
    samples = CURVE_SAMPLES
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


def write_pgm(canvas: Canvas, path) -> None:
    """Write the canvas as binary PGM: P5, maxval 255, row-major top-down."""
    header = b"P5\n%d %d\n255\n" % (canvas.width, canvas.height)
    with open(path, "wb") as stream:
        stream.write(header)
        stream.write(canvas.pixels)


def check_canvas(width: int, height: int, weight: int = 1) -> None:
    """Refuse a PGM or SVG canvas of more than MAX_PIXELS pixels, each counted weight
    times (a grid's ``parabola.length_weight(m, 256, 1)``)."""
    if width * height * weight > MAX_PIXELS:
        each = f" at {weight} each" if weight > 1 else ""
        raise ValueError(f"canvas of {width}x{height} pixels{each} exceeds the cap of {MAX_PIXELS}")


def check_scene(points: int) -> None:
    """Refuse an SVG scatter of more than MAX_SCENE_POINTS points."""
    if points > MAX_SCENE_POINTS:
        raise ValueError(f"scene of {points} scatter points exceeds the cap of {MAX_SCENE_POINTS}")


def _scatter(m: int, width: int, height: int):
    """The m scatter squares, "M x y h1v1h-1z" each, one <path> per _CHUNK x,
    each <path>'s data filled _FILL squares per %.

    Square x is at (x/m*width, (1 - (x*x mod m)/m)*height - 1); the nonzero
    fill unions overlapping squares.  x and m - x share a y, so the ordinates
    of x <= m // 2 are formatted once, _FILL per %, into w-wide fields, w two or
    three more than "%.6f" % height and even, so each starts with a space.  ys holds
    them packed two characters a byte, w // 2 bytes a field: " -." read as the hex
    digits "cde".  A part's y strings split from the unpacked copies of a forward and
    a mirrored slice of ys (no list of them outlives values), and one % over a
    template fills it.  How many squares a <path> holds sets the bytes; how many one
    % fills sets only the memory, so a part is smaller than a <path>.
    """
    half, k = m // 2 + 1, (len(b"%.6f" % height) + 3) // 2  # k bytes a field
    ys, field = bytearray(half * k), b"%%%d.6f" % (2 * k)
    for lo in range(0, half, _FILL):
        xs = range(lo, min(lo + _FILL, half))
        ys[lo * k:xs.stop * k] = unhexlify((field * len(xs) % tuple(
            [(1 - x * x % m / m) * height - 1 for x in xs])).translate(_PACK))
    ys, full = memoryview(ys), _SQUARE * _FILL
    for start in range(0, m, _CHUNK):
        yield b'<path d="'
        for lo in range(start, min(start + _CHUNK, m), _FILL):
            hi = min(lo + _FILL, m)
            values = [None] * (2 * (hi - lo))
            values[0::2] = [x / m * width for x in range(lo, hi)]
            values[1::2] = (
                hexlify(ys[lo * k:hi * k]).translate(_UNPACK).split()
                + hexlify(ys[(m - hi + 1) * k:(m - max(lo, half) + 1) * k])
                .translate(_UNPACK).split()[::-1])
            yield (full if hi - lo == _FILL else _SQUARE * (hi - lo)) % tuple(values)
        yield b'"/>\n'


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
    Every check (modulus >= 2; the scene and canvas caps; m > b*b per vertex)
    comes before the file is opened.  Then each scatter part
    (_FILL squares of a _CHUNK-square <path>), curve (sampled as it is reached) and
    fraction's circles (from ``vertex_heights``) is filled by one % over a repeated
    template and written at once; the scatter's ordinate block ys and one part are
    all that stay held.
    """
    width, height, m = scene.width, scene.height, scene.modulus
    check_scene(check_modulus(m))
    check_canvas(width, height)
    check_denominator(m, max((frac.b for frac in scene.fractions), default=1))
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
        '<g fill="black">\n'
    )
    # A scatter part (~15 KB) passes the default 8 KB buffer, which would make each one
    # its own system call; 64 KB holds four.
    with open(path, "wb", buffering=1 << 16) as stream:
        write = stream.write
        write(header.encode())
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
