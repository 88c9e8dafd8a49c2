"""Output checks that do not trust qrpat's internals.

Each check recomputes what it needs from the request and the paper's
definitions (nearest anchor, direct squaring, the anchor identity), never
from qrpat, and raises CheckFailed on the first disagreement.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

from .workloads import Request, b_prime, covered, farey, nearest_anchor, period


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def height_key(m: int, a: int, b: int) -> int:
    """beta from the anchor identity b^2*r0 = beta*m + alpha^2, by direct squaring."""
    x0 = nearest_anchor(m, a, b)
    alpha = a * m - b * x0
    beta, rest = divmod(b * b * (x0 * x0 % m) - alpha * alpha, m)
    _require(rest == 0, f"anchor identity has no integer beta for {a}/{b} mod {m}")
    return beta


def check_predict(req: Request, stdout: str, data: bytes | None) -> None:
    m, d = req.info["m"], req.info["d"]
    entries = json.loads(stdout)
    fracs = sorted(farey(d), key=lambda f: Fraction(*f))
    _require(len(entries) == len(fracs), f"{len(entries)} entries, expected {len(fracs)}")
    for entry, (a, b) in zip(entries, fracs):
        name = f"{a}/{b}"
        _require(entry["modulus"] == m, f"{name}: modulus {entry['modulus']} != {m}")
        _require(entry["fraction"] == {"a": a, "b": b}, f"{name}: fraction {entry['fraction']}")
        x0, r0, alpha, beta = entry["x0"], entry["r0"], entry["alpha"], entry["beta"]
        _require(x0 == nearest_anchor(m, a, b), f"{name}: x0 {x0} is not the nearest anchor")
        _require(r0 == x0 * x0 % m, f"{name}: r0 {r0} != x0^2 mod m")
        _require(b * b * r0 == beta * m + alpha * alpha, f"{name}: anchor identity fails")
        _require(len(entry["vertices"]) == b_prime(b), f"{name}: wrong vertex count")
        for v in entry["vertices"]:
            _require(v["x_num"] * b == a * m * v["x_den"], f"{name}: vertex abscissa != a*m/b")


def check_verify(req: Request, stdout: str, data: bytes | None) -> None:
    report = json.loads(stdout)
    expected = len(farey(req.info["d"]))
    _require(report["ok"] is True, f"verify reports ok={report['ok']}: {report['failures']}")
    _require(report["modulus"] == req.info["m"], "verify echoes the wrong modulus")
    _require(report["fractions_checked"] == expected,
             f"{report['fractions_checked']} fractions checked, expected {expected}")
    for name, counts in report["checks"].items():
        _require(counts["passed"] + counts["failed"] == expected,
                 f"{name}: counts do not add up to {expected}")
        _require(counts["failed"] == 0, f"{name}: {counts['failed']} failed")


def _signature_mismatch(m1: int, m2: int, lam: int, d: int) -> tuple[int, int] | None:
    """Smallest (b, a) covered fraction whose beta mod c*b differs, or None."""
    for a, b in sorted(farey(d), key=lambda f: (f[1], f[0])):
        if not covered(b, lam):
            continue
        cb = b * (b // b_prime(b))
        if height_key(m1, a, b) % cb != height_key(m2, a, b) % cb:
            return b, a
    return None


def check_equiv(req: Request, stdout: str, data: bytes | None) -> None:
    info = req.info
    report = json.loads(stdout)
    if info["congruent"]:
        _require(report["equivalent"] is True, "congruent pair reported not equivalent")
    lam = period(info["lambda_n"])
    _require(report["lambda"] == lam, f"period {report['lambda']} != {lam}")
    mismatch = _signature_mismatch(info["m1"], info["m2"], lam, info["d"])
    _require(report["equivalent"] == (mismatch is None),
             f"equivalent={report['equivalent']} but first mismatch is {mismatch}")
    witness = None if mismatch is None else {"a": mismatch[1], "b": mismatch[0]}
    _require(report["witness"] == witness, f"witness {report['witness']} != {witness}")


def check_bundle(req: Request, stdout: str, data: bytes | None) -> None:
    info = req.info
    m, d = info["m"], info["d"]
    report = json.loads(stdout)
    lam = period(info["lambda_n"])
    s = m % lam
    if 2 * s > lam:
        s -= lam
    _require(report["lambda"] == lam and report["s"] == s, "wrong period or bundle parameter")
    fracs = sorted(farey(d), key=lambda f: (f[1], f[0]))
    _require([(f["a"], f["b"]) for f in report["fractions"]]
             == [f for f in fracs if covered(f[1], lam)], "covered fractions differ")
    _require([(f["a"], f["b"]) for f in report["skipped"]]
             == [f for f in fracs if not covered(f[1], lam)], "skipped fractions differ")
    indices = set()
    for entry in report["fractions"]:
        a, b = entry["a"], entry["b"]
        bp = b_prime(b)
        ks = [v["k"] for v in entry["vertices"]]
        _require(ks == list(range(bp)), f"{a}/{b}: vertex indices {ks}")
        beta_prime = height_key(m, a, b) % (b * (b // bp))
        x = Fraction(a, b)
        for v in entry["vertices"]:
            y = (Fraction(beta_prime, b * b) + Fraction(v["k"], bp)) % 1
            on_line = (y + s * x * x - 2 * v["n"] * x).denominator == 1
            _require(on_line, f"{a}/{b} vertex {v['k']} is not on line {v['n']}")
            indices.add(v["n"])
    _require(report["line_indices"] == sorted(indices),
             "line_indices disagree with the per-fraction vertices")
    if req.out is not None:
        check_svg(req, data)


def check_svg(req: Request, data: bytes | None) -> None:
    _require(data is not None, "no SVG written")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    _require(root.tag == "{http://www.w3.org/2000/svg}svg", f"root element is {root.tag}")
    size = (root.get("width"), root.get("height"))
    _require(size == (str(req.info["width"]), str(req.info["height"])), f"SVG size {size}")


_PGM = re.compile(rb"\AP5\n(\d+) (\d+)\n255\n")


def _pixels(data: bytes | None, width: int, height: int) -> bytes:
    _require(data is not None, "no PGM written")
    match = _PGM.match(data)
    _require(match is not None, "not a binary PGM")
    size = (int(match.group(1)), int(match.group(2)))
    _require(size == (width, height), f"PGM is {size}, expected {(width, height)}")
    pixels = data[match.end():]
    _require(len(pixels) == width * height, "PGM payload has the wrong length")
    return pixels


PIXEL_SAMPLES = 64


def plot_samples(req: Request) -> list[tuple[int, int]]:
    """Seeded sample of (x, pixel index) pairs that must be black in a plot."""
    info = req.info
    m, width, height = info["m"], info["width"], info["height"]
    rng = random.Random(info["sample_seed"])
    count = (m + 1) // 2 if info["half"] else m
    scale = 2 * width if info["half"] else width
    samples = []
    for _ in range(PIXEL_SAMPLES):
        x = rng.randrange(count)
        row = height - 1 - (x * x % m) * height // m
        samples.append((x, row * width + x * scale // m))
    return samples


def _check_golden(req: Request, data: bytes) -> None:
    golden = req.info.get("golden")
    if golden is not None:
        digest = hashlib.sha256(data).hexdigest()
        _require(digest == golden, f"golden digest {digest} != {golden}")


def check_plot(req: Request, stdout: str, data: bytes | None) -> None:
    pixels = _pixels(data, req.info["width"], req.info["height"])
    for x, index in plot_samples(req):
        _require(pixels[index] == 0, f"x={x}: pixel {index} is {pixels[index]}, not black")
    _check_golden(req, data)


def check_grid(req: Request, stdout: str, data: bytes | None) -> None:
    m, size = req.info["m"], req.info["size"]
    pixels = _pixels(data, size, size)
    rng = random.Random(req.info["sample_seed"])
    for _ in range(PIXEL_SAMPLES):
        row, col = rng.randrange(size), rng.randrange(size)
        x, y = col * m // size, row * m // size
        want = (x * x + y * y) % m * 255 // (m - 1)
        got = pixels[row * size + col]
        _require(got == want, f"grid pixel ({row}, {col}) is {got}, expected {want}")
    _check_golden(req, data)


CHECKERS = {
    "plot": check_plot,
    "grid": check_grid,
    "predict": check_predict,
    "verify": check_verify,
    "equiv": check_equiv,
    "bundle": check_bundle,
}


def check(req: Request, stdout: str, data: bytes | None) -> None:
    """Raise CheckFailed unless the request's outputs are correct."""
    try:
        CHECKERS[req.kind](req, stdout, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None
