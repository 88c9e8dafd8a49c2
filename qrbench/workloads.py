"""Seeded request generation for the four benchmark workloads.

Every workload is a fixed schedule of REQUESTS_PER_PASS slots.  A slot
fixes the kind of request and the size of its work (denominator bound,
window, image size, a narrow band of moduli); the seed picks the exact
moduli, windows and pixel samples inside those bands.  Different seeds
therefore give different inputs with nearly the same total work, which
keeps figures from different seeds comparable.

Units of work are computed here from the request alone, by definitions
that do not call into qrpat.

tracemalloc slows allocation-heavy loops up to 40-fold, so the memory
pass runs only the requests marked ``memory``: the heaviest slot of each
request group, except in raster, where the golden requests and the
largest grid stand for all plots and grids (their buffers are canvas-
sized whatever the modulus).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# 25 slots per pass: the median (rank 12.5) and the 90th percentile
# (rank 22.5) then fall in the middle of one slot's block of samples
# rather than on the edge between two slots.
REQUESTS_PER_PASS = 25

GOLDEN_PLOT_20171 = "04c9a8845a373c41a3c23508bb5bc3ed17d136bdfe5d47aa69273a2d254cd1dd"
GOLDEN_GRID_415 = "63377b669e2929b855a64d58a4a56fa758b12187a55a19d0c8c10c0fcd683413"

# Why each workload exists is recorded in BENCHMARK.json; here, the unit
# of work each one counts.
UNITS = {
    "raster": "residue points plus grid cells",
    "oracle": "oracle points checked",
    "survey": "anchor fractions",
    "overlay": "vertices matched plus scatter points written",
}


@dataclass
class Request:
    """One CLI call: its argv, the file it writes and what the checks need."""

    kind: str
    argv: list[str]
    units: int
    out: str | None = None
    info: dict = field(default_factory=dict)
    memory: bool = False  # part of the tracemalloc pass


def farey(max_denominator: int) -> list[tuple[int, int]]:
    """Reduced fractions a/b in [0, 1] with b <= max_denominator, by brute force."""
    return [
        (a, b)
        for b in range(1, max_denominator + 1)
        for a in range(b + 1)
        if math.gcd(a, b) == 1
    ]


def b_prime(b: int) -> int:
    return b if b % 2 else b // 2


def period(lambda_n: int) -> int:
    return 2 * math.lcm(*range(2, lambda_n + 1))


def covered(b: int, lam: int) -> bool:
    """A denominator is covered when c*b divides the layout period."""
    return lam % (b * (b // b_prime(b))) == 0


def nearest_anchor(m: int, a: int, b: int) -> int:
    """The integer nearest a*m/b, halves rounding up."""
    return (2 * a * m + b) // (2 * b)


def oracle_points(m: int, max_denominator: int, window: int | None) -> int:
    """Residue points the verify oracle checks over all anchors."""
    total = 0
    for a, b in farey(max_denominator):
        w = window if window is not None else min(3 * b_prime(b), (m - 1) // 2)
        x0 = nearest_anchor(m, a, b)
        total += min(m - 1, x0 + w) - max(0, x0 - w) + 1
    return total


def _band(rng: random.Random, lo: float, hi: float, slot: int, slots: int) -> int:
    """An integer within 2% of the centre of the slot-th of `slots`
    log-spaced bands of [lo, hi]."""
    centre = lo * (hi / lo) ** ((slot + 0.5) / slots)
    return rng.randrange(int(centre * 0.98), int(centre * 1.02))


def _decade(rng: random.Random, exponent: int) -> int:
    return rng.randrange(10**exponent, 10 ** (exponent + 1))


def _raster(rng: random.Random, workdir: str) -> list[Request]:
    def out(i):
        return f"{workdir}/r{i:02d}.pgm"

    reqs = [
        Request("plot", ["plot", "--modulus", "20171", "--out", out(0)],
                units=(20171 + 1) // 2, out=out(0),
                info={"m": 20171, "width": 800, "height": 800, "half": True,
                      "golden": GOLDEN_PLOT_20171}, memory=True),
        Request("grid", ["grid", "--modulus", "415", "--size", "415", "--out", out(1)],
                units=415 * 415, out=out(1),
                info={"m": 415, "size": 415, "golden": GOLDEN_GRID_415}, memory=True),
    ]
    plots = 15
    for slot in range(plots):
        m = _band(rng, 1e5, 1e6, slot, plots)
        half = slot % 2 == 0
        width, height = (800, 800) if slot % 3 else (640, 480)
        path = out(len(reqs))
        argv = ["plot", "--modulus", str(m), "--width", str(width),
                "--height", str(height), "--half" if half else "--no-half", "--out", path]
        reqs.append(Request("plot", argv, units=(m + 1) // 2 if half else m, out=path,
                            info={"m": m, "width": width, "height": height, "half": half}))
    grids = REQUESTS_PER_PASS - len(reqs)
    for slot in range(grids):
        m = _band(rng, 1e3, 1e6, slot, grids)
        size = 200 + 200 * slot // (grids - 1)
        path = out(len(reqs))
        reqs.append(Request("grid", ["grid", "--modulus", str(m), "--size", str(size),
                                     "--out", path],
                            units=size * size, out=path, info={"m": m, "size": size},
                            memory=slot == grids - 1))
    return reqs


def _oracle(rng: random.Random, workdir: str) -> list[Request]:
    reqs = []
    defaults = 13
    for slot in range(defaults):
        d = 10 + 15 * slot // (defaults - 1)
        m = _band(rng, 1e6, 1e7, slot, defaults)
        reqs.append(Request("verify", ["verify", "--modulus", str(m),
                                       "--max-denominator", str(d)],
                            units=oracle_points(m, d, None), info={"m": m, "d": d},
                            memory=slot == defaults - 1))
    # Windowed requests check 20k to 60k points each, so their latencies
    # fill the middle of the distribution, where the median and the tail
    # percentile fall, instead of leaving gaps between default-window sizes.
    windowed = REQUESTS_PER_PASS - defaults
    for slot in range(windowed):
        d = 10 + slot % 5
        window = _band(rng, 2e4, 6e4, slot, windowed) // (2 * len(farey(d)))
        m = _band(rng, 1e6, 1e7, slot, windowed)
        reqs.append(Request("verify", ["verify", "--modulus", str(m), "--max-denominator",
                                       str(d), "--window", str(window)],
                            units=oracle_points(m, d, window),
                            info={"m": m, "d": d, "window": window},
                            memory=slot == windowed - 1))
    return reqs


def _survey(rng: random.Random, workdir: str) -> list[Request]:
    reqs = []
    predicts = 15
    for slot in range(predicts):
        d = 10 + 18 * slot // (predicts - 1)
        m = _decade(rng, 12 + 27 * slot // (predicts - 1))
        reqs.append(Request("predict", ["predict", "--modulus", str(m), "--max-denominator",
                                        str(d), "--json"],
                            units=len(farey(d)), info={"m": m, "d": d},
                            memory=slot == predicts - 1))
    pairs = REQUESTS_PER_PASS - predicts
    for slot in range(pairs):
        lambda_n = 5 + slot % 6
        lam = period(lambda_n)
        d = 15 + 25 * slot // (pairs - 1)
        m1 = _decade(rng, 12 + 27 * slot // (pairs - 1))
        congruent = slot % 2 == 0
        m2 = m1 + lam * rng.randrange(1, 10**6)
        if not congruent:
            m2 += rng.randrange(1, lam)
        reqs.append(Request("equiv", ["equiv", "--m1", str(m1), "--m2", str(m2),
                                      "--lambda-n", str(lambda_n),
                                      "--max-denominator", str(d)],
                            units=2 * len(farey(d)),
                            info={"m1": m1, "m2": m2, "lambda_n": lambda_n, "d": d,
                                  "congruent": congruent},
                            memory=slot == pairs - 1))
    return reqs


def _overlay(rng: random.Random, workdir: str) -> list[Request]:
    # Fewer than half write an SVG, so the median request is one that only
    # matches vertices and the tail percentile falls among the SVG writers.
    reqs = []
    with_svg = 9
    for slot in range(REQUESTS_PER_PASS):
        svg = slot < with_svg
        lambda_n = 6 + slot % 5
        if svg:
            m = _band(rng, 1e4, 4e4, slot, with_svg)
            d = 7 + slot % 4
        else:
            m = _band(rng, 1e4, 4e4, slot - with_svg, REQUESTS_PER_PASS - with_svg)
            d = 9 + 30 * (slot - with_svg) // (REQUESTS_PER_PASS - with_svg - 1)
        lam = period(lambda_n)
        matched = sum(b_prime(b) for _, b in farey(d) if covered(b, lam))
        argv = ["bundle", "--modulus", str(m), "--lambda-n", str(lambda_n),
                "--max-denominator", str(d)]
        path = None
        if svg:
            path = f"{workdir}/o{slot:02d}.svg"
            argv += ["--out", path]
        reqs.append(Request("bundle", argv, units=matched + (m if svg else 0), out=path,
                            info={"m": m, "lambda_n": lambda_n, "d": d,
                                  "width": 800, "height": 800},
                            memory=slot in (with_svg - 1, REQUESTS_PER_PASS - 1)))
    return reqs


_GENERATORS = {"raster": _raster, "oracle": _oracle, "survey": _survey, "overlay": _overlay}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, workdir: str) -> list[Request]:
    """The requests of one pass of `workload`, in run order, for `seed`.

    Output files go under `workdir`; the same arguments always give the
    same argv lists.
    """
    rng = random.Random(f"{workload}:{seed}")
    reqs = _GENERATORS[workload](rng, workdir)
    assert len(reqs) == REQUESTS_PER_PASS
    for req in reqs:
        req.info["sample_seed"] = rng.randrange(2**32)
    rng.shuffle(reqs)
    return reqs
