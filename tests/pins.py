"""Pinned qrpat requests, each gated on its output digests, time and peak RSS.

A row is a name, an argv, the SHA-256 of its stdout, its stderr and the file
``{out}`` names (in a temporary directory), a seconds bound and an optional MB
bound on its peak RSS above the floor's: FLOOR, a trivial request, peaks at what
the interpreter and qrpat take before any work, which differs more between
machines than what a row adds to it.  ``python3 tests/pins.py --all`` (or
``NAME...``) runs FLOOR, then the rows, prints one JSON line each, runs every row
even after a failure, and exits 1 if any failed.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
EMPTY = hashlib.sha256(b"").hexdigest()
M40 = str(10**40 + 1)
M4000 = str(10**4000 + 7)

Pin = namedtuple("Pin", "name argv stdout stderr out seconds mb", defaults=(EMPTY, None, 10, None))

# 158 bytes: two layouts compared at D = 9, no family built.
FLOOR = Pin("floor", ("equiv", "--m1", "20179", "--m2", "20183"),
            "2846f51987baaf452b04f0a94115c8ebbcbb885f97c1e3d904624c425ee2ca12", seconds=5)

PINS = (
    # 58,403,044 bytes, 987,919 line indices; building it whole took ~9 s and ~800 MB (2-CPU VM).
    Pin("near-cap-bundle",
        ("bundle", "--modulus", M40, "--lambda-n", "400", "--max-denominator", "180"),
        "c601d791fe061cb7f14271bcb73d219bac599584951b888d0758499de1d8d181", mb=10),
    # 382 bytes: "ok" and the 9,881 fractions, each checked against its family_rows rows.
    Pin("near-cap-verify",
        ("verify", "--modulus", M40, "--max-denominator", "180", "--window", "1"),
        "d085fd24faa382263296ef3202a2a910d322c4ead88b514bc98185ac2d4602bb", mb=10),
    # Two clipped windows of 500,000 points each, squared as covering_members reads them;
    # listing each window first peaked 77 MB over the floor (95 MB in all, 2-CPU VM).
    Pin("wide-window-verify",
        ("verify", "--modulus", M40, "--max-denominator", "1", "--window", "499999"),
        "822708375222bd75cb66b36fed08217a6387155b2df5aada5624a14ca6382c7a", mb=10),
    # A streamed 76,877,838-byte SVG; formatted whole, it took ~7.9 s and ~516 MB (2-CPU VM).
    # Its scatter holds 3 MB of ordinates, packed two characters a byte (6 MB unpacked).
    Pin("large-bundle-svg",
        ("bundle", "--modulus", "999983", "--lambda-n", "400", "--max-denominator", "180",
         "--out", "{out}"),
        "e4167f3803bb3730a7070ea0deb2d40756d13fa7b5d40fbd3ae4ee71b2260015",
        out="7430b7fe895dd8e2b037083f6af6e20f0ce967ae50d5f8bc324c1527b4e1f030", mb=10),
    # 225,428,136 bytes: all 987,919 vertices and coefficients, streamed from member rows.
    Pin("near-cap-predict",
        ("predict", "--modulus", M40, "--max-denominator", "180", "--json"),
        "2b6e785d090f18f56634262e54464c0b5f4a5186a79d3cc9cea4ac9d666235ce", mb=10),
    # Only b <= 2 is covered: 9,878 fractions skipped, 676,496 bytes of warnings on stderr.
    Pin("skip-heavy-bundle",
        ("bundle", "--modulus", M40, "--lambda-n", "2", "--max-denominator", "180"),
        "f06a5de5896c3fa3dc3fe61513d6bf7b40d4b100e88f87d569220380cbe59c43",
        "101a21ac29b3c389960af671a19644fbe965e2133f031745e2b8f5f5740de275", seconds=5, mb=10),
    # 269,611,111 bytes: one entry of 999,999 members, a window of items at a time; formatted
    # by one % over the whole entry it took ~9 s and ~1,055 MB (2-CPU VM).
    Pin("one-fraction-predict",
        ("predict", "--modulus", M40, "--fraction", "1/999999", "--json"),
        "594679267f782e5214c3f0be10c0d81164a24fe67c94f2d75c7fc43015de27d4", mb=10),
    # 99,317,285 bytes: F_36's 7,815 members, each at m's weight of 123, so 961,245 of the
    # member cap's 10^6; 12.4 s with x_num formatted and C squared per member (2-CPU VM).
    # At weight 1, --max-denominator 180 would run ~20 minutes.
    Pin("long-modulus-predict",
        ("predict", "--modulus", M4000, "--max-denominator", "36", "--json"),
        "310962230d6a92791984b251baf4d1d41b92cf668aa3fe875eea48a2c1ddbc86", seconds=15, mb=10),
    # 4,340 bytes: F_24's 181 default windows, 14,568 points at m's weight of 584, so
    # 8,507,712 of the point cap's 10^7; 6.8 s (2-CPU VM).  At the weights before, 401 a
    # point and 1 a member, --max-denominator 28 passed, and 164 with --window 1 (18.8 s).
    Pin("long-modulus-verify",
        ("verify", "--modulus", M4000, "--max-denominator", "24"),
        "2f0e911b3529101c55171f467de11ebc7dcaad4f405dd50ca4b4b92a75c7f8f6", seconds=15, mb=10),
    # A 640,015-byte PGM of 49,999,995 squares, just under the scatter cap; a forked child
    # draws half its columns, and os.wait4's peak RSS covers that grandchild too.
    Pin("near-cap-plot", ("plot", "--modulus", "99999989", "--out", "{out}"), EMPTY,
        out="22b2a0002c9f5810a5e37b01866802f863c96469fd41dd2cc32175d103a743da", mb=10),
)


def _digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(pin: Pin, floor_mb: float | None) -> dict:
    """Run one pin as ``python -m qrpat`` and judge it, its MB bound against its peak
    above floor_mb, FLOOR's peak (None when the pin is FLOOR, which has no MB bound).
    stderr goes to a file: piped and unread, it blocks the child past 64 KB.  Peak
    RSS is the child's, from ``os.wait4`` (``RUSAGE_CHILDREN`` keeps the largest child
    so far); at exec Linux counts this process's own peak in it, so this one holds little."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = os.path.join(tmp, "out"), os.path.join(tmp, "stderr")
        argv = [sys.executable, "-m", "qrpat", *(arg.format(out=out) for arg in pin.argv)]
        started = time.perf_counter()
        with open(err, "wb") as stderr, subprocess.Popen(
                argv, env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=subprocess.PIPE, stderr=stderr) as child:
            stdout, size = hashlib.sha256(), 0
            for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
                stdout.update(chunk)
                size += len(chunk)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - started
        digests = {"stdout": (stdout.hexdigest(), pin.stdout),
                   "stderr": (_digest(err), pin.stderr)}
        if pin.out is not None:
            digests["out"] = (_digest(out) if os.path.exists(out) else "missing", pin.out)
    mb = usage.ru_maxrss / 1024  # KiB on Linux
    over = None if floor_mb is None else mb - floor_mb
    reasons = [f"exit {child.returncode}"] if child.returncode else []
    reasons += [f"{what} digest {got}, pinned {want}" for what, (got, want) in digests.items()
                if got != want]
    if seconds >= pin.seconds:
        reasons.append(f"{seconds:.2f} s, bound {pin.seconds} s")
    if pin.mb is not None and over >= pin.mb:
        reasons.append(f"{over:.1f} MB over the floor's {floor_mb:.1f} MB, bound {pin.mb} MB")
    return {"name": pin.name, "exit": child.returncode, "seconds": round(seconds, 3),
            "peak_mb": round(mb, 1), "over_floor_mb": None if over is None else round(over, 1),
            "stdout_bytes": size, "stdout_mb_per_s": round(size / seconds / 1e6, 3),
            "pass": not reasons, "reason": "; ".join(reasons) or None}


def run_all(pins) -> int:
    """Run and print FLOOR, then every pin in order; 1 if any failed, else 0."""
    floor = run(FLOOR, None)
    print(json.dumps(floor), flush=True)
    failed = not floor["pass"]
    for pin in pins:
        result = run(pin, floor["peak_mb"])
        print(json.dumps(result), flush=True)
        failed |= not result["pass"]
    return failed


if __name__ == "__main__":
    by_name, names = {pin.name: pin for pin in PINS}, sys.argv[1:]
    if not names or any(name != "--all" and name not in by_name for name in names):
        sys.exit(f"usage: python3 tests/pins.py --all | NAME...  (names: {' '.join(by_name)})")
    sys.exit(run_all(PINS if "--all" in names else [by_name[name] for name in names]))
