"""Tests for the pinned-request runner (tests/pins.py) on small real requests."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from pins import EMPTY, FLOOR, PINS, Pin
from test_cli import GOLDEN_PREDICT
from test_render import GOLDEN_PLOT_20171

PREDICT = Pin("predict", ("predict", "--modulus", "20171", "--fraction", "1/3"),
              GOLDEN_PREDICT[("--modulus", "20171", "--fraction", "1/3")])
PLOT = Pin("plot", ("plot", "--modulus", "20171", "--out", "{out}"), EMPTY,
           out=GOLDEN_PLOT_20171)
# An 8000x8000 canvas: 64 MB of pixels.
LARGE = PLOT._replace(name="large", argv=PLOT.argv + ("--width", "8000", "--height", "8000"),
                      out="de0ee6195ad75b06d60edd9534e80f01fecc4bd37fb35cee0e768468fd566cfb")
PLANTED = "0" * 64


def run_all(rows):
    """run_all(rows) of tests/pins.py in a fresh interpreter, as CI runs it: Linux counts the
    runner's own peak RSS in each child's, and this process's is pytest's.  The floor's
    line, printed first, is checked and left out of the results."""
    code = f"import sys; from pins import Pin, run_all; sys.exit(run_all({list(rows)!r}))"
    child = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                           capture_output=True, text=True, timeout=120, check=False)
    assert child.stderr == ""
    floor, *results = [json.loads(line) for line in child.stdout.splitlines()]
    assert (floor["name"], floor["pass"], floor["over_floor_mb"]) == ("floor", True, None)
    for result in results:  # both figures are rounded to 0.1 MB
        assert abs(result["over_floor_mb"] - (result["peak_mb"] - floor["peak_mb"])) < 0.15
    return child.returncode, results


def test_planted_digests_fail_only_their_own_rows():
    rows = [PREDICT, PREDICT._replace(name="stdout", stdout=PLANTED),
            PLOT._replace(name="out", out=PLANTED),
            PREDICT._replace(name="stderr", stderr=PLANTED), PLOT]
    code, results = run_all(rows)
    assert code == 1
    assert [result["name"] for result in results] == ["predict", "stdout", "out", "stderr", "plot"]
    assert [result["pass"] for result in results] == [True, False, False, False, True]
    assert [result["exit"] for result in results] == [0] * 5
    for result in results[1:4]:
        assert result["reason"].startswith(f"{result['name']} digest ")
        assert result["reason"].endswith(f", pinned {PLANTED}") and ";" not in result["reason"]
    assert results[0]["reason"] is None
    assert results[0]["stdout_bytes"] == results[1]["stdout_bytes"] > 0
    assert results[2]["stdout_bytes"] == 0
    assert run_all([PLOT, PREDICT])[0] == 0


def test_zero_bounds_and_a_nonzero_exit_fail():
    refused = Pin("refused", ("verify", "--modulus", "81", "--max-denominator", "9"), EMPTY,
                  hashlib.sha256(b"error: modulus 81 must exceed 9^2\n").hexdigest())
    code, results = run_all([PREDICT._replace(seconds=0), refused])
    assert code == 1
    assert [result["pass"] for result in results] == [False, False]
    assert re.fullmatch(r"\d+\.\d\d s, bound 0 s", results[0]["reason"])
    assert (results[1]["exit"], results[1]["reason"]) == (2, "exit 2")


def test_mb_bounds_apply_to_the_peak_above_the_floor():
    # The large canvas peaks about 58 MB over the floor and 76 MB in all (2-CPU VM):
    # a 70 MB bound passes it, though its whole peak is over 70; a 50 MB bound fails it.
    code, (passed, planted) = run_all([LARGE._replace(mb=70), LARGE._replace(mb=50)])
    assert code == 1
    assert passed["pass"] and passed["reason"] is None
    assert not planted["pass"]
    assert re.fullmatch(r"\d+\.\d MB over the floor's \d+\.\d MB, bound 50 MB",
                        planted["reason"])
    assert 50 <= planted["over_floor_mb"] < 70


def test_each_row_reports_its_own_peak_rss():
    # RUSAGE_CHILDREN would report the large canvas's peak for the small row too.
    _, (big, small) = run_all([LARGE, PREDICT])
    assert big["peak_mb"] > 64
    assert small["pass"] and small["peak_mb"] < big["peak_mb"] / 2
    # plot writes its canvas to a file and nothing to stdout; predict writes its JSON there
    assert (big["stdout_bytes"], big["stdout_mb_per_s"]) == (0, 0)
    rate = small["stdout_bytes"] / small["seconds"] / 1e6  # seconds are rounded to 1 ms
    assert small["stdout_bytes"] > 0 and abs(small["stdout_mb_per_s"] - rate) < 0.001 + rate / 50


def test_every_pin_has_its_own_name_and_pins_the_file_it_writes():
    assert len({pin.name for pin in (FLOOR, *PINS)}) == len(PINS) + 1 == 11
    for pin in (FLOOR, *PINS):
        assert ("{out}" in pin.argv) == (pin.out is not None), pin.name
