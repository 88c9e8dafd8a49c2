"""Tests for the pinned-request runner (tests/pins.py) on small real requests."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from pins import EMPTY, PINS, Pin
from test_cli import GOLDEN_PREDICT
from test_render import GOLDEN_PLOT_20171

PREDICT = Pin("predict", ("predict", "--modulus", "20171", "--fraction", "1/3"),
              GOLDEN_PREDICT[("--modulus", "20171", "--fraction", "1/3")])
PLOT = Pin("plot", ("plot", "--modulus", "20171", "--out", "{out}"), EMPTY,
           out=GOLDEN_PLOT_20171)
PLANTED = "0" * 64


def run_all(rows):
    """run_all(rows) of tests/pins.py in a fresh interpreter, as CI runs it: Linux counts the
    runner's own peak RSS in each child's, and this process's is pytest's."""
    code = f"import sys; from pins import Pin, run_all; sys.exit(run_all({list(rows)!r}))"
    child = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                           capture_output=True, text=True, timeout=120, check=False)
    assert child.stderr == ""
    return child.returncode, [json.loads(line) for line in child.stdout.splitlines()]


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
    code, results = run_all([PREDICT._replace(seconds=0), PREDICT._replace(mb=0), refused])
    assert code == 1
    assert [result["pass"] for result in results] == [False, False, False]
    assert re.fullmatch(r"\d+\.\d\d s, bound 0 s", results[0]["reason"])
    assert re.fullmatch(r"\d+\.\d MB peak RSS, bound 0 MB", results[1]["reason"])
    assert (results[2]["exit"], results[2]["reason"]) == (2, "exit 2")


def test_each_row_reports_its_own_peak_rss():
    # An 8000x8000 canvas holds 64 MB; RUSAGE_CHILDREN would report it for the small row too.
    large = PLOT._replace(argv=PLOT.argv + ("--width", "8000", "--height", "8000"))
    _, (big, small) = run_all([large, PREDICT])
    assert big["peak_mb"] > 64
    assert small["pass"] and small["peak_mb"] < big["peak_mb"] / 2


def test_every_pin_has_its_own_name_and_pins_the_file_it_writes():
    assert len({pin.name for pin in PINS}) == len(PINS) == 5
    for pin in PINS:
        assert ("{out}" in pin.argv) == (pin.out is not None), pin.name
