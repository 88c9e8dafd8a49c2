"""Tests of the benchmark itself: generation, output checks and tracing.

Run with the library on the path, as for the main suite:
PYTHONPATH=src python -m pytest qrbench
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import qrpat.cli
import qrpat.parabola
from qrbench import checks, run, workloads
from qrbench.tracer import Tracer


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert qrpat.cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_regenerates_identical_argv(workload):
    first = [r.argv for r in workloads.generate(workload, 11, "work")]
    again = [r.argv for r in workloads.generate(workload, 11, "work")]
    other = [r.argv for r in workloads.generate(workload, 12, "work")]
    assert first == again
    assert first != other
    assert len(first) == workloads.REQUESTS_PER_PASS


def test_predict_check_rejects_wrong_r0():
    req = workloads.Request("predict", [], units=0, info={"m": 10**15 + 37, "d": 6})
    stdout = _cli(["predict", "--modulus", str(10**15 + 37), "--max-denominator", "6",
                   "--json"])
    checks.check(req, stdout, None)
    entries = json.loads(stdout)
    entries[3]["r0"] += 1
    with pytest.raises(checks.CheckFailed, match="r0"):
        checks.check(req, json.dumps(entries), None)


def test_plot_check_rejects_flipped_pixel(tmp_path):
    out = tmp_path / "plot.pgm"
    req = workloads.Request(
        "plot", [], units=0, out=str(out),
        info={"m": 20171, "width": 800, "height": 800, "half": True,
              "golden": workloads.GOLDEN_PLOT_20171, "sample_seed": 5})
    _cli(["plot", "--modulus", "20171", "--out", str(out)])
    data = bytearray(out.read_bytes())
    checks.check(req, "", bytes(data))
    header = len(b"P5\n800 800\n255\n")
    _, index = checks.plot_samples(req)[0]
    data[header + index] = 255
    with pytest.raises(checks.CheckFailed, match="not black"):
        checks.check(req, "", bytes(data))


def test_verify_check_rejects_failed_report():
    req = workloads.Request("verify", [], units=0, info={"m": 10007, "d": 6})
    stdout = _cli(["verify", "--modulus", "10007", "--max-denominator", "6"])
    checks.check(req, stdout, None)
    report = json.loads(stdout)
    report["ok"] = False
    with pytest.raises(checks.CheckFailed, match="ok=False"):
        checks.check(req, json.dumps(report), None)


def test_equiv_check_knows_the_witness():
    req = workloads.Request("equiv", [], units=0, info={
        "m1": 20179, "m2": 20183, "lambda_n": 9, "d": 9, "congruent": False})
    stdout = _cli(["equiv", "--m1", "20179", "--m2", "20183", "--max-denominator", "9"])
    checks.check(req, stdout, None)
    report = json.loads(stdout)
    assert report["equivalent"] is False
    report["witness"] = {"a": 1, "b": 9}
    with pytest.raises(checks.CheckFailed, match="witness"):
        checks.check(req, json.dumps(report), None)


def test_tracer_sees_calls_through_cli_bound_name():
    original = qrpat.cli.covering_members
    family = qrpat.parabola.parabola_family(
        qrpat.parabola.fraction_params(20171, qrpat.cli.ReducedFraction(1, 3)))
    with Tracer() as tracer:
        assert qrpat.cli.covering_members is not original
        qrpat.cli.covering_members(family, 6724, 8965)
        assert tracer.stats["parabola.covering_members"].calls == 1
        _cli(["verify", "--modulus", "10007", "--max-denominator", "5", "--window", "30"])
    assert qrpat.cli.covering_members is original
    assert qrpat.parabola.covering_members is original
    units = workloads.oracle_points(10007, 5, 30)
    assert tracer.counters["parabola.oracle_points"] == units
    assert tracer.stats["parabola.covering_members"].calls == units + 1
    main = tracer.stats["cli.main"]
    assert main.calls == 1 and 0 < main.self_time < main.total
    names = {span[3] for span in tracer.spans}
    assert "parabola.residues_near" in names and "parabola.covering_members" not in names


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
