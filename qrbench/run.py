"""Closed-loop benchmark of the qrpat command line.

Usage, from the root of a source checkout (nothing needs installing):

    python3 qrbench/run.py --workload raster --seed 1 --seconds 20 --trace 0

One client in one thread calls ``qrpat.cli.main(argv)`` in process and
sends the next request only when the previous one has returned; stdout
and stderr are captured and QRPAT_THREADS is cleared.  The library sees
only the generated argv lists (see workloads.py).

A run makes these passes over the workload's requests, each separate:

* a warm-up pass, untimed, whose outputs are checked by checks.py and
  whose SHA-256 digests become the reference for every later pass;
* with ``--trace 0``: timed passes until ``--seconds`` have elapsed (at
  least MIN_PASSES), then one untimed memory pass under tracemalloc over
  the requests workloads.py marks for it;
* with ``--trace 1``: untimed and traced passes in turn until
  ``--seconds`` have elapsed, giving per-layer figures (tracer.py) and
  the tracing overhead.

``setup_s`` is the median time from launching a fresh interpreter to the
first answer of ``qrpat.cli.main`` (a one-anchor predict), over
SETUP_LAUNCHES child processes.  The children run with ``-S``: the site
module's cost depends on what else is installed, not on qrpat.

End-to-end times are in reference seconds.  On a shared 2-CPU machine the
speed this process gets swings by up to half within seconds, and runs
then disagree by 10-25%.  So a fixed calibration job (calibrate(), no
qrpat code) is timed before and after every request and setup launch,
and each time is scaled by CAL_REFERENCE_S over the mean of the two
calibrations around it.  The unscaled figures are kept in the results
file; per-layer times are unscaled.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Environment, digests, failures, unscaled
figures and (in a traced run) every span go to
qrbench-out/<workload>-s<seed>-t<trace>.json.

Seed HELD_OUT_SEED is reserved: do not tune on it; use it to confirm a
claim made on other seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from qrbench.checks import CheckFailed, check  # noqa: E402
from qrbench.tracer import Tracer  # noqa: E402
from qrbench.workloads import REQUESTS_PER_PASS, UNITS, WORKLOADS, generate  # noqa: E402

HELD_OUT_SEED = 7919
MIN_PASSES = 4
MIN_TRACED_PASSES = 3
SETUP_LAUNCHES = 15
# Reference seconds are seconds on a machine where calibrate() takes this
# long: about its median time on the 2-CPU machine the bounds were set on.
CAL_REFERENCE_S = 0.013
OUT_DIR = "qrbench-out"
SETUP_CODE = (
    "from qrpat.cli import main; "
    "raise SystemExit(main(['predict', '--modulus', '20171', '--fraction', '1/3', '--json']))"
)


def tail_percentile(samples: int) -> float:
    """Highest standard percentile with at least ten samples above it."""
    return max(q for q in (50, 75, 90, 95, 99, 99.9) if samples * (100 - q) / 100 >= 10)


# Fixed from the smallest sample count a run can have, so every run of a
# workload reports the same percentile.
TAIL_Q = tail_percentile(REQUESTS_PER_PASS * MIN_PASSES)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "units_per_s": "1/s",
    "peak_alloc_mb": "MB",
    "output_bytes": "B",
    "success_rate": "ratio",
}

# Per-layer metric -> unit.  <module>.<function>.{calls,s,self_s} come from
# the tracer's statistics, other <module>.<name> entries from its counters.
PER_LAYER = {
    "parabola.covering_members.calls": "count",
    "parabola.covering_members.s": "s",
    "parabola.residues_near.calls": "count",
    "parabola.residues_near.s": "s",
    "parabola.oracle_points": "count",
    "parabola.parabola_family.calls": "count",
    "parabola.parabola_family.s": "s",
    "parabola.fraction_params.calls": "count",
    "parabola.fraction_params.s": "s",
    "parabola.members": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "patterns.beta_signature.calls": "count",
    "patterns.beta_signature.s": "s",
    "patterns.layouts_equivalent.calls": "count",
    "patterns.layouts_equivalent.s": "s",
    "patterns.vertex_on_bundle.calls": "count",
    "patterns.vertex_on_bundle.s": "s",
    "patterns.vertices_matched": "count",
    "render.sample_bundle_curve.calls": "count",
    "render.sample_bundle_curve.s": "s",
    "render.curve_samples": "count",
    "render.overlay_predictions.s": "s",
    "render.overlay_predictions.self_s": "s",
    "render.write_svg.s": "s",
    "render.svg_bytes": "B",
    "render.render_scatter.s": "s",
    "render.render_sum_squares.s": "s",
    "render.write_pgm.s": "s",
    "render.scatter_points": "count",
    "residues.farey_fractions.calls": "count",
    "residues.farey_fractions.s": "s",
    "residues.qr_mod.calls": "count",
    "cli.json_bytes": "B",
    "cli.requests_failed": "count",
    "bench.wall_s.untraced": "s",
    "bench.wall_s.traced": "s",
    "bench.trace_overhead_s": "s",
}

_STAT_FIELDS = {"calls": "calls", "s": "total", "self_s": "self_time"}


def layer_value(tracer: Tracer, metric: str) -> float:
    """Current value of a per-layer metric from the tracer; 0 if never called."""
    if metric in tracer.counters:
        return tracer.counters[metric]
    name, _, field = metric.rpartition(".")
    stat = tracer.stats.get(name)
    if field not in _STAT_FIELDS or stat is None:
        return 0
    return getattr(stat, _STAT_FIELDS[field])


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibrate() -> float:
    """Seconds taken by one fixed pure-Python job that runs no qrpat code.

    The job mixes the kinds of work the workloads do (small and large
    integer arithmetic, rationals, byte buffers, formatting and JSON), so a
    change in the speed the machine lends this process moves it about as
    much as it moves a request.
    """
    start = perf_counter()
    m, big = 1_000_003, 10**30 + 57
    pixels = bytearray(4096)
    acc = 0
    for x in range(24_000):
        r = x * x % m
        pixels[r & 4095] = 0
        acc += (big * x + r) % (m * m)
    total = Fraction(0)
    for k in range(1, 240):
        total = (total + Fraction(k, k + 1)) % 1
    json.dumps([{"x": x, "y": f"{x / 7:.6f}"} for x in range(2400)])
    return perf_counter() - start


def speed_factors(calibrations: list[float]) -> list[float]:
    """Scale factors to reference seconds for the intervals between calibrations."""
    return [2 * CAL_REFERENCE_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


def measure_setup(root: Path, launches: int) -> tuple[list[float], list[float], int]:
    """Launch-to-answer times of fresh interpreters, their speed factors, and
    the number of failed launches.  The first launch, which only warms the
    file cache and byte-code, is not returned."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("QRPAT_THREADS", None)
    times = []
    calibrations = [calibrate()]
    failed = 0
    for _ in range(launches + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-S", "-c", SETUP_CODE], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(perf_counter() - start)
        calibrations.append(calibrate())
        if proc.returncode != 0:
            failed += 1
            print(f"setup launch exited {proc.returncode}: {proc.stderr.decode()[-500:]}",
                  file=sys.stderr)
    return times[1:], speed_factors(calibrations)[1:], failed


class Bench:
    """The requests of one workload and the client loop that runs them."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.reference: list[str | None] = [None] * len(requests)
        self.output_bytes = 0
        self.json_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_alloc = 0

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        if tracemalloc.is_tracing():
            # Count only what the request allocates, not what the loop holds
            # or garbage that earlier requests left for the collector.
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed request; the loop goes on
            rc = "exception"
            err.write(traceback.format_exc())
        latency = perf_counter() - start
        if tracemalloc.is_tracing():
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1] - base)
        return rc, latency, out.getvalue(), err.getvalue()

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"request {index} ({' '.join(self.requests[index].argv)}): "
                                 f"{message}")

    def run_pass(self, reference: bool = False, before=None,
                 memory_only: bool = False) -> list[float]:
        """One pass over the requests; returns per-request latencies in seconds.

        With reference set, outputs are checked and their digests kept;
        otherwise every output must match the reference digest.  With
        memory_only set, only requests marked for the memory pass run.
        """
        latencies = []
        for index, req in enumerate(self.requests):
            if memory_only and not req.memory:
                continue
            if before is not None:
                before(index)
            rc, latency, stdout, stderr = self._call(req.argv)
            latencies.append(latency)
            self.attempted += 1
            data = None
            if req.out is not None and rc == 0:
                try:
                    data = Path(req.out).read_bytes()
                except OSError as exc:
                    self._fail(index, f"cannot read output: {exc}")
                    continue
            digest = hashlib.sha256(
                f"{rc}\n".encode() + stdout.encode() + b"\0" + (data or b"")).hexdigest()
            if reference:
                self.reference[index] = digest
                self.output_bytes += len(stdout.encode()) + len(data or b"")
                self.json_bytes += len(stdout.encode())
                if rc != 0:
                    self._fail(index, f"exit code {rc}: {stderr.strip()[-500:]}")
                    continue
                try:
                    check(req, stdout, data)
                except CheckFailed as exc:
                    self._fail(index, f"check failed: {exc}")
            elif digest != self.reference[index]:
                self._fail(index, f"output differs from the warm-up pass (exit code {rc})")
        return latencies


def _figures(setup, walls, samples, units) -> dict:
    """Time figures from setup times, pass walls and sorted request latencies."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_tail_ms": samples[math.ceil(len(samples) * TAIL_Q / 100) - 1] * 1e3,
        "units_per_s": units * len(walls) / sum(samples),
    }


def end_to_end(bench: Bench, seconds: float, record: dict) -> dict:
    """Untraced figures, times in reference seconds: setup, timed passes,
    then one tracemalloc pass."""
    setup, setup_factors, setup_failed = measure_setup(ROOT, SETUP_LAUNCHES)
    bench.attempted += SETUP_LAUNCHES + 1
    bench.failed += setup_failed
    raw, scaled = [], []
    deadline = perf_counter() + seconds
    while len(raw) < MIN_PASSES or perf_counter() < deadline:
        gc.collect()
        calibrations = []
        latencies = bench.run_pass(before=lambda index: calibrations.append(calibrate()))
        calibrations.append(calibrate())
        raw.append(latencies)
        scaled.append([t * f for t, f in zip(latencies, speed_factors(calibrations))])
    gc.collect()
    tracemalloc.start()
    try:
        bench.run_pass(memory_only=True)
    finally:
        tracemalloc.stop()
    units = sum(req.units for req in bench.requests)
    figures = _figures([t * f for t, f in zip(setup, setup_factors)],
                       [sum(p) for p in scaled], sorted(t for p in scaled for t in p), units)
    record.update(passes=len(raw), latency_samples=len(raw) * len(bench.requests),
                  tail_percentile=TAIL_Q, units_per_pass=units,
                  unscaled=_figures(setup, [sum(p) for p in raw],
                                    sorted(t for p in raw for t in p), units),
                  pass_wall_s=[sum(p) for p in scaled], unscaled_pass_wall_s=[sum(p) for p in raw])
    return dict(figures, peak_alloc_mb=bench.peak_alloc / 1e6, output_bytes=bench.output_bytes,
                success_rate=1 - bench.failed / bench.attempted)


def per_layer(bench: Bench, seconds: float, record: dict) -> dict:
    """Traced figures: untraced and traced passes in turn, medians per pass."""
    untraced, traced, snapshots = [], [], []
    tracer = Tracer()
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
        gc.collect()
        untraced.append(sum(bench.run_pass()))
        gc.collect()
        with tracer:
            tracer.reset()
            offset = len(traced) * len(bench.requests)

            def before(index):
                tracer.request_id = offset + index

            traced.append(sum(bench.run_pass(before=before)))
        snapshots.append({name: layer_value(tracer, name) for name in PER_LAYER})
    metrics = {name: statistics.median(s[name] for s in snapshots) for name in PER_LAYER}
    metrics["cli.json_bytes"] = bench.json_bytes
    metrics["cli.requests_failed"] = bench.failed
    metrics["bench.wall_s.untraced"] = statistics.median(untraced)
    metrics["bench.wall_s.traced"] = statistics.median(traced)
    metrics["bench.trace_overhead_s"] = metrics["bench.wall_s.traced"] - metrics[
        "bench.wall_s.untraced"]
    record.update(passes=len(traced), untraced_wall_s=untraced, traced_wall_s=traced,
                  span_fields=["id", "parent", "request", "name", "start", "end"],
                  spans=tracer.spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qrpat" / "__init__.py").is_file():
        print(f"error: no qrpat sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("QRPAT_THREADS", None)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("qrpat.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported qrpat from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = Path(OUT_DIR)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    requests = generate(args.workload, args.seed, workdir.as_posix())
    bench = Bench(cli, requests)
    record = {
        "workload": args.workload,
        "unit": UNITS[args.workload],
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "argv": [req.argv for req in requests],
    }
    try:
        bench.run_pass(reference=True)
        if args.trace:
            metrics, units = per_layer(bench, args.seconds, record), PER_LAYER
        else:
            metrics, units = end_to_end(bench, args.seconds, record), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_digest = hashlib.sha256("\n".join(map(str, bench.reference)).encode()).hexdigest()
    record.update(metrics={name: {"value": metrics[name], "unit": units[name]}
                           for name in units},
                  attempted=bench.attempted, failed=bench.failed, failures=bench.failures,
                  output_digest=run_digest, request_digests=bench.reference)
    result_path = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(record) + "\n")

    for message in bench.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {bench.attempted} requests, "
          f"{bench.failed} failed, output digest {run_digest}")
    if not args.trace:
        print(f"  {record['passes']} timed passes, {record['latency_samples']} latency "
              f"samples, tail = p{TAIL_Q}, {record['units_per_pass']} {record['unit']} per pass")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    print(f"  details in {result_path}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
