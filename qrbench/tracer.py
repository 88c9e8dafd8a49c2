"""Per-layer tracing of qrpat from outside the library.

Tracer wraps every public function defined in a qrpat module and
installs the wrapper under every module namespace that holds the
function, because cli, render and patterns bind names with
``from .x import y``; patching only the defining module would miss
calls such as ``qrpat.cli.covering_members``.

Each wrapped call adds to its function's call count, total time and self
time (total minus the time of traced calls made inside it).  Calls of
hot leaf functions are only aggregated; every other call also records a
span (id, parent id, request id, name, start, end), kept in memory until
the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

# Called per residue point or per member; a span each would swamp the trace.
HOT = frozenset({
    "parabola.covering_members",
    "parabola.evaluate_parabola",
    "parabola.canonical_offsets",
    "parabola.verify_identity",
    "residues.qr_mod",
    "residues.check_modulus",
    "residues.balanced_residue",
    "patterns.check_period",
    "patterns.bundle_parameter",
})


def _scatter_points(m, width, height, half_range=True):
    return (m + 1) // 2 if half_range else m


def _svg_bytes(scene, path):
    return os.path.getsize(path)


# Work counters: traced name -> (counter name, count(args, kwargs, result)).
COUNTERS = {
    "parabola.residues_near": ("parabola.oracle_points", lambda a, k, r: len(r)),
    "parabola.parabola_family": ("parabola.members", lambda a, k, r: len(r.members)),
    "patterns.vertex_on_bundle": ("patterns.vertices_matched", lambda a, k, r: len(r)),
    "render.sample_bundle_curve": (
        "render.curve_samples", lambda a, k, r: sum(len(seg) for seg in r.segments)),
    "render.write_svg": ("render.svg_bytes", lambda a, k, r: _svg_bytes(*a, **k)),
    "render.render_scatter": ("render.scatter_points", lambda a, k, r: _scatter_points(*a, **k)),
}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Context manager that traces calls into the given package while active."""

    def __init__(self, package: str = "qrpat") -> None:
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.request_id = -1
        self._stack: list[list] = []
        self._next_span = 0
        self._patches: list[tuple] = []

    def reset(self) -> None:
        """Clear statistics and counters, keeping recorded spans."""
        self.stats = {name: Stat() for name in self.stats}
        self.counters = {name: 0 for name in self.counters}

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def _wrap(self, fn, name: str):
        stack = self._stack
        hot = name in HOT
        counter = COUNTERS.get(name)
        self.stats.setdefault(name, Stat())
        if counter:
            self.counters.setdefault(counter[0], 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if not hot:
                span_id = self._next_span
                self._next_span += 1
            parent = stack[-1][2] if stack else None
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = self.stats[name]
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if not hot:
                    self.spans.append((span_id, parent, self.request_id, name, start, end))
            if counter:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self._wrap(value, f"{short}.{attr}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._patches.append((mod, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
