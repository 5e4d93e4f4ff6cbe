"""Outside-in tracing of regap's layers, installed in a benchmark child.

``install`` wraps the public functions and methods of each ``regap`` module
(at every module binding, since ``from .x import y`` copies the name) plus
``numpy.fft.fftn``/``ifftn``, which regap looks up at call time.  Nothing in
``src/`` changes.  Each wrapped call records a span (layer, start, end,
parent span, whether it is the outermost span of its layer); hot
constructors (``Point``, ``lerp``, trace records) only increment counters.
Spans stay in memory and are written once, when the run ends.

``layer_metrics`` turns a written trace into the per-layer metrics: a
layer's ``.s`` is the time inside its outermost spans, its ``.self_s`` the
time its spans do not spend in child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

# (metric, unit, kind, source): kind "calls"/"s"/"self_s" read the spans of
# layer ``source``; kind "count" reads the counter ``source``.
PER_LAYER = (
    ("divergences.boundary.calls", "count", "calls", "divergences.boundary"),
    ("divergences.boundary.s", "s", "s", "divergences.boundary"),
    ("divergences.boundary.self_s", "s", "self_s", "divergences.boundary"),
    ("divergences.residual.calls", "count", "calls", "divergences.residual"),
    ("divergences.residual.s", "s", "s", "divergences.residual"),
    ("divergences.residual_gradient.calls", "count", "calls", "divergences.residual_gradient"),
    ("divergences.kernel.s", "s", "s", "divergences.kernel"),
    ("divergences.forward.calls", "count", "calls", "divergences.forward"),
    ("divergences.forward.s", "s", "s", "divergences.forward"),
    ("divergences.fft.calls", "count", "calls", "divergences.fft"),
    ("divergences.fft.s", "s", "s", "divergences.fft"),
    ("divergences.fft.bytes_computed", "bytes", "count", "divergences.fft.bytes_computed"),
    ("core.first_crossing.calls", "count", "calls", "core.first_crossing"),
    ("core.first_crossing.evals", "count", "count", "core.first_crossing.evals"),
    ("core.first_crossing.self_s", "s", "self_s", "core.first_crossing"),
    ("core.point.count", "count", "count", "core.point.count"),
    ("core.lerp.count", "count", "count", "core.lerp.count"),
    ("core.trace.records", "count", "count", "core.trace.records"),
    ("core.trace.write_s", "s", "s", "core.trace.write"),
    ("core.trace.bytes", "bytes", "count", "core.trace.bytes"),
    ("projectors.fourier_magnitude.calls", "count", "calls", "projectors.fourier_magnitude"),
    ("projectors.fourier_magnitude.s", "s", "s", "projectors.fourier_magnitude"),
    ("projectors.support_nonneg.calls", "count", "calls", "projectors.support_nonneg"),
    ("projectors.support_nonneg.s", "s", "s", "projectors.support_nonneg"),
    ("projectors.affine.calls", "count", "calls", "projectors.affine"),
    ("projectors.affine.s", "s", "s", "projectors.affine"),
    ("projectors.box_magnitude.calls", "count", "calls", "projectors.box_magnitude"),
    ("projectors.box_magnitude.s", "s", "s", "projectors.box_magnitude"),
    ("projectors.membership.calls", "count", "calls", "projectors.membership"),
    ("projectors.membership.s", "s", "s", "projectors.membership"),
    ("projectors.normal_cone.calls", "count", "calls", "projectors.normal_cone"),
    ("algorithms.cycles", "count", "count", "algorithms.cycles"),
    ("algorithms.driver.self_s", "s", "self_s", "algorithms.driver"),
    ("algorithms.measure_rate.s", "s", "s", "algorithms.measure_rate"),
    ("phase.aligned_error.calls", "count", "calls", "phase.aligned_error"),
    ("phase.aligned_error.s", "s", "s", "phase.aligned_error"),
    ("phase.synthesize.s", "s", "s", "phase.synthesize"),
    ("phase.interiority.s", "s", "s", "phase.interiority"),
    ("phase.export.s", "s", "s", "phase.export"),
    ("phase.export.bytes", "bytes", "count", "phase.export.bytes"),
    ("regularity.cbar.s", "s", "s", "regularity.cbar"),
    ("problems.build.s", "s", "s", "problems.build"),
    ("cli.self_s", "s", "self_s", "cli"),
    ("cli.comparison.s", "s", "s", "cli.comparison"),
)


class Recorder:
    """Spans and counters of one traced ``regap run`` call.

    Spans live in flat arrays rather than one object each, so that recording
    them creates nothing for the garbage collector to scan.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.layers: list[str] = []
        self.layer = array("H")    # layer index of each span
        self.parent = array("l")   # index of the enclosing span, -1 at the top
        self.outer = array("b")    # 1 when no span of the same layer encloses it
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: list[int] = []  # open spans per layer

    def span(self, layer: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(result)`` may count."""
        if layer not in self.layers:
            self.layers.append(layer)
            self._depth.append(0)
        lid = self.layers.index(layer)
        layers, parents, outer, starts, ends = (self.layer, self.parent, self.outer,
                                                self.start, self.end)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[lid] == 0)
            ends.append(0.0)
            stack.append(sid)
            depth[lid] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                depth[lid] -= 1
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call only adds 1 to the counter ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "layers": self.layers,
                       "layer": self.layer.tolist(), "parent": self.parent.tolist(),
                       "outer": self.outer.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist(), "counts": dict(self.counts)}, fh)


def _rebind(original, wrapper) -> None:
    """Point every ``regap`` module binding of ``original`` at ``wrapper``."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "regap" or name.startswith("regap.")]
    for module in modules:
        for attr in [a for a, v in vars(module).items() if v is original]:
            setattr(module, attr, wrapper)


def _wrap_method(rec: Recorder, layer: str, cls, name: str) -> None:
    setattr(cls, name, rec.span(layer, cls.__dict__[name]))


def _classes_defining(module, base, method: str):
    return [c for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, base) and c.__module__ == module.__name__
            and method in c.__dict__]


def install(rec: Recorder) -> None:
    """Wrap regap's public layers; ``regap.cli`` must already be imported."""
    import numpy
    from regap import algorithms, cli, core, divergences, phase, problems, projectors, regularity

    counts = rec.counts

    def count_into(name, weigh):
        def after(result):
            counts[name] += weigh(result)
        return after

    functions = {
        "divergences.boundary": [divergences.bregman_line_boundary],
        "algorithms.measure_rate": [algorithms.measure_rate],
        "phase.aligned_error": [phase.aligned_error],
        "phase.synthesize": [phase.synthesize, phase.smooth_object],
        "phase.interiority": [phase.interiority_check],
        "regularity.cbar": [regularity.cbar_subspaces, regularity.cbar_sampled],
        "problems.build": [problems.two_lines, problems.two_subspaces, problems.parallel_lines,
                           problems.slab_problem, problems.perturbed_line, problems.box_affine,
                           problems.box_affine_regularized],
        "cli": [cli.main],
        "cli.comparison": [cli.write_comparison],
    }
    for layer, fns in functions.items():
        for fn in fns:
            _rebind(fn, rec.span(layer, fn))

    cycles = count_into("algorithms.cycles", len)
    for fn in (algorithms.exact_alternating_projections,
               algorithms.inexact_alternating_projections,
               algorithms.regularized_extrapolated_ap):
        _rebind(fn, rec.span("algorithms.driver", fn, after=cycles))

    export = phase.export_grid
    _rebind(export, rec.span("phase.export", export, after=count_into(
        "phase.export.bytes", lambda paths: sum(os.path.getsize(p) for p in paths))))

    crossing = core.first_crossing

    def counted_crossing(pred, *args, **kwargs):
        def counted(t):
            counts["core.first_crossing.evals"] += 1
            return pred(t)
        return crossing(counted, *args, **kwargs)
    _rebind(crossing, rec.span("core.first_crossing", functools.wraps(crossing)(counted_crossing)))

    _rebind(core.lerp, rec.counter("core.lerp.count", core.lerp))
    core.Point.__init__ = rec.counter("core.point.count", core.Point.__init__)
    append = core.IterationTrace.append

    @functools.wraps(append)
    def counted_append(trace, record):
        # bytes of the iterates each record keeps alive
        counts["core.trace.records"] += 1
        counts["core.trace.bytes"] += record.even.data.nbytes + (
            0 if record.odd is record.even else record.odd.data.nbytes)
        return append(trace, record)
    core.IterationTrace.append = counted_append
    for name in ("to_csv", "to_json"):
        _wrap_method(rec, "core.trace.write", core.IterationTrace, name)

    reg_set = divergences.RegularizedSet
    _wrap_method(rec, "divergences.residual", reg_set, "residual")
    _wrap_method(rec, "divergences.residual_gradient", reg_set, "residual_gradient")
    for cls in (divergences.EuclideanKernel, divergences.KullbackLeiblerKernel):
        _wrap_method(rec, "divergences.kernel", cls, "evaluate")
    for name in ("value", "pullback"):
        for cls in _classes_defining(divergences, divergences.ForwardMap, name):
            _wrap_method(rec, "divergences.forward", cls, name)

    fft_bytes = count_into("divergences.fft.bytes_computed", lambda out: 16 * out.size)
    for name in ("fftn", "ifftn"):
        setattr(numpy.fft, name, rec.span("divergences.fft", getattr(numpy.fft, name),
                                          after=fft_bytes))

    for layer, cls in (("projectors.fourier_magnitude", projectors.FourierMagnitudeSet),
                       ("projectors.support_nonneg", projectors.SupportNonnegSet),
                       ("projectors.affine", projectors.AffineSet),
                       ("projectors.box_magnitude", projectors.BoxMagnitudeSet)):
        _wrap_method(rec, layer, cls, "project")
    for layer, name in (("projectors.membership", "membership_residual"),
                        ("projectors.normal_cone", "normal_cone_at")):
        for cls in _classes_defining(projectors, core.SetOracle, name):
            _wrap_method(rec, layer, cls, name)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one written trace, keyed by ``PER_LAYER`` names."""
    names = [trace["layers"][i] for i in trace["layer"]]
    durations = [e - s for s, e in zip(trace["start"], trace["end"])]
    child_time = [0.0] * len(durations)
    for parent, duration in zip(trace["parent"], durations):
        if parent >= 0:
            child_time[parent] += duration
    calls, inclusive, self_time = Counter(), Counter(), Counter()
    for layer, outermost, duration, inner in zip(names, trace["outer"], durations, child_time):
        calls[layer] += 1
        if outermost:
            inclusive[layer] += duration
        self_time[layer] += duration - inner
    sources = {"calls": calls, "s": inclusive, "self_s": self_time, "count": trace["counts"]}
    return {name: sources[kind].get(source, 0) for name, _, kind, source in PER_LAYER}
