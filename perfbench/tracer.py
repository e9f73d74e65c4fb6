"""Span tracing of lumitomo from outside the package.

`install` wraps every public function that a `lumitomo` module defines, the
`DiscreteOperator.apply`/`solve` methods, the forward/adjoint closures of
each `LinearMap` built by `scan_linear_map`, and the transforms of
`numpy.fft`.  Each call records a span (name, start, end, parent span) in
memory; `layer_metrics` reduces the spans of one run to per-layer numbers.
Nothing under `src/` is modified: wrappers are rebound in every `lumitomo`
module namespace that holds the original function object, because callers
bind names with `from .x import y`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import resource
import time

import numpy as np

FFT_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                  "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder for one run (one CLI call in one process)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, annotate=None, track_rss=False):
        """Return `fn` wrapped in a span; `annotate(bound_args, result)`
        may attach attributes to the span after the call returns."""
        sig = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else -1)
            self.spans.append(span)
            self._stack.append(span)
            rss0 = _maxrss_mb() if track_rss else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            attrs = {}
            if track_rss:
                attrs["rss_growth_mb"] = _maxrss_mb() - rss0
            if annotate:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs.update(annotate(bound.arguments, result))
            span.attrs = attrs or None
            return result

        return traced

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "attrs": s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-call annotations
# ---------------------------------------------------------------------------

def _lsqr_attrs(args, result):
    history = result[1]
    return {"iters": int(history[-1][0]), "max_iters": int(args["max_iters"])}


def _xray_attrs(args, result):
    return {"rays": int(result.values.size)}


def _angular_attrs(args, result):
    return {"dirs": int(np.atleast_2d(args["omega"]).shape[0])}


def _kernel_attrs(args, result):
    ap, grid = args["ap"], args["grid"]
    axis = [round(x, 12) + 0.0 for x in ap.axis]
    lead = next((x for x in axis if x != 0.0), 1.0)
    if lead < 0:
        axis = [-x + 0.0 for x in axis]
    key = (tuple(axis), ap.half_angle, ap.taper_width, ap.amplitude,
           tuple(grid.cells), tuple(round(h, 12) for h in grid.spacing))
    return {"key": repr(key)}


def _path_attrs(key):
    return lambda args, result: {"path": os.fspath(args[key])}


def _fft_attrs(name):
    """Real-space transform size, batch dimensions included."""
    def attrs(args, result):
        if not name.startswith("r"):
            return {"points": int(result.size)}
        if name == "rfft":
            ax, n_last = args["axis"], args["n"]
        else:
            axes, s = args["axes"], args["s"]
            ax = axes[-1] if axes is not None else -1
            n_last = s[-1] if s is not None else None
        n_last = n_last or np.shape(args["a"])[ax]
        return {"points": int(result.size // result.shape[ax] * n_last)}
    return attrs


ANNOTATE = {
    "algebraic.lsqr": _lsqr_attrs,
    "excitation.xray_transform": _xray_attrs,
    "multiplier.angular_factor": _angular_attrs,
    "excitation.cone_kernel": _kernel_attrs,
    "ltfio.write_field": _path_attrs("path"),
    "ltfio.write_boundary_field": _path_attrs("path"),
    "ltfio.write_sinogram": _path_attrs("path"),
    "ltfio.write_pgm": _path_attrs("path"),
    "ltfio.write_scan": _path_attrs("manifest_path"),
}
RSS_TRACKED = ("multiplier.invert_multiplier",)


def install(tracer):
    """Wrap lumitomo's public functions and numpy.fft; call once per process."""
    import numpy.fft
    import lumitomo
    from lumitomo.algebraic import LinearMap
    from lumitomo.diffusion import DiscreteOperator

    # cli imports pipeline and config lazily; load every submodule first.
    modules = {info.name: importlib.import_module(info.name)
               for info in pkgutil.iter_modules(lumitomo.__path__,
                                                "lumitomo.")}
    wrapped = {}
    for modname, mod in modules.items():
        short = modname.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != modname):
                continue
            span_name = f"{short}.{name}"
            wrapped[obj] = tracer.wrap(obj, span_name,
                                       annotate=ANNOTATE.get(span_name),
                                       track_rss=span_name in RSS_TRACKED)

    # The linear map's closures are made per call, so wrap them on return.
    plain_map = modules["lumitomo.algebraic"].scan_linear_map
    build_map = wrapped[plain_map]

    @functools.wraps(build_map)
    def scan_linear_map(*args, **kwargs):
        linmap = build_map(*args, **kwargs)
        if isinstance(linmap, LinearMap):
            linmap.forward = tracer.wrap(linmap.forward, "algebraic.forward")
            linmap.adjoint = tracer.wrap(linmap.adjoint, "algebraic.adjoint")
        return linmap

    wrapped[plain_map] = scan_linear_map

    for mod in [lumitomo, *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])

    for meth in ("apply", "solve"):
        setattr(DiscreteOperator, meth,
                tracer.wrap(getattr(DiscreteOperator, meth),
                            f"diffusion.DiscreteOperator.{meth}"))
    for name in FFT_TRANSFORMS:
        fn = getattr(numpy.fft, name)
        setattr(numpy.fft, name,
                tracer.wrap(fn, f"fft.{name}", annotate=_fft_attrs(name)))


def _span_cost(annotate, calls=20000):
    """Seconds one wrapper adds to a call of an empty two-argument function."""
    def empty(a, b=None):
        return a

    traced = Tracer("calibration").wrap(empty, "empty", annotate=annotate)
    cost = []
    for fn in (empty, traced):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        cost.append(time.perf_counter() - t0)
    return max(cost[1] - cost[0], 0.0) / calls


def wrapper_seconds(spans):
    """Time the wrappers of one run add: each span times the per-call cost
    of a wrapper timed in this process, annotated spans (those with
    attributes) at the cost of an annotated wrapper."""
    annotated = sum(1 for s in spans if s.attrs)
    return ((len(spans) - annotated) * _span_cost(None)
            + annotated * _span_cost(lambda args, result: {"a": 0}))


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}

    def ancestor(self, span, pred):
        """Nearest ancestor whose name satisfies `pred`, or None."""
        pid = span.parent
        while pid != -1:
            p = self.by_id[pid]
            if pred(p.name):
                return p
            pid = p.parent
        return None

    def outermost(self, pred):
        """Matching spans without a matching ancestor (no double count)."""
        return [s for s in self.spans
                if pred(s.name) and self.ancestor(s, pred) is None]

    def time(self, pred):
        return sum(s.duration for s in self.outermost(pred))

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def named_time(self, name):
        return self.time(lambda n: n == name)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced run (see BENCHMARK.json per_layer).

    `trace.overhead_s` needs the untraced runs and is added by the caller.
    """
    ix = _Index(spans)
    m = {}
    main = ix.named("cli.main")
    m["cli.main_s"] = sum(s.duration for s in main)
    runs = [s for s in spans if s.name in ("pipeline.run_xmlt",
                                           "pipeline.run_xlct")]
    m["pipeline.self_s"] = sum(s.self_s for s in runs)
    m["pipeline.emit_s"] = ix.named_time("pipeline.emit_outputs")

    m["config.load_s"] = ix.time(lambda n: n.startswith("config."))
    m["fields.phantom_s"] = ix.named_time("fields.build_phantom")

    solve_names = ("diffusion.solve_adjoint_weight", "diffusion.solve_forward")
    weight_iters = forward_iters = 0
    for s in ix.named("diffusion.DiscreteOperator.apply"):
        owner = ix.ancestor(s, lambda n: n in solve_names)
        if owner is None:
            continue
        if owner.name == solve_names[0]:
            weight_iters += 1
        else:
            forward_iters += 1
    weights = ix.named("diffusion.solve_adjoint_weight")
    forwards = ix.named("diffusion.solve_forward")
    m["diffusion.weight_solves"] = len(weights)
    m["diffusion.weight_solve_s"] = sum(s.duration for s in weights)
    m["diffusion.weight_cg_iters"] = weight_iters
    m["diffusion.forward_solves"] = len(forwards)
    m["diffusion.forward_solve_s"] = sum(s.duration for s in forwards)
    m["diffusion.forward_cg_iters"] = forward_iters
    m["diffusion.ms_per_solve"] = _ratio(
        m["diffusion.weight_solve_s"] + m["diffusion.forward_solve_s"],
        len(weights) + len(forwards), 1e3)
    m["diffusion.apply_s"] = ix.named_time("diffusion.DiscreteOperator.apply")

    m["excitation.scan_s"] = ix.named_time("excitation.simulate_boundary_scan")
    cones = ix.named("excitation.cone_transform")
    m["excitation.cone_transforms"] = len(cones)
    m["excitation.cone_transform_s"] = sum(s.duration for s in cones)
    kernels = ix.named("excitation.cone_kernel")
    m["excitation.cone_kernels"] = len(kernels)
    m["excitation.cone_kernels_distinct"] = len({s.attrs["key"]
                                                 for s in kernels})
    m["excitation.cone_kernel_s"] = sum(s.duration for s in kernels)
    xray = ix.named("excitation.xray_transform")
    m["excitation.xray_s"] = sum(s.duration for s in xray)
    m["excitation.us_per_ray"] = _ratio(
        m["excitation.xray_s"], sum(s.attrs["rays"] for s in xray), 1e6)

    inverts = ix.named("multiplier.invert_multiplier")
    m["multiplier.invert_s"] = sum(s.duration for s in inverts)
    margins = ix.named("multiplier.ellipticity_margin")
    m["multiplier.margin_calls"] = len(margins)
    m["multiplier.margin_s"] = sum(s.duration for s in margins)
    m["multiplier.symbol_s"] = ix.named_time("multiplier.total_symbol_table")
    factors = ix.outermost(lambda n: n == "multiplier.angular_factor")
    m["multiplier.angular_factor_s"] = sum(s.duration for s in factors)
    m["multiplier.angular_factor_dirs"] = sum(s.attrs["dirs"] for s in factors)
    m["multiplier.rss_growth_mb"] = sum(s.attrs["rss_growth_mb"]
                                        for s in inverts)

    m["algebraic.linmap_build_s"] = ix.named_time("algebraic.scan_linear_map")
    lsqrs = ix.named("algebraic.lsqr")
    m["algebraic.lsqr_s"] = sum(s.duration for s in lsqrs)
    m["algebraic.lsqr_iters"] = sum(s.attrs["iters"] for s in lsqrs)
    m["algebraic.lsqr_at_cap"] = sum(
        int(s.attrs["iters"] == s.attrs["max_iters"]) for s in lsqrs)
    fwd = ix.named("algebraic.forward")
    adj = ix.named("algebraic.adjoint")
    m["algebraic.pairs"] = len(fwd)
    m["algebraic.adjoint_calls"] = len(adj)
    m["algebraic.ms_per_pair"] = _ratio(
        sum(s.duration for s in fwd) + sum(s.duration for s in adj),
        len(fwd), 1e3)
    m["algebraic.noise_s"] = ix.named_time("algebraic.apply_noise")

    m["fbp.fbp_s"] = ix.named_time("fbp.fbp")
    m["fbp.divide_s"] = ix.named_time("fbp.divide_by_weight")

    writes = ix.outermost(lambda n: n.startswith("ltfio.write_"))
    paths = {s.attrs["path"] for s in ix.spans
             if s.name.startswith("ltfio.write_")}
    m["ltfio.write_s"] = sum(s.duration for s in writes)
    m["ltfio.files_written"] = len(paths)
    m["ltfio.mb_written"] = sum(os.path.getsize(p) for p in paths) / 2 ** 20

    ffts = ix.outermost(lambda n: n.startswith("fft."))
    m["fft.calls"] = len(ffts)
    m["fft.mpoints"] = sum(s.attrs["points"] for s in ffts) / 1e6
    m["fft.s"] = sum(s.duration for s in ffts)
    m["trace.wrapper_s"] = wrapper_seconds(spans)
    return m
