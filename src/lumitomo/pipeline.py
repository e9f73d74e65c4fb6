"""End-to-end experiment orchestration and file emission.

Each verb parses its config once, into a `config.Settings` (`_start`), and
checks what needs the grid or the phantom before the weight solve.  The
XMLT stage sequence is written once: setup (phantom, error-mask check,
spot-check points, weight), gate, scan, spot check, noise, reconstruct,
emit.  `scan` runs it without the gate, the spot check and reconstruct;
`reconstruct` reads what `scan` wrote in place of setup through noise.
The scan's files are written when noise ends; reconstruct reads only
the scan's reductions (`_ScanSums`).  The run's one cone operator
(`_cone_operator`) holds its kernel spectra when LSQR runs; what a held
and a streamed operator build and keep is stated in
`excitation.ConeConvolution`.
Each stage's wall time goes into the report as `wall_clock.<stage>`,
within reconstruct each method's, and within LSQR's its dot test's
(`wall_clock.lsqr_dot_test`); report lines starting with `wall_clock` are
the only ones that differ between repeated runs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

from . import ltfio
from .algebraic import (apply_noise, compose, lsqr, lsqr_stop_reason,
                        parametrix_preconditioner, relative_error,
                        scan_linear_map, whole_grid_error)
from .config import Settings, derive_seed
from .diffusion import (BoundaryField, _floored_weight, assemble_operator,
                        solve_adjoint_weight)
from .errors import ConfigError, InvalidArgumentError, StabilityViolationError
from .excitation import (ConeConvolution, ConeScanData, Sinogram,
                         full_physics_measurements, simulate_boundary_scan,
                         xray_transform)
from .fbp import divide_by_weight, fbp
from .fields import ScalarField, build_phantom
from .multiplier import ellipticity_margin, invert_multiplier

# Noise treats values at or below this fraction of an array's maximum as
# exact zeros: FFT roundoff gives those either sign, and a Poisson draw
# consumes a random number for a tiny positive mean but not for a zero one.
NOISE_FLOOR_FRACTION = 1e-12


@contextmanager
def _timed(report, stage):
    """Record the wall time of the enclosed block as report["wall_clock.<stage>"]."""
    t0 = time.perf_counter()
    yield
    report[f"wall_clock.{stage}"] = f"{time.perf_counter() - t0:.3f}"


def _scan_record(path):
    """The scan.*, solver.weight.* and noise.* lines of the report at `path`,
    which `reconstruct` carries over from the `scan` that it inverts; {}
    when there is no report."""
    if not os.path.exists(path):
        return {}
    with open(path, errors="replace") as fh:
        lines = [ln.rstrip("\n").partition(" = ") for ln in fh]
    return {key: val for key, sep, val in lines
            if sep and key.startswith(("scan.", "solver.weight.", "noise."))}


def _slice_csv(path, field):
    """CSV of the mid-row slice along the first axis (the z=0 analog)."""
    mid = field.grid.cells[-1] // 2
    coords = field.grid.axis_centers(0)
    vals = field.values[(slice(None),) + (mid,) * (field.grid.dim - 1)]
    with open(path, "w") as fh:
        fh.write("coordinate,value\n")
        for c, v in zip(coords, vals):
            fh.write(f"{c:.17g},{v:.17g}\n")


def emit_outputs(outdir, fields, report, sinogram=None, scan=None,
                 history=None):
    """Write LTFIELD files, CSV slices, PGM renders and the other outputs
    given; colormap bounds of every PGM go into the report, and the time
    taken is added to `wall_clock.emit`."""
    t0 = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    for name, fld in fields.items():
        ltfio.write_field(os.path.join(outdir, f"{name}.ltf"), fld)
        if fld.grid.dim == 2:
            vmin, vmax = ltfio.write_pgm(os.path.join(outdir, f"{name}.pgm"), fld)
            report[f"render.{name}.vmin"] = f"{vmin:.17g}"
            report[f"render.{name}.vmax"] = f"{vmax:.17g}"
        _slice_csv(os.path.join(outdir, f"{name}_slice.csv"), fld)
    if sinogram is not None:
        ltfio.write_sinogram(os.path.join(outdir, "sinogram.ltf"), sinogram)
    if scan is not None:
        ltfio.write_scan(os.path.join(outdir, "scan_manifest.txt"),
                         os.path.join(outdir, "scan"), scan)
    if history is not None:
        with open(os.path.join(outdir, "lsqr_history.csv"), "w") as fh:
            fh.write("iteration,residual,normal_residual,"
                     "relative_normal_residual\n")
            for it, res, nres, rel in history:
                fh.write(f"{int(it)},{res:.17g},{nres:.17g},{rel:.17g}\n")
    spent = time.perf_counter() - t0 + float(report.get("wall_clock.emit", 0))
    report["wall_clock.emit"] = f"{spent:.3f}"


def _start(cfg, inverts=False):
    """A verb's start time, its `Settings` and its empty report."""
    return time.perf_counter(), Settings(cfg, inverts=inverts), {}


def _phantom(settings):
    """The configured phantom, refused when its error mask is empty."""
    truth = build_phantom(settings.phantom, settings.grid)
    relative_error(truth, truth, settings.eps_bg)  # refuses an empty error mask
    return truth


def _diffusion(settings, report):
    """Diffusion operator, boundary datum h and adjoint weight v, with the
    weight solve's iterations and relative residual in `report`."""
    op = assemble_operator(settings.grid, settings.medium)
    h = BoundaryField.constant(settings.grid, settings.boundary_h)
    try:
        v = solve_adjoint_weight(op, h)
    except InvalidArgumentError as exc:
        raise ConfigError(f"boundary.h = {settings.boundary_h:g} gives no "
                          f"finite weight: {exc}") from exc
    iterations, residual = op.last_solve
    report["solver.weight.iterations"] = str(iterations)
    report["solver.weight.residual"] = f"{residual:.6e}"
    return op, h, v


def _stability(apertures, report):
    """Ellipticity diagnostics of a cone set into `report`; returns the margin."""
    rep = ellipticity_margin(apertures)
    report.update({
        "stability.margin": f"{rep.margin:.6e}",
        "stability.max_factor": f"{rep.max_factor:.6e}",
        "stability.max_min_ratio": f"{rep.ratio:.6e}",
        "stability.worst_direction": ",".join(f"{x:.6f}" for x in rep.worst_direction),
        "stability.invisible_count": str(len(rep.invisible_directions)),
    })
    for i, d in enumerate(rep.invisible_directions[:10]):
        report[f"stability.invisible.{i}"] = ",".join(f"{x:.6f}" for x in d)
    return rep.margin


def _gate(settings, apertures, report):
    """The gate stage: refuse a cone set with invisible directions unless
    forced, when the multiplier runs (recon.method other than lsqr); LSQR
    needs no gate."""
    with _timed(report, "gate"):
        if settings.method == "lsqr":
            return
        margin = _stability(apertures, report)
        if margin <= 0 and not settings.force_pseudo:
            raise StabilityViolationError(
                f"ellipticity margin {margin:g} <= 0; "
                "set run.force_pseudo=true to force a pseudo-inversion")


def _cone_operator(apertures, grid, report, method=None):
    """The run's cone operator, `apertures` on `grid`, shared by the scan
    and the reconstruction; its count of distinct cones into `report`.
    It is held when LSQR runs (`method` both or lsqr), which applies each
    spectrum on every iteration, and streamed otherwise (the multiplier
    alone, or None for a run that does not invert)."""
    conv = ConeConvolution(apertures, grid, held=method in ("both", "lsqr"))
    report["scan.distinct_apertures"] = str(len(conv.distinct))
    return conv


def _spot_points(n_checks, grid):
    """The run.spot_checks cell indices of the spot check: a lattice over
    the middle half of the first two axes, mid-grid on the third."""
    span = min(3 * n // 4 - n // 4 + 1 for n in grid.cells[:2])
    if n_checks > span ** 2:  # a longer side than `span` repeats points
        raise ConfigError(f"run.spot_checks must be <= {span ** 2}, the "
                          f"spot-check lattice on this grid, got {n_checks}")
    side = int(np.ceil(np.sqrt(n_checks)))
    idx = [np.linspace(n // 4, 3 * n // 4, side, dtype=int) for n in grid.cells[:2]]
    mid = tuple(n // 2 for n in grid.cells[2:])
    return [(i, j) + mid for i in idx[0] for j in idx[1]][:n_checks]


def _spot_check(op, h, truth, clean, points, report):
    """Full-physics solves at the `_spot_points` foci against the clean
    scan's first cone: the fast path's check through reciprocity.  The
    report gets the solves run and skipped and their CG iterations, and,
    under `wall_clock.spot_check_per_solve`, the seconds of the forward
    solves alone divided by their number (0 when no focus needs one)."""
    centers = truth.grid.centers()
    stats = {}
    full = full_physics_measurements(op, h, truth, clean.apertures[0],
                                     [centers[p] for p in points], stats)
    fast = clean.fields[0].values
    scale = float(np.max(np.abs(fast))) or 1.0
    worst = max(abs(x - fast[p]) / scale for x, p in zip(full, points))
    report["spot_check.points"] = str(len(points))
    report["spot_check.max_relative_mismatch"] = f"{worst:.6e}"
    for key in ("solves", "skipped", "cg_iterations"):
        report[f"spot_check.{key}"] = str(stats[key])
    solves = stats["solves"]
    report["wall_clock.spot_check_per_solve"] = \
        f"{stats['solve_seconds'] / solves if solves else 0.0:.3e}"


def _noise(values, stream, settings, report):
    """A Poisson draw on `values`, seeded by the stream name, after zeroing
    values at or below NOISE_FLOOR_FRACTION of their maximum, recorded in
    `report`; `values` itself for noise.kind=none."""
    report["noise.applied"] = str(settings.photons is not None).lower()
    if settings.photons is None:
        return values
    report["noise.photons"] = f"{settings.photons:g}"
    return apply_noise(np.where(values > NOISE_FLOOR_FRACTION * np.max(values),
                                values, 0.0),
                       settings.photons, derive_seed(settings.seed, stream))


def _noisy_scan(clean, settings, report):
    """The scan after `_noise`, each noisy field wrapped once drawn."""
    fields = []
    for j, f in enumerate(clean.fields):
        x = _noise(f.values, f"noise.cone{j}", settings, report)
        fields.append(f if x is f.values else ScalarField(f.grid, x))
    return ConeScanData(clean.focus_grid, fields, clean.apertures,
                        settings.noise_record)


def _simulate(settings, report, inverts):
    """The XMLT sequence from setup through noise, the gate and the spot
    check only when the run `inverts`: returns (truth, v, conv, data) and
    frees the clean scan."""
    with _timed(report, "setup"):
        truth = _phantom(settings)
        points = _spot_points(settings.spot_checks, truth.grid)
        op, h, v = _diffusion(settings, report)
    if inverts:
        _gate(settings, settings.apertures, report)
    with _timed(report, "scan"):
        conv = _cone_operator(settings.apertures, truth.grid, report,
                              settings.method if inverts else None)
        report["scan.mode"] = "fast"
        report["scan.focus_grid"] = ",".join(str(n) for n in conv.grid.cells)
        clean = simulate_boundary_scan(truth, v, conv)
    if inverts:
        with _timed(report, "spot_check"):
            _spot_check(op, h, truth, clean, points, report)
    with _timed(report, "noise"):
        data = _noisy_scan(clean, settings, report)
    return truth, v, conv, data


def _reduced_data(data, conv):
    """LSQR's data on the distinct cones of `conv` (`scan_linear_map`): for
    each distinct cone, sqrt(c) times the mean of its c fields; and the
    residual norm that no model removes, the root sum of squares of the
    fields' deviations from their cone's mean.  A cone's two equal fields
    (a noise-free scan of a double cone) have that field as their mean bit
    for bit, so a floor of exactly 0."""
    shape = (-1,) + (1,) * len(conv.cells)
    mean = np.zeros((len(conv.counts),) + conv.cells)
    for fld, i in zip(data.fields, conv.group):
        mean[i] += fld.values
    mean /= conv.counts.reshape(shape)
    floor2 = 0.0
    for fld, i in zip(data.fields, conv.group):
        dev = fld.values - mean[i]
        floor2 += float(np.vdot(dev, dev))
    mean *= np.sqrt(conv.counts).reshape(shape)
    return mean, float(np.sqrt(floor2))


class _ScanSums:
    """What a recon.method reads of a scan: the multiplier its `summed()`
    (and `focus_grid` and `apertures`), LSQR `_reduced_data` and the
    total, so the scan's fields need not outlive them."""

    def __init__(self, data, conv, method):
        self.focus_grid, self.apertures = data.focus_grid, data.apertures
        self._summed = data.summed() if method != "lsqr" else None
        if method != "multiplier":
            self.rows, self.floor = _reduced_data(data, conv)
            self.total = sum(float(np.sum(f.values)) for f in data.fields)

    def summed(self):
        """The summed data, not kept after this call."""
        summed, self._summed = self._summed, None
        return summed


def _reconstruct(settings, sums, v, conv, report):
    """Invert the `_ScanSums` of cone data by recon.method with `conv`, the
    cone operator of the data's apertures on the grid of v; returns
    (fields, history).  The multiplier does not check the cone set:
    callers `_gate` it.  LSQR runs on A M, A the scan operator on the
    distinct cones (`_reduced_data`) and M the parametrix preconditioner,
    and stops once the residual norm of all the data is down to the noise,
    sqrt(sum b / noise.photons) for Poisson data b (the discrepancy
    principle)."""
    fields, history = {}, None
    if settings.method != "lsqr":
        stats = {}
        with _timed(report, "multiplier"):
            fields["recon_multiplier"] = invert_multiplier(
                sums, v, conv, eps=settings.eps, stats=stats)
        report["multiplier.m_ref"] = f"{stats['m_ref']:.6e}"
        report["multiplier.suppressed_fraction"] = \
            f"{stats['suppressed_fraction']:.6e}"
    if settings.method != "multiplier":
        stats = {}
        with _timed(report, "lsqr"):
            stop = (0.0 if settings.photons is None else
                    np.sqrt(max(sums.total, 0.0) / settings.photons))
            precond = parametrix_preconditioner(conv, v)
            z, history = lsqr(
                compose(scan_linear_map(conv, v), precond),
                sums.rows, max_iters=settings.lsqr_iters,
                atol=settings.lsqr_atol, stop_residual=stop,
                residual_floor=sums.floor, stats=stats)
            x = precond.forward(z)
            if settings.nonneg:
                x = np.maximum(x, 0.0)
            fields["recon_lsqr"] = ScalarField(v.grid, x.reshape(v.grid.cells))
        report["wall_clock.lsqr_dot_test"] = f"{stats['dot_test_s']:.3f}"
        report["lsqr.preconditioner"] = "parametrix"
        report["lsqr.iterations"] = str(int(history[-1][0]))
        report["lsqr.stop_reason"] = lsqr_stop_reason(
            history, settings.lsqr_iters, stop)
        report["lsqr.residual_floor"] = f"{sums.floor:.6e}"
        report["lsqr.final_normal_residual"] = f"{history[-1][2]:.6e}"
        report["lsqr.final_relative_normal_residual"] = f"{history[-1][3]:.6e}"
    return fields, history


def _emit(settings, t0, report, fields, truth=None, **files):
    """Errors of the reconstructions against `truth`, the config echo and
    the wall clock into the report, then every output file."""
    for name, rec in fields.items():
        if truth is not None and name.startswith("recon_"):
            signed, absolute = relative_error(truth, rec, settings.eps_bg)
            l2, background = whole_grid_error(truth, rec, settings.eps_bg)
            report[f"error.{name[6:]}.signed"] = f"{signed:.6f}"
            report[f"error.{name[6:]}.absolute"] = f"{absolute:.6f}"
            report[f"error.{name[6:]}.l2"] = f"{l2:.6e}"
            report[f"error.{name[6:]}.background"] = f"{background:.6e}"
    report.update((f"config.{key}", val) for key, val in settings.text.items())
    report["wall_clock_seconds"] = f"{time.perf_counter() - t0:.3f}"
    emit_outputs(settings.output_dir, fields, report, **files)
    with open(os.path.join(settings.output_dir, "report.txt"), "w") as fh:
        fh.writelines(f"{key} = {report[key]}\n" for key in sorted(report))
    return report


def run_xmlt(cfg):
    """Full cone-excitation (XMLT) experiment: simulate, invert, report."""
    t0, settings, report = _start(cfg, inverts=True)
    truth, v, conv, data = _simulate(settings, report, inverts=True)
    emit_outputs(settings.output_dir, {"truth": truth, "weight": v}, report,
                 scan=data)
    with _timed(report, "reconstruct"):
        sums = _ScanSums(data, conv, settings.method)
        del data
        fields, history = _reconstruct(settings, sums, v, conv, report)
    return _emit(settings, t0, report, fields, truth, history=history)


def run_xlct(cfg):
    """Full line-excitation (XLCT) experiment: sinogram, FBP, divide by weight."""
    t0, settings, report = _start(cfg)
    grid = settings.grid
    if grid.dim != 2:
        raise ConfigError("run_xlct requires a 2D grid")
    with _timed(report, "setup"):
        truth = _phantom(settings)
        _, _, v = _diffusion(settings, report)
    with _timed(report, "scan"):
        angles = np.arange(settings.n_angles) * (np.pi / settings.n_angles)
        half_diag = 0.5 * np.sqrt(sum(e ** 2 for e in grid.extent))
        offsets = np.linspace(-half_diag, half_diag, settings.n_offsets)
        sino = xray_transform(ScalarField(grid, v.values * truth.values),
                              angles, offsets)
    with _timed(report, "noise"):
        sino = Sinogram(angles, offsets, _noise(sino.values, "noise.sinogram",
                                                settings, report))
    with _timed(report, "reconstruct"):
        rec = divide_by_weight(fbp(sino, grid, settings.fbp_filter), v)
    report["weight.max_inverse"] = f"{1.0 / float(np.min(_floored_weight(v))):.6e}"
    return _emit(settings, t0, report,
                 {"truth": truth, "weight": v, "recon_fbp": rec}, truth,
                 sinogram=sino)


def phantom(cfg):
    """The `phantom` verb: write the configured phantom."""
    t0, settings, report = _start(cfg)
    with _timed(report, "setup"):
        truth = _phantom(settings)
    return _emit(settings, t0, report, {"truth": truth})


def weight(cfg):
    """The `weight` verb: write the adjoint weight field."""
    t0, settings, report = _start(cfg)
    with _timed(report, "setup"):
        _, _, v = _diffusion(settings, report)
    return _emit(settings, t0, report, {"weight": v})


def scan(cfg):
    """The `scan` verb: write the (noisy) cone scan with truth and weight."""
    t0, settings, report = _start(cfg)
    truth, v, _, data = _simulate(settings, report, inverts=False)
    return _emit(settings, t0, report, {"truth": truth, "weight": v}, scan=data)


def reconstruct(cfg):
    """The `reconstruct` verb: invert the scan and weight that `scan` wrote,
    keeping the scan's record (`_scan_record`) in the report; the verb's
    own keys win."""
    t0, settings, report = _start(cfg, inverts=True)
    outdir = settings.output_dir
    manifest = os.path.join(outdir, "scan_manifest.txt")
    weight_path = os.path.join(outdir, "weight.ltf")
    if not (os.path.exists(manifest) and os.path.exists(weight_path)):
        raise ConfigError(
            f"reconstruct needs {manifest} and {weight_path}; run `scan` first")
    report.update(_scan_record(os.path.join(outdir, "report.txt")))
    with _timed(report, "setup"):
        data = ltfio.read_scan(manifest)
        v = ltfio.read_field(weight_path)
        if settings.method != "multiplier" and data.focus_grid != v.grid:
            raise InvalidArgumentError(
                f"LSQR needs the scan on the weight's grid, got {data.focus_grid} "
                f"and {v.grid}")
        settings.use_recorded_noise(data.noise)
    _gate(settings, data.apertures, report)
    with _timed(report, "reconstruct"):
        conv = _cone_operator(data.apertures, v.grid, report, settings.method)
        sums = _ScanSums(data, conv, settings.method)
        del data
        fields, history = _reconstruct(settings, sums, v, conv, report)
    return _emit(settings, t0, report, fields, history=history)


def check_stability(cfg):
    """Report the ellipticity margin and invisible directions of the cone set."""
    report = {}
    _stability(Settings(cfg).apertures, report)
    return report
