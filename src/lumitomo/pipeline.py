"""End-to-end experiment orchestration and file emission.

Runs and CLI verbs compose the same private stages, each of which parses
the config values it uses when it starts, with two exceptions that refuse
a bad value before any work: a verb parses recon.method and the settings
of the methods it runs before its first stage, and the setup stage parses
the cone set and run.spot_checks before the weight solve.  Each stage's
wall time goes into the report as `wall_clock.<stage>` (setup, gate, scan,
spot_check, noise, reconstruct, emit), and within reconstruct each
method's as `wall_clock.multiplier` and `wall_clock.lsqr` when it runs;
report lines starting with `wall_clock` are the only ones that differ
between repeated runs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

from . import ltfio
from .algebraic import (apply_noise, compose, lsqr, lsqr_stop_reason,
                        parametrix_preconditioner, relative_error,
                        scan_linear_map)
from .config import (_bool, _float, _int, build_apertures, build_grid,
                     build_medium, build_phantom_spec, derive_seed)
from .diffusion import (BoundaryField, _floored_weight, assemble_operator,
                        solve_adjoint_weight)
from .errors import ConfigError, InvalidArgumentError, StabilityViolationError
from .excitation import (ConeConvolution, ConeScanData, Sinogram,
                         full_physics_measurements, simulate_boundary_scan,
                         xray_transform)
from .fbp import FbpFilter, divide_by_weight, fbp
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


def _write_report(path, report):
    with open(path, "w") as fh:
        for key in sorted(report):
            fh.write(f"{key} = {report[key]}\n")


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
    """Write LTFIELD files, CSV slices, PGM renders and the run report.

    `fields` maps names to ScalarFields; colormap bounds of every PGM and
    the time taken to write everything but the report itself
    (`wall_clock.emit`) are recorded in the report.
    """
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
    report["wall_clock.emit"] = f"{time.perf_counter() - t0:.3f}"
    _write_report(os.path.join(outdir, "report.txt"), report)


def _phantom(cfg):
    grid = build_grid(cfg)
    return build_phantom(build_phantom_spec(cfg, grid.dim), grid)


def _diffusion(cfg, grid, report):
    """Diffusion operator, boundary datum h and adjoint weight v on a grid;
    the weight solve's iterations and relative residual go into `report`.
    A datum h <= 0 gives a weight <= 0, which no reconstruction can divide
    by, so it is refused before the solve; so is one whose right-hand side
    overflows, which the solve refuses."""
    h_value = _float(cfg, "boundary.h")
    if h_value <= 0:
        raise ConfigError(f"boundary.h must be > 0, got {h_value:g}")
    op = assemble_operator(grid, build_medium(cfg))
    h = BoundaryField.constant(grid, h_value)
    try:
        v = solve_adjoint_weight(op, h)
    except InvalidArgumentError as exc:
        raise ConfigError(
            f"boundary.h = {h_value:g} gives no finite weight: {exc}") from exc
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


def _gate(cfg, method, apertures, report):
    """Refuse a cone set with invisible directions unless forced, when the
    multiplier runs (`method` other than lsqr); LSQR needs no gate."""
    if method == "lsqr":
        return
    force = _bool(cfg, "run.force_pseudo")
    margin = _stability(apertures, report)
    if margin <= 0 and not force:
        raise StabilityViolationError(
            f"ellipticity margin {margin:g} <= 0; "
            "set run.force_pseudo=true to force a pseudo-inversion")


def _cone_scan(truth, v, apertures, report):
    """The clean (noise-free) fast scan of the cone set and the cone
    operator it applied, which the reconstruction reuses."""
    conv = ConeConvolution(apertures, truth.grid)
    report["scan.mode"] = "fast"
    report["scan.focus_grid"] = ",".join(str(n) for n in conv.grid.cells)
    report["scan.distinct_apertures"] = str(len(conv.spectra))
    return simulate_boundary_scan(truth, v, conv), conv


def _spot_points(cfg, grid):
    """The run.spot_checks cell indices of the spot check: a lattice over
    the middle half of the first two axes, mid-grid on the third."""
    n_checks = _int(cfg, "run.spot_checks")
    if n_checks < 1:
        raise ConfigError(f"run.spot_checks must be >= 1, got {n_checks}")
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
    scan's first cone: the fast path's check through reciprocity."""
    centers = truth.grid.centers()
    full = full_physics_measurements(op, h, truth, clean.apertures[0],
                                     [centers[p] for p in points])
    fast = clean.fields[0].values
    scale = float(np.max(np.abs(fast))) or 1.0
    worst = max(abs(x - fast[p]) / scale for x, p in zip(full, points))
    report["spot_check.points"] = str(len(points))
    report["spot_check.max_relative_mismatch"] = f"{worst:.6e}"


def _photons(cfg):
    """noise.photons for noise.kind=poisson, None for noise.kind=none."""
    kind = cfg["noise.kind"]
    if kind == "none":
        return None
    if kind != "poisson":
        raise ConfigError(f"unknown noise kind {kind!r}")
    kappa = _float(cfg, "noise.photons")
    if kappa <= 0:
        raise ConfigError(f"noise.photons must be > 0, got {kappa:g}")
    return kappa


def _noise(cfg, pairs, report):
    """Poisson draws on (array, stream name) pairs, seeded per stream, after
    zeroing values at or below NOISE_FLOOR_FRACTION of the array's maximum;
    the arrays as given for noise.kind=none."""
    kappa = _photons(cfg)
    if kappa is None:
        report["noise.applied"] = "false"
        return [values for values, _ in pairs]
    seed = _int(cfg, "run.seed")
    if seed < 0:
        raise ConfigError(f"run.seed must be >= 0, got {seed}")
    report["noise.applied"] = "true"
    report["noise.photons"] = f"{kappa:g}"
    return [apply_noise(np.where(values > NOISE_FLOOR_FRACTION * np.max(values),
                                 values, 0.0),
                        kappa, derive_seed(seed, stream))
            for values, stream in pairs]


def _noisy_scan(cfg, clean, report):
    """The scan after `_noise`, recording the noise it applied."""
    noisy = _noise(cfg, [(f.values, f"noise.cone{j}")
                         for j, f in enumerate(clean.fields)], report)
    kappa = _photons(cfg)
    noise = {"noise.kind": cfg["noise.kind"]}
    if kappa is not None:
        noise["noise.photons"] = f"{kappa:.17g}"
    return ConeScanData(clean.focus_grid,
                        [ScalarField(clean.focus_grid, x) for x in noisy],
                        clean.apertures, noise)


def _recorded_noise(cfg, data):
    """cfg with the noise that the scan `data` records (v3 manifests).
    noise.kind=none, the default, takes the recorded noise; any other noise
    config must agree with it (ConfigError otherwise)."""
    if data.noise is None:
        return cfg
    if cfg["noise.kind"] != "none" and _photons(cfg) != _photons(data.noise):
        recorded = " ".join(f"{k}={v}" for k, v in data.noise.items())
        raise ConfigError(
            f"noise.kind={cfg['noise.kind']} noise.photons={cfg['noise.photons']} "
            f"contradicts the scan manifest's {recorded}")
    return {**cfg, **data.noise}


def _recon_method(cfg):
    """recon.method, refused unless it is multiplier, lsqr or both, and
    the settings of the methods it runs: the multiplier needs
    recon.eps >= 0 (a negative one regularizes as its magnitude does but
    counts no entry as suppressed), LSQR recon.lsqr_iters >= 1 (zero
    iterations return the zero image)."""
    method = cfg["recon.method"]
    if method not in ("multiplier", "lsqr", "both"):
        raise ConfigError(f"recon.method must be multiplier|lsqr|both, got {method!r}")
    if method != "lsqr" and (eps := _float(cfg, "recon.eps")) < 0:
        raise ConfigError(f"recon.eps must be >= 0, got {eps:g}")
    if method != "multiplier" and (iters := _int(cfg, "recon.lsqr_iters")) < 1:
        raise ConfigError(f"recon.lsqr_iters must be >= 1, got {iters}")
    return method


def _reconstruct(cfg, method, data, v, conv, report):
    """Invert cone data by `method` (`_recon_method`) with `conv`, the cone
    operator of the data's apertures on the grid of v; returns (fields,
    history).  The multiplier does not check the cone set: callers `_gate` it.
    LSQR runs on A M, M the parametrix preconditioner, and stops once the
    residual norm is down to the noise, sqrt(sum b / noise.photons) for
    Poisson data b (the discrepancy principle)."""
    eps = _float(cfg, "recon.eps")
    max_iters = _int(cfg, "recon.lsqr_iters")
    atol = _float(cfg, "recon.lsqr_atol")
    nonneg = _bool(cfg, "recon.nonneg")
    kappa = _photons(cfg)
    fields, history = {}, None
    if method != "lsqr":
        stats = {}
        with _timed(report, "multiplier"):
            fields["recon_multiplier"] = invert_multiplier(
                data, v, conv, eps=eps, stats=stats)
        report["multiplier.m_ref"] = f"{stats['m_ref']:.6e}"
        report["multiplier.suppressed_fraction"] = \
            f"{stats['suppressed_fraction']:.6e}"
    if method != "multiplier":
        with _timed(report, "lsqr"):
            b = np.concatenate([f.values.ravel() for f in data.fields])
            stop = (0.0 if kappa is None
                    else np.sqrt(max(float(np.sum(b)), 0.0) / kappa))
            precond = parametrix_preconditioner(conv, v)
            with conv.reusing_buffers():
                z, history = lsqr(
                    compose(scan_linear_map(conv, v), precond),
                    b, max_iters=max_iters, atol=atol, stop_residual=stop)
            x = precond.forward(z)
            if nonneg:
                x = np.maximum(x, 0.0)
            fields["recon_lsqr"] = ScalarField(v.grid, x.reshape(v.grid.cells))
        report["lsqr.preconditioner"] = "parametrix"
        report["lsqr.iterations"] = str(int(history[-1][0]))
        report["lsqr.stop_reason"] = lsqr_stop_reason(history, max_iters, stop)
        report["lsqr.final_normal_residual"] = f"{history[-1][2]:.6e}"
        report["lsqr.final_relative_normal_residual"] = f"{history[-1][3]:.6e}"
    return fields, history


def _emit(cfg, t0, report, fields, **files):
    """Errors of the reconstructions against the truth, the config echo and
    the wall clock into the report, then every output file into
    run.output_dir."""
    recons = [(name[len("recon_"):], fld) for name, fld in fields.items()
              if name.startswith("recon_")]
    if "truth" in fields and recons:
        eps_bg = _float(cfg, "error.eps_bg")
        for method, rec in recons:
            signed, absolute = relative_error(fields["truth"], rec, eps_bg)
            report[f"error.{method}.signed"] = f"{signed:.6f}"
            report[f"error.{method}.absolute"] = f"{absolute:.6f}"
    report.update((f"config.{key}", val) for key, val in cfg.items())
    report["wall_clock_seconds"] = f"{time.perf_counter() - t0:.3f}"
    emit_outputs(cfg["run.output_dir"], fields, report, **files)
    return report


def run_xmlt(cfg):
    """Full cone-excitation (XMLT) experiment: simulate, invert, report."""
    t0 = time.perf_counter()
    method = _recon_method(cfg)
    report = {}
    with _timed(report, "setup"):
        truth = _phantom(cfg)
        apertures = build_apertures(cfg, truth.grid.dim)
        points = _spot_points(cfg, truth.grid)
        op, h, v = _diffusion(cfg, truth.grid, report)
    with _timed(report, "gate"):
        _gate(cfg, method, apertures, report)
    with _timed(report, "scan"):
        clean, conv = _cone_scan(truth, v, apertures, report)
    with _timed(report, "spot_check"):
        _spot_check(op, h, truth, clean, points, report)
    with _timed(report, "noise"):
        data = _noisy_scan(cfg, clean, report)
    with _timed(report, "reconstruct"):
        fields, history = _reconstruct(cfg, method, data, v, conv, report)
    return _emit(cfg, t0, report, {"truth": truth, "weight": v, **fields},
                 scan=data, history=history)


def run_xlct(cfg):
    """Full line-excitation (XLCT) experiment: sinogram, FBP, divide by weight."""
    t0 = time.perf_counter()
    report = {}
    with _timed(report, "setup"):
        truth = _phantom(cfg)
        grid = truth.grid
        if grid.dim != 2:
            raise ConfigError("run_xlct requires a 2D grid")
        n_angles = _int(cfg, "xray.n_angles")
        n_offsets = _int(cfg, "xray.n_offsets")
        if n_angles < 8 or n_offsets < 2:
            raise ConfigError("run_xlct needs xray.n_angles >= 8 and "
                              f"xray.n_offsets >= 2, got {n_angles} and {n_offsets}")
        _, _, v = _diffusion(cfg, grid, report)
    with _timed(report, "scan"):
        angles = np.arange(n_angles) * (np.pi / n_angles)
        half_diag = 0.5 * np.sqrt(sum(e ** 2 for e in grid.extent))
        offsets = np.linspace(-half_diag, half_diag, n_offsets)
        sino = xray_transform(ScalarField(grid, v.values * truth.values),
                              angles, offsets)
    with _timed(report, "noise"):
        (values,) = _noise(cfg, [(sino.values, "noise.sinogram")], report)
        sino = Sinogram(angles, offsets, values)
    with _timed(report, "reconstruct"):
        filt = FbpFilter(kind=cfg["recon.filter"], cutoff=_float(cfg, "recon.cutoff"))
        rec = divide_by_weight(fbp(sino, grid, filt), v)
    report["weight.max_inverse"] = f"{1.0 / float(np.min(_floored_weight(v))):.6e}"
    return _emit(cfg, t0, report,
                 {"truth": truth, "weight": v, "recon_fbp": rec}, sinogram=sino)


def phantom(cfg):
    """The `phantom` verb: write the configured phantom."""
    t0 = time.perf_counter()
    report = {}
    with _timed(report, "setup"):
        truth = _phantom(cfg)
    return _emit(cfg, t0, report, {"truth": truth})


def weight(cfg):
    """The `weight` verb: write the adjoint weight field."""
    t0 = time.perf_counter()
    report = {}
    with _timed(report, "setup"):
        _, _, v = _diffusion(cfg, _phantom(cfg).grid, report)
    return _emit(cfg, t0, report, {"weight": v})


def scan(cfg):
    """The `scan` verb: write the (noisy) cone scan with truth and weight."""
    t0 = time.perf_counter()
    report = {}
    with _timed(report, "setup"):
        truth = _phantom(cfg)
        apertures = build_apertures(cfg, truth.grid.dim)
        _, _, v = _diffusion(cfg, truth.grid, report)
    with _timed(report, "scan"):
        clean, _ = _cone_scan(truth, v, apertures, report)
    with _timed(report, "noise"):
        data = _noisy_scan(cfg, clean, report)
    return _emit(cfg, t0, report, {"truth": truth, "weight": v}, scan=data)


def reconstruct(cfg):
    """The `reconstruct` verb: invert the scan and weight that `scan` wrote,
    keeping the scan's record (`_scan_record`) in the report; the verb's
    own keys win."""
    t0 = time.perf_counter()
    method = _recon_method(cfg)
    outdir = cfg["run.output_dir"]
    manifest = os.path.join(outdir, "scan_manifest.txt")
    weight_path = os.path.join(outdir, "weight.ltf")
    if not (os.path.exists(manifest) and os.path.exists(weight_path)):
        raise ConfigError(
            f"reconstruct needs {manifest} and {weight_path}; run `scan` first")
    report = _scan_record(os.path.join(outdir, "report.txt"))
    with _timed(report, "setup"):
        data = ltfio.read_scan(manifest)
        v = ltfio.read_field(weight_path)
        if method != "multiplier" and data.focus_grid != v.grid:
            raise InvalidArgumentError(
                f"LSQR needs the scan on the weight's grid, got {data.focus_grid} "
                f"and {v.grid}")
        cfg = _recorded_noise(cfg, data)
    with _timed(report, "reconstruct"):
        _gate(cfg, method, data.apertures, report)
        conv = ConeConvolution(data.apertures, v.grid)
        report["scan.distinct_apertures"] = str(len(conv.spectra))
        fields, history = _reconstruct(cfg, method, data, v, conv, report)
    return _emit(cfg, t0, report, fields, history=history)


def check_stability(cfg):
    """Report the ellipticity margin and invisible directions of the cone set."""
    report = {}
    _stability(build_apertures(cfg, _int(cfg, "grid.dim")), report)
    return report
