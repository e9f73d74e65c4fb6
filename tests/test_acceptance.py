"""Acceptance suite: twelve numbered end-to-end checks.

Each test prints one `criterion N: PASS/FAIL (...)` line (visible with
`pytest -s`) and then asserts, so a red test always corresponds to a FAIL
line with the measured numbers.
"""

import time

import numpy as np
import pytest

from lumitomo.algebraic import LinearMap, lsqr, scan_linear_map
from lumitomo.config import load_config
from lumitomo.diffusion import (BoundaryField, DiscreteOperator,
                                assemble_operator, solve_adjoint_weight)
from lumitomo.excitation import (Aperture, ConeConvolution, ConeScanData,
                                 cone_transform, xray_transform)
from lumitomo.fields import (OpticalMedium, ScalarField, derived_optics,
                             make_grid, robin_coefficient)
from lumitomo.multiplier import (ellipticity_margin, invert_multiplier,
                                 multiplier_symbol)
from lumitomo.pipeline import run_xlct, run_xmlt

from conftest import (constant_field, extended_grid, fan_apertures, rel_l2,
                      two_bump_phantom)
from oracles import (null_space_defect, radial_ode_solve, radial_weight_ball,
                     radial_weight_disk, reciprocity_residual)


def check(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def tissue():
    mu_a = 0.05
    _, D = derived_optics(mu_a, 15.0, 0.9)
    return OpticalMedium(mu_a=mu_a, D=D, A=robin_coefficient(1.37))


def random_smooth(grid, seed=0):
    rng = np.random.default_rng(seed)
    X = grid.centers()
    vals = np.zeros(grid.cells)
    for _ in range(4):
        c = rng.uniform(-5, 5, grid.dim)
        w = rng.uniform(1.5, 3.0)
        a = rng.uniform(0.5, 2.0)
        vals += a * np.exp(-np.sum((X - c) ** 2, axis=-1) / w ** 2)
    return ScalarField(grid, vals)


def test_criterion_01_reciprocity():
    t0 = time.perf_counter()
    med = tissue()
    ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=np.deg2rad(19.2))
    residuals = {}
    for n in (64, 128):
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        op = assemble_operator(g, med)
        h = BoundaryField.constant(g, 1.0)
        f = random_smooth(g, seed=1)
        if n == 64:
            residuals["consistent"] = reciprocity_residual(
                op, h, f, mode="consistent")
        residuals[n] = reciprocity_residual(op, h, f, mode="continuum")
    elapsed = time.perf_counter() - t0
    ok = (residuals["consistent"] <= 1e-10 and residuals[64] <= 1e-2
          and residuals[128] <= 0.6 * residuals[64] and elapsed < 5.0)
    check(1, ok,
          f"consistent {residuals['consistent']:.2e}, "
          f"continuum {residuals[64]:.2e} -> {residuals[128]:.2e}, "
          f"{elapsed:.1f} s")


def test_criterion_02_closed_form_weights():
    med = tissue()
    worst = 0.0
    for n_dim, closed in ((2, radial_weight_disk), (3, radial_weight_ball)):
        r, v = radial_ode_solve(med, 10.0, n_dim, 1.0)
        h = closed(med, 10.0, 10.0)[1]
        ref = np.array([closed(med, 10.0, ri)[0] for ri in r]) / h
        worst = max(worst, float(np.max(np.abs(v - ref) / np.abs(ref))))
    # square-domain solver convergence under refinement
    sols = {}
    for n in (32, 64, 128):
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        op = assemble_operator(g, med)
        sols[n] = solve_adjoint_weight(
            op, BoundaryField.constant(g, 1.0), tol=1e-13).values

    def coarsen(a, f):
        m = a.shape[0] // f
        return a.reshape(m, f, m, f).mean(axis=(1, 3))

    e32 = np.sqrt(np.mean((sols[32] - coarsen(sols[128], 4)) ** 2))
    e64 = np.sqrt(np.mean((sols[64] - coarsen(sols[128], 2)) ** 2))
    ratio = e32 / e64
    ok = worst <= 1e-6 and ratio >= 1.8
    check(2, ok, f"radial profile error {worst:.2e}, "
                 f"refinement ratio {ratio:.2f}")


def test_criterion_03_trivial_weight():
    med = tissue()
    g = make_grid(2, (-10, -10), (20, 20), (64, 64))
    op = assemble_operator(g, OpticalMedium(mu_a=0.0, D=med.D, A=med.A))
    v = solve_adjoint_weight(op, BoundaryField.constant(g, 1.0), tol=1e-13)
    dev = float(np.max(np.abs(v.values - 1.0)))
    check(3, dev <= 1e-10, f"max deviation from 1 is {dev:.2e}")


def test_criterion_04_maximum_principle():
    med = tissue()
    g = make_grid(2, (-10, -10), (20, 20), (64, 64))
    n_faces = 4 * 64
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(20):
        mu = rng.uniform(0.01, 0.5, g.cells)
        op = DiscreteOperator(g, med, mu)
        hv = rng.uniform(0.1, 2.0, n_faces)
        v = solve_adjoint_weight(op, BoundaryField(g, hv), tol=1e-12)
        if not (np.all(v.values > 0)
                and np.max(v.values) <= np.max(hv) + 1e-12):
            violations += 1
    check(4, violations == 0, f"{20 - violations}/20 cases within bounds")


def test_criterion_05_null_space_identity():
    med = tissue()
    g = make_grid(2, (-10, -10), (20, 20), (64, 64))
    op = assemble_operator(g, med)
    h = BoundaryField.constant(g, 1.0)
    X = g.centers()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(-5, 5, 2)
        w = rng.uniform(1.0, 2.5)
        vals = np.exp(-((X[..., 0] - c[0]) ** 2 + (X[..., 1] - c[1]) ** 2) / w)
        vals[:2, :] = vals[-2:, :] = 0.0
        vals[:, :2] = vals[:, -2:] = 0.0
        worst = max(worst, null_space_defect(op, h, ScalarField(g, vals)))
    check(5, worst <= 1e-8, f"worst defect {worst:.2e}")


def test_criterion_06_stability_checker():
    t0 = time.perf_counter()
    single = ellipticity_margin(
        [Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(19.2))])
    ten = ellipticity_margin(
        [Aperture(dim=3, axis=(np.cos(t), np.sin(t), 0.0),
                  half_angle=np.deg2rad(19.2))
         for t in np.deg2rad(np.arange(10) * 36.0)])
    elapsed = time.perf_counter() - t0
    ok = single.margin == 0.0 and ten.margin > 0.0 and elapsed < 1.0
    check(6, ok, f"single-cone margin {single.margin:g}, "
                 f"ten-cone margin {ten.margin:.4f}, {elapsed:.2f} s")


def test_criterion_07_multiplier_round_trip():
    t0 = time.perf_counter()
    aps = fan_apertures(3, 35.0)
    errors = []
    for n in (128, 256):
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        f = two_bump_phantom(g)
        v = constant_field(g, 1.0)
        fg = extended_grid(g)
        scan = ConeScanData(fg, cone_transform(f, v, ConeConvolution(aps, fg)),
                            list(aps))
        rec = invert_multiplier(scan, v, ConeConvolution(aps, g), eps=1e-3)
        errors.append(rel_l2(rec.values, f.values))
    elapsed = time.perf_counter() - t0
    ok = errors[0] <= 0.05 and errors[1] < errors[0] and elapsed < 30.0
    check(7, ok, f"relative L2 error {errors[0]:.4f} at 128^2, "
                 f"{errors[1]:.4f} at 256^2, {elapsed:.1f} s")


def test_criterion_08_symbol_correctness():
    ap2 = Aperture(dim=2, axis=(np.cos(0.37), np.sin(0.37)),
                   half_angle=np.pi / 2 - 1e-12, taper_width=0.0)
    ap3 = Aperture(dim=3, axis=(0.3, 0.5, 0.81),
                   half_angle=np.pi / 2 - 1e-12, taper_width=0.0)
    worst = 0.0
    for xi in [(1.0, 0.0), (0.3, -2.0), (5.0, 5.0)]:
        mag = np.hypot(*xi)
        worst = max(worst, abs(multiplier_symbol(ap2, xi)
                               - 2 * np.pi / mag) * mag / (2 * np.pi))
    for xi in [(1.0, 0.0, 0.0), (0.0, 2.0, 1.0)]:
        mag = np.linalg.norm(xi)
        worst = max(worst, abs(multiplier_symbol(ap3, xi)
                               - 2 * np.pi ** 2 / mag) * mag / (2 * np.pi ** 2))
    ap = Aperture(dim=2, axis=(np.cos(1.0), np.sin(1.0)), half_angle=0.5)
    xi = np.array([0.7, -1.3])
    hom = abs(multiplier_symbol(ap, 2 * xi) - multiplier_symbol(ap, xi) / 2)
    even = abs(multiplier_symbol(ap, -xi) - multiplier_symbol(ap, xi))
    ok = worst <= 1e-6 and hom <= 1e-15 and even <= 1e-15
    check(8, ok, f"full-aperture symbol error {worst:.2e}, "
                 f"homogeneity defect {hom:.1e}, evenness defect {even:.1e}")


def antialiased_disk(grid, radius, subsamples=8):
    X = grid.centers()
    h = grid.spacing[0]
    sub = (np.arange(subsamples) + 0.5) / subsamples - 0.5
    cover = np.zeros(grid.cells)
    for dx in sub:
        for dy in sub:
            cover += ((X[..., 0] + dx * h) ** 2
                      + (X[..., 1] + dy * h) ** 2 <= radius ** 2)
    return ScalarField(grid, cover / subsamples ** 2)


def test_criterion_09_xlct_path(tmp_path):
    t0 = time.perf_counter()
    # chord-length sinogram on a centered disk
    g = make_grid(2, (-10, -10), (20, 20), (255, 255))
    radius = 5.0
    disk = antialiased_disk(g, radius, subsamples=16)
    offsets = radius * np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    sino = xray_transform(disk, np.array([0.0, 0.3]), offsets)
    chords = 2.0 * np.sqrt(radius ** 2 - offsets ** 2)
    chord_err = (float(np.max(np.abs(sino.values - chords[None, :])))
                 / (2.0 * radius))
    # smooth-phantom round trip through the ray transform and its inverse
    from lumitomo.fbp import FbpFilter, fbp
    g2 = make_grid(2, (-10, -10), (20, 20), (256, 256))
    f = two_bump_phantom(g2)
    angles = np.arange(180) * (np.pi / 180)
    half_diag = 0.5 * np.sqrt(800.0)
    offs = np.linspace(-half_diag, half_diag, 363)
    rec = fbp(xray_transform(f, angles, offs), g2,
              FbpFilter(kind="ramp", cutoff=1.0))
    fbp_err = rel_l2(rec.values, f.values)
    # full pipeline with the PDE-derived weight and two inclusions
    cfg = load_config(None, ["recon.filter=ramp", "recon.cutoff=1.0",
                             "xray.n_offsets=363",
                             f"run.output_dir={tmp_path}"])
    report = run_xlct(cfg)
    pipe_err = float(report["error.fbp.absolute"])
    elapsed = time.perf_counter() - t0
    ok = (chord_err <= 1e-3 and fbp_err <= 0.05 and pipe_err <= 0.10
          and elapsed < 30.0)
    check(9, ok, f"chord error {chord_err:.1e}, round trip {fbp_err:.4f}, "
                 f"pipeline {pipe_err:.4f}, {elapsed:.1f} s")


def test_criterion_10_lsqr():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(5):
        A = rng.standard_normal((30, 20))
        b = rng.standard_normal(30)
        lm = LinearMap(30, 20, lambda x, A=A: A @ x, lambda y, A=A: A.T @ y)
        x, _ = lsqr(lm, b, max_iters=300, atol=1e-14)
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        worst = max(worst, float(np.max(np.abs(x - ref))))
    g = make_grid(2, (-10, -10), (20, 20), (64, 64))
    defect = scan_linear_map(ConeConvolution(fan_apertures(3, 35.0), g),
                             constant_field(g, 1.0)).dot_test(seed=2)
    ok = worst <= 1e-8 and defect <= 1e-10
    check(10, ok, f"dense-oracle error {worst:.2e}, dot test {defect:.2e}")


XMLT_OVERRIDES = ["noise.kind=poisson", "noise.photons=1e6",
                  "recon.method=both"]


def test_criterion_11_end_to_end_xmlt(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(None, XMLT_OVERRIDES + [f"run.output_dir={tmp_path}"])
    report = run_xmlt(cfg)
    elapsed = time.perf_counter() - t0
    e_mult = float(report["error.multiplier.absolute"])
    e_lsqr = float(report["error.lsqr.absolute"])
    ok = e_mult <= 0.15 and e_lsqr <= 0.15 and elapsed < 120.0
    check(11, ok,
          f"multiplier {e_mult:.4f}, lsqr {e_lsqr:.4f}, "
          f"signed {report['error.multiplier.signed']}/"
          f"{report['error.lsqr.signed']}, {elapsed:.1f} s")


def test_criterion_12_determinism(tmp_path):
    outdir = tmp_path / "run"
    cfg = load_config(None, XMLT_OVERRIDES + [f"run.output_dir={outdir}"])

    def strip_clock(data):
        return b"\n".join(ln for ln in data.split(b"\n")
                          if not ln.startswith(b"wall_clock"))

    run_xmlt(cfg)
    first = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    run_xmlt(cfg)
    second = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    diffs = [name for name in first
             if strip_clock(first[name]) != strip_clock(second.get(name, b""))]
    ok = not diffs and set(first) == set(second)
    check(12, ok, f"{len(first)} output files bit-identical"
          if ok else f"files differ: {diffs}")
