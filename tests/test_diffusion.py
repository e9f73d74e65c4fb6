"""Diffusion operator, Robin closure, weights, reciprocity, closed forms."""

import numpy as np
import pytest

from lumitomo.diffusion import (BoundaryField, DiscreteOperator, _robin_modes,
                                assemble_operator, boundary_face_areas,
                                boundary_face_count, boundary_flux,
                                solve_adjoint_weight, solve_forward)
from lumitomo.errors import InvalidArgumentError, SolverFailureError
from lumitomo.fields import Grid, OpticalMedium, ScalarField, make_grid

from conftest import (constant_field, reference_cg, same_bits,
                      two_bump_phantom)
from oracles import (continuum_flux, null_space_defect, per_side_flux,
                     radial_ode_solve, radial_weight_ball, radial_weight_disk,
                     reciprocity_residual, tensordot_precondition)


def jacobi_pcg(op, rhs, tol, max_iter=20000):
    """Jacobi-preconditioned CG: the solver `DiscreteOperator.solve` replaced,
    kept as the reference for the fast-diagonalization preconditioner."""
    g, D = op.grid, op.medium.D
    diag = op.mu_a.copy()
    for ax in range(g.dim):
        dx = g.spacing[ax]
        diag += 2.0 * D / dx ** 2
        sl = [slice(None)] * g.dim
        for edge in (0, -1):
            sl[ax] = edge
            diag[tuple(sl)] -= op._beta[ax] * D / dx ** 2
    b = np.asarray(rhs, dtype=np.float64).reshape(g.cells)
    b_norm = np.linalg.norm(b)
    x = np.zeros(g.cells)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(np.sum(r * z))
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * b_norm:
            return x
        Ap = op.apply(p)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        z = r / diag
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference CG did not converge")


def concatenate_apply(op, values):
    """The former `DiscreteOperator.apply`: per axis a concatenated padded
    copy of u and two `np.take` gathers on index ranges, kept as the
    reference for the sliced version."""
    g, D = op.grid, op.medium.D
    u = np.asarray(values, dtype=np.float64).reshape(g.cells)
    out = op.mu_a * u
    for ax in range(g.dim):
        dx = g.spacing[ax]
        beta = op._beta[ax]
        lo = beta * np.take(u, [0], axis=ax)
        hi = beta * np.take(u, [-1], axis=ax)
        upad = np.concatenate([lo, u, hi], axis=ax)
        n = g.cells[ax]
        left = np.take(upad, np.arange(0, n), axis=ax)
        right = np.take(upad, np.arange(2, n + 2), axis=ax)
        out += D * (2.0 * u - left - right) / dx ** 2
    return out


@pytest.mark.parametrize("grid", [
    make_grid(2, (-10, -6), (20, 12), (48, 64)),
    make_grid(3, (-8, -6, -4), (16, 12, 8), (12, 10, 6))], ids=["2d", "3d"])
@pytest.mark.parametrize("varying", [False, True], ids=["const", "varying"])
def test_apply_is_bit_identical_to_concatenate_reference(grid, varying,
                                                         tissue_medium):
    rng = np.random.default_rng(31)
    mu = ((0.05 + 0.1 * rng.random(grid.cells)) if varying
          else tissue_medium.mu_a)
    op = DiscreteOperator(grid, tissue_medium, mu)
    for u in (rng.standard_normal(grid.cells), np.ones(grid.cells)):
        assert np.array_equal(op.apply(u), concatenate_apply(op, u))
        assert np.array_equal(op.apply(u.ravel()), concatenate_apply(op, u))


def test_boundary_face_bookkeeping(grid64):
    assert boundary_face_count(grid64) == 4 * 64
    areas = boundary_face_areas(grid64)
    assert areas.size == 4 * 64
    # each face of a square grid has length = spacing
    assert np.allclose(areas, grid64.spacing[0])
    h = BoundaryField.constant(grid64, 2.0)
    assert np.sum(h.areas) == pytest.approx(4 * 20.0)  # perimeter of the box


def test_operator_is_symmetric(grid64, tissue_medium):
    op = assemble_operator(grid64, tissue_medium)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(grid64.cells)
    y = rng.standard_normal(grid64.cells)
    lhs = float(np.sum(y * op.apply(x)))
    rhs = float(np.sum(x * op.apply(y)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_operator_positive_definite(grid64, tissue_medium):
    op = assemble_operator(grid64, tissue_medium)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(grid64.cells)
        assert float(np.sum(x * op.apply(x))) > 0


def test_interior_action_on_constant(grid64, tissue_medium):
    # away from the boundary, L applied to a constant is mu_a * constant
    op = assemble_operator(grid64, tissue_medium)
    out = op.apply(np.full(grid64.cells, 3.0))
    interior = out[2:-2, 2:-2]
    assert np.allclose(interior, 3.0 * tissue_medium.mu_a, rtol=1e-13)


def test_trivial_weight_no_absorption(grid64, tissue_medium):
    # zero absorption and unit boundary datum give the constant weight 1
    med = OpticalMedium(mu_a=0.0, D=tissue_medium.D, A=tissue_medium.A)
    op = assemble_operator(grid64, med)
    v = solve_adjoint_weight(op, BoundaryField.constant(grid64, 1.0), tol=1e-13)
    assert np.max(np.abs(v.values - 1.0)) <= 1e-10


def test_weight_positive_and_bounded(grid64, tissue_medium):
    op = assemble_operator(grid64, tissue_medium)
    v = solve_adjoint_weight(op, BoundaryField.constant(grid64, 1.0))
    assert np.all(v.values > 0)
    assert np.max(v.values) <= 1.0 + 1e-12


def test_max_principle_random_data(grid64, tissue_medium):
    rng = np.random.default_rng(42)
    for _ in range(5):
        mu = rng.uniform(0.01, 0.5, grid64.cells)
        op = DiscreteOperator(grid64, tissue_medium, mu)
        hv = rng.uniform(0.1, 2.0, boundary_face_count(grid64))
        v = solve_adjoint_weight(op, BoundaryField(grid64, hv), tol=1e-12)
        assert np.all(v.values > 0)
        assert np.max(v.values) <= np.max(hv) + 1e-12


def test_reciprocity_consistent_mode(grid64, tissue_medium):
    op = assemble_operator(grid64, tissue_medium)
    h = BoundaryField.constant(grid64, 1.0)
    s = two_bump_phantom(grid64)
    res = reciprocity_residual(op, h, s, mode="consistent")
    assert res <= 1e-10


def test_reciprocity_continuum_mode_converges(tissue_medium):
    results = []
    for n in (64, 128):
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        op = assemble_operator(g, tissue_medium)
        h = BoundaryField.constant(g, 1.0)
        res = reciprocity_residual(op, h, two_bump_phantom(g), mode="continuum")
        results.append(res)
    assert results[0] <= 1e-2
    assert results[1] <= 0.6 * results[0]  # roughly halves per doubling


def test_null_space_defect_interior_bump(grid64, tissue_medium):
    op = assemble_operator(grid64, tissue_medium)
    h = BoundaryField.constant(grid64, 1.0)
    rng = np.random.default_rng(5)
    X = grid64.centers()
    for _ in range(5):
        c = rng.uniform(-5, 5, 2)
        w = rng.uniform(1.0, 2.5)
        vals = np.exp(-((X[..., 0] - c[0]) ** 2 + (X[..., 1] - c[1]) ** 2) / w)
        vals[:2, :] = vals[-2:, :] = 0.0
        vals[:, :2] = vals[:, -2:] = 0.0
        phi = ScalarField(grid64, vals)
        assert null_space_defect(op, h, phi) <= 1e-8


def test_null_space_defect_requires_collar(grid64, tissue_medium):
    op = assemble_operator(grid64, tissue_medium)
    h = BoundaryField.constant(grid64, 1.0)
    with pytest.raises(InvalidArgumentError):
        null_space_defect(op, h, constant_field(grid64, 1.0))


def test_boundary_flux_consistent_vs_continuum(grid64, tissue_medium):
    op = assemble_operator(grid64, tissue_medium)
    h = BoundaryField.constant(grid64, 1.0)
    s = two_bump_phantom(grid64)
    u = solve_forward(op, s.values, tol=1e-12)
    qc = boundary_flux(op, u)
    qx = continuum_flux(op, u)
    # the two quadratures agree to discretization accuracy
    scale = np.max(np.abs(qc))
    assert np.max(np.abs(qc - qx)) <= 0.05 * scale


@pytest.mark.parametrize("grid", [
    make_grid(2, (-6, -10), (12, 20), (40, 72)),
    make_grid(3, (-8, -6, -4), (16, 9, 8), (12, 10, 6)),
    Grid(3, (0.0, 0.0, 0.0), (7 * 0.3, 5 * 0.7, 3 * 1.1), (7, 5, 3))],
    ids=["2d", "3d", "3d-7x5x3"])
def test_boundary_flux_is_the_per_side_loop(grid, tissue_medium):
    # one gather, times D, over each face's divisor: the loop's bits, on
    # a solution, random cells with signed zeros, and a non-contiguous view
    op = assemble_operator(grid, tissue_medium)
    rng = np.random.default_rng(17)
    u = rng.standard_normal(grid.cells)
    u[u > 1.0] = -0.0
    u[u < -1.0] = 0.0
    solved = solve_forward(op, two_bump_phantom(grid).values
                           if grid.dim == 2 else np.abs(u), tol=1e-12)
    view = np.asfortranarray(u)
    for cells in (solved, u, view):
        assert same_bits(boundary_flux(op, cells), per_side_flux(op, cells))
    with pytest.raises(InvalidArgumentError, match="grid mismatch"):
        boundary_flux(op, u.ravel())


@pytest.mark.parametrize("cells,extent", [
    ((128, 128), (20, 20)), ((96, 40), (20, 20)), ((24, 24, 24), (20, 20, 20)),
    ((20, 16, 10), (20, 20, 20)), ((7, 5, 3), (7 * 0.3, 5 * 0.7, 3 * 1.1))],
    ids=["128x128", "96x40", "24^3", "20x16x10", "7x5x3"])
@pytest.mark.parametrize("varying", [False, True], ids=["const", "varying"])
def test_precondition_is_the_tensordot_form(cells, extent, varying,
                                            tissue_medium):
    grid = Grid(len(cells), tuple(-0.5 * e for e in extent), extent, cells)
    rng = np.random.default_rng(23)
    mu = (rng.uniform(0.01, 0.5, cells) if varying else tissue_medium.mu_a)
    op = DiscreteOperator(grid, tissue_medium, mu)
    for r in (rng.standard_normal(cells), np.ones(cells), np.zeros(cells)):
        got = op._precondition(r.copy())
        assert same_bits(got, tensordot_precondition(op, r.copy()))
        assert got.shape == cells


@pytest.mark.parametrize("n", [1, 2, 3, 24, 128])
@pytest.mark.parametrize("beta", [-0.95, 0.0, 0.88, 0.999])
def test_robin_modes_match_eigh(n, beta):
    K = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    K[0, 0] -= beta
    K[-1, -1] -= beta
    lam, vecs = _robin_modes(n, beta)
    ref_lam, ref_vecs = np.linalg.eigh(K)
    assert np.max(np.abs(lam - ref_lam)) <= 1e-14
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-13
    assert np.max(np.abs(K @ vecs - vecs * lam)) <= 1e-13
    # same modes in the same order, up to sign
    assert np.min(np.abs(np.sum(vecs * ref_vecs, axis=0))) >= 1.0 - 1e-12


def test_equal_axes_share_one_eigenbasis(tissue_medium):
    square = DiscreteOperator(make_grid(2, (-10, -10), (20, 20), (128, 128)),
                              tissue_medium, tissue_medium.mu_a)
    assert square._vecs[0] is square._vecs[1]
    cube = DiscreteOperator(make_grid(3, (-5, -5, -5), (10, 10, 10), (8, 8, 8)),
                            tissue_medium, tissue_medium.mu_a)
    assert cube._vecs[0] is cube._vecs[1] is cube._vecs[2]


@pytest.mark.parametrize("dim,extent,cells", [
    (2, (12, 20), (40, 72)), (2, (12, 20), (40, 40)), (2, (20, 20), (40, 72)),
    (3, (10, 9, 12), (14, 12, 16)), (3, (10, 10, 12), (12, 12, 16))],
    ids=["2d-both", "2d-spacing", "2d-cells", "3d-distinct", "3d-two-shared"])
def test_anisotropic_eigenbases_are_the_per_axis_modes(tissue_medium, dim,
                                                      extent, cells):
    g = make_grid(dim, tuple(-0.5 * e for e in extent), extent, cells)
    op = DiscreteOperator(g, tissue_medium, tissue_medium.mu_a)
    eig = np.full(g.cells, float(np.mean(op.mu_a)))
    for ax in range(dim):
        lam, vecs = _robin_modes(g.cells[ax], op._beta[ax])
        assert op._vecs[ax].tobytes() == vecs.tobytes()
        shape = [1] * dim
        shape[ax] = -1
        eig += (tissue_medium.D / g.spacing[ax] ** 2) * lam.reshape(shape)
    assert op._inv_eig.tobytes() == (1.0 / eig).tobytes()
    # axes share an array exactly when their (cells, beta) are equal
    for a in range(dim):
        for b in range(a):
            same = (g.cells[a], op._beta[a]) == (g.cells[b], op._beta[b])
            assert (op._vecs[a] is op._vecs[b]) == same


@pytest.mark.parametrize("case", ["2d-nonsquare", "3d", "variable-mu_a"])
def test_solve_matches_jacobi_pcg(tissue_medium, case):
    rng = np.random.default_rng(7)
    if case == "3d":
        g = make_grid(3, (-5, -4, -6), (10, 9, 12), (14, 12, 16))
    else:
        g = make_grid(2, (-6, -10), (12, 20), (40, 72))
    mu = (rng.uniform(0.01, 0.5, g.cells) if case == "variable-mu_a"
          else tissue_medium.mu_a)
    op = DiscreteOperator(g, tissue_medium, mu)
    h = BoundaryField(g, rng.uniform(0.5, 2.0, boundary_face_count(g)))
    X = g.centers()
    source = np.exp(-np.sum((X - 1.0) ** 2, axis=-1) / 4.0)
    for rhs in (op.boundary_rhs(h), source):
        x = op.solve(rhs, tol=1e-14)
        iterations, residual = op.last_solve
        assert residual <= 1e-14
        assert iterations <= (20 if mu is not None else 2)
        ref = jacobi_pcg(op, rhs, tol=1e-14)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def poorly_preconditioned(grid, medium, monkeypatch):
    """An operator whose preconditioner scales each cell by a factor spread
    over four decades, so that CG stops short of tol 1e-14 at its cap of
    max(200, 20 * 64) = 1280 iterations on a 64 x 64 grid."""
    mu = np.random.default_rng(3).uniform(0.01, 0.5, grid.cells)
    op = DiscreteOperator(grid, medium, mu)
    scale = 10.0 ** np.random.default_rng(4).uniform(-4, 0, grid.cells)
    monkeypatch.setattr(op, "_precondition", lambda r: r * scale)
    return op


def test_solver_failure_raises(grid64, tissue_medium, monkeypatch):
    op = poorly_preconditioned(grid64, tissue_medium, monkeypatch)
    s = two_bump_phantom(grid64)
    with pytest.raises(SolverFailureError) as err:
        op.solve(s.values, tol=1e-14)
    assert err.value.iterations == 1280
    assert err.value.residual > 1e-14


@pytest.mark.parametrize("varying", [False, True], ids=["constant-mu_a",
                                                      "varying-mu_a"])
def test_solve_is_bit_identical_to_reference_cg(tissue_medium, monkeypatch,
                                                varying):
    rng = np.random.default_rng(5)
    g = make_grid(2, (-6, -10), (12, 20), (40, 72))
    mu = (rng.uniform(0.01, 0.5, g.cells) if varying
          else tissue_medium.mu_a)
    op = DiscreteOperator(g, tissue_medium, mu)
    h = BoundaryField(g, rng.uniform(0.5, 2.0, boundary_face_count(g)))
    source = two_bump_phantom(g).values
    passes = []
    precondition = op._precondition
    monkeypatch.setattr(op, "_precondition",
                        lambda r: passes.append(1) or precondition(r))
    for rhs in (op.boundary_rhs(h), source):
        for tol in (1e-10, 1e-14):
            ref, ref_last = reference_cg(op, rhs, tol=tol)
            del passes[:]
            x = op.solve(rhs, tol=tol)
            assert np.array_equal(x, ref)
            assert op.last_solve == ref_last
            # one pass per iteration, none after the converged update: a
            # constant-mu_a solve at tol 1e-10 converges in one iteration
            # and costs one mode transform
            assert len(passes) == ref_last[0]
            if not varying and tol == 1e-10:
                assert len(passes) == 1


def test_solver_failure_matches_reference_cg(grid64, tissue_medium,
                                             monkeypatch):
    op = poorly_preconditioned(grid64, tissue_medium, monkeypatch)
    s = two_bump_phantom(grid64).values
    with pytest.raises(SolverFailureError) as ref:
        reference_cg(op, s, tol=1e-14)
    with pytest.raises(SolverFailureError) as err:
        op.solve(s, tol=1e-14)
    assert err.value.iterations == ref.value.iterations == 1280
    assert err.value.residual == ref.value.residual


@pytest.mark.parametrize("scale,bad", [(1.0, np.inf), (1.0, np.nan),
                                       (1e200, None)],
                         ids=["inf-entry", "nan-entry", "norm-overflows"])
def test_non_finite_rhs_norm_is_refused(grid64, tissue_medium, scale, bad):
    op = assemble_operator(grid64, tissue_medium)
    rhs = scale * two_bump_phantom(grid64).values
    if bad is not None:
        rhs[3, 4] = bad
    with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError):
        op.solve(rhs)


@pytest.mark.parametrize("mu_a", [None, np.nan, np.inf, -np.inf, -0.01,
                                  "one-nan-cell"])
def test_bad_mu_a_is_refused_at_construction(grid64, tissue_medium, mu_a):
    # refused before any solve: NaN and None (NaN under asarray) used to
    # pass the sign check and run the whole CG cap
    if isinstance(mu_a, str):
        mu_a = np.full(grid64.cells, tissue_medium.mu_a)
        mu_a[5, 7] = np.nan
    with pytest.raises(InvalidArgumentError, match="mu_a"):
        DiscreteOperator(grid64, tissue_medium, mu_a)


def test_closed_form_disk_matches_ode(tissue_medium):
    r, v = radial_ode_solve(tissue_medium, 10.0, 2, 1.0)
    h = radial_weight_disk(tissue_medium, 10.0, 10.0)[1]
    closed = np.array([radial_weight_disk(tissue_medium, 10.0, ri)[0]
                       for ri in r]) / h
    assert np.max(np.abs(v - closed) / np.abs(closed)) <= 1e-6


def test_closed_form_ball_matches_ode(tissue_medium):
    r, v = radial_ode_solve(tissue_medium, 10.0, 3, 1.0)
    h = radial_weight_ball(tissue_medium, 10.0, 10.0)[1]
    closed = np.array([radial_weight_ball(tissue_medium, 10.0, ri)[0]
                       for ri in r]) / h
    assert np.max(np.abs(v - closed) / np.abs(closed)) <= 1e-6


def test_2d_solver_converges_under_refinement(tissue_medium):
    sols = {}
    for n in (32, 64, 128):
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        op = assemble_operator(g, tissue_medium)
        sols[n] = solve_adjoint_weight(
            op, BoundaryField.constant(g, 1.0), tol=1e-13).values

    def coarsen(a, f):
        m = a.shape[0] // f
        return a.reshape(m, f, m, f).mean(axis=(1, 3))

    e32 = np.sqrt(np.mean((sols[32] - coarsen(sols[128], 4)) ** 2))
    e64 = np.sqrt(np.mean((sols[64] - coarsen(sols[128], 2)) ** 2))
    assert e32 / e64 >= 1.8
