"""Shared fixtures: reference medium, grids, smooth phantoms, cone sets."""

import numpy as np
import pytest

from lumitomo.errors import SolverFailureError
from lumitomo.fields import (OpticalMedium, ScalarField, derived_optics,
                             make_grid, robin_coefficient)
from lumitomo.excitation import Aperture


@pytest.fixture(scope="session")
def tissue_medium():
    """Soft-tissue optical parameters: mu_a=0.05/mm, mu_s=15/mm, g=0.9, m=1.37."""
    _, D = derived_optics(0.05, 15.0, 0.9)
    return OpticalMedium(mu_a=0.05, D=D, A=robin_coefficient(1.37))


@pytest.fixture
def grid64():
    return make_grid(2, (-10.0, -10.0), (20.0, 20.0), (64, 64))


@pytest.fixture
def grid128():
    return make_grid(2, (-10.0, -10.0), (20.0, 20.0), (128, 128))


def extended_grid(grid):
    """Grid with the same spacing, doubled extent, original grid centered."""
    origin = tuple(o - e / 2 for o, e in zip(grid.origin, grid.extent))
    extent = tuple(2 * e for e in grid.extent)
    return make_grid(grid.dim, origin, extent, tuple(2 * n for n in grid.cells))


def two_bump_phantom(grid):
    """Smooth positive phantom: two gaussian bumps inside the domain."""
    X = grid.centers()
    vals = (3.0 * np.exp(-((X[..., 0] - 2.0) ** 2 + (X[..., 1] - 1.0) ** 2) / 4.0)
            + 2.0 * np.exp(-((X[..., 0] + 3.0) ** 2 + (X[..., 1] + 2.0) ** 2) / 6.0))
    return ScalarField(grid, vals)


def centered_table(K):
    """The kernel table over offsets of up to n-1 cells per axis, zero offset
    at the centre (shape 2n-1 per axis), of a kernel wrapped onto a circular
    grid of 2n cells per axis (`cone_kernel`)."""
    return K[np.ix_(*[np.arange(-(m // 2 - 1), m // 2) % m for m in K.shape])]


def fan_apertures(count, half_angle_deg, start_deg=0.0):
    """2D double-cone apertures with axes fanned uniformly over 180 degrees."""
    angles = np.deg2rad(start_deg) + np.arange(count) * (np.pi / count)
    return [Aperture(dim=2, axis=(np.cos(a), np.sin(a)),
                     half_angle=np.deg2rad(half_angle_deg))
            for a in angles]


def rel_l2(recon, truth):
    d = np.asarray(recon, float) - np.asarray(truth, float)
    return float(np.sqrt(np.sum(d ** 2) / np.sum(np.asarray(truth, float) ** 2)))


def reference_cg(op, rhs, tol=1e-10, max_iter=None):
    """`DiscreteOperator.solve` as it was when it tested for convergence at
    the top of each iteration, after a preconditioner pass on the updated
    residual: the reference for the solve, which now tests first and skips
    that pass.  Returns (x, (iterations, relative residual))."""
    g = op.grid
    b = np.asarray(rhs, dtype=np.float64).reshape(g.cells)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(g.cells), (0, 0.0)
    if max_iter is None:
        max_iter = max(200, int(20 * g.n_cells ** (1.0 / g.dim)))
    x = np.zeros(g.cells)
    r = b.copy()
    z = op._precondition(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    res = b_norm
    for it in range(max_iter):
        if res <= tol * b_norm:
            return x, (it, float(res / b_norm))
        Ap = op.apply(p)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        z = op._precondition(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    if res <= tol * b_norm:
        return x, (max_iter, float(res / b_norm))
    raise SolverFailureError("reference CG hit its cap",
                             residual=res / b_norm, iterations=max_iter)
