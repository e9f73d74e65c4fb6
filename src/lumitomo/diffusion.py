"""Finite-difference diffusion operator with Robin boundary conditions.

The operator L = -div(D grad) + mu_a is discretized with a 5-point (2D) or
7-point (3D) stencil on a cell-centered grid.  The Robin condition
u + 2 A D du/dn = h is closed with a ghost cell on each boundary face:

    (u_ghost + u_in)/2 + (2 A D / dx) (u_ghost - u_in) = h_face

Eliminating the ghost keeps the operator symmetric positive definite and,
together with the face-trace flux below, makes the boundary reciprocity
identity hold exactly at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError
from .fields import Grid, OpticalMedium, ScalarField, _support_box

V_FLOOR_FRACTION = 1e-6  # relative floor used wherever a weight divides


# ---------------------------------------------------------------------------
# boundary face bookkeeping
# ---------------------------------------------------------------------------

def boundary_face_count(grid: Grid):
    total = 0
    for ax in range(grid.dim):
        total += 2 * grid.n_cells // grid.cells[ax]
    return total


def _sides(grid: Grid):
    """(axis, edge, faces) of every boundary side in the canonical order:
    axis 0 low side (edge 0), axis 0 high side (edge -1), axis 1 low side,
    ...  `faces` slices the side's faces out of a vector of boundary values,
    which lists them in C (lexicographic) order of the adjacent cells."""
    start = 0
    for ax in range(grid.dim):
        size = grid.n_cells // grid.cells[ax]
        for edge in (0, -1):
            yield ax, edge, slice(start, start + size)
            start += size


def boundary_face_areas(grid: Grid):
    """Face areas in the canonical enumeration order of `_sides`."""
    areas = np.empty(boundary_face_count(grid))
    vol, spacing = grid.cell_volume, grid.spacing
    for ax, _, faces in _sides(grid):
        areas[faces] = vol / spacing[ax]
    return areas


class BoundaryField:
    """Values on the boundary faces of a grid with their surface measure."""

    __slots__ = ("grid", "values", "areas")

    def __init__(self, grid: Grid, values):
        values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        n = boundary_face_count(grid)
        if values.size != n:
            raise InvalidArgumentError(
                f"expected {n} boundary values, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("boundary values must be finite")
        values = values.copy()
        values.flags.writeable = False
        self.grid = grid
        self.values = values
        self.areas = boundary_face_areas(grid)

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(boundary_face_count(grid), float(value)))


# ---------------------------------------------------------------------------
# discrete operator
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOperator:
    """Matrix-free SPD discretization of -div(D grad) + mu_a with Robin BC.

    mu_a may be a scalar or a per-cell array (for spatially varying
    absorption); D and A are constants.
    """

    grid: Grid
    medium: OpticalMedium
    mu_a: np.ndarray

    def __post_init__(self):
        g, med = self.grid, self.medium
        self.mu_a = np.broadcast_to(np.asarray(self.mu_a, dtype=np.float64),
                                    g.cells).copy()
        # None reads as NaN here
        if not np.all(np.isfinite(self.mu_a) & (self.mu_a >= 0)):
            raise InvalidArgumentError(
                "mu_a must be finite and non-negative everywhere")
        # Robin closure constants per axis: c_plus = 1/2 + 2AD/dx,
        # ghost = (h + c_minus * u_in) / c_plus with c_minus = 2AD/dx - 1/2.
        self._c_plus = []
        self._beta = []
        for ax in range(g.dim):
            dx = g.spacing[ax]
            cp = 0.5 + 2.0 * med.A * med.D / dx
            cm = 2.0 * med.A * med.D / dx - 0.5
            self._c_plus.append(cp)
            self._beta.append(cm / cp)
        # one eigenbasis per distinct (cells, beta): the axes of a square or
        # cubic grid share it
        keys = list(zip(g.cells, self._beta))
        distinct = {key: _robin_modes(*key) for key in set(keys)}
        modes = [distinct[key] for key in keys]
        self._vecs = [vecs for _, vecs in modes]
        eig = np.full(g.cells, float(np.mean(self.mu_a)))
        for ax, (lam, _) in enumerate(modes):
            shape = [1] * g.dim
            shape[ax] = -1
            eig += (med.D / g.spacing[ax] ** 2) * lam.reshape(shape)
        self._inv_eig = 1.0 / eig
        # `boundary_flux`'s gather: per boundary face, in the order of
        # `_sides`, the flat index of its cell and its divisor c_plus * dx
        index = np.arange(g.n_cells).reshape(g.cells)
        self._face_cells = np.empty(boundary_face_count(g), dtype=np.intp)
        self._face_divisor = np.empty(self._face_cells.size)
        for ax, edge, faces in _sides(g):
            self._face_cells[faces] = np.take(index, edge, axis=ax).ravel()
            self._face_divisor[faces] = self._c_plus[ax] * g.spacing[ax]
        self.last_solve = (0, 0.0)

    def _precondition(self, r):
        """Exact inverse of the operator with mu_a replaced by its mean.

        That operator is mean(mu_a) I + sum_ax D/dx_ax^2 K_ax with K_ax the
        Robin-cornered tridiag(-1, 2, -1) of `_robin_modes`, so its inverse is
        a mode transform along every axis, a division by the summed
        eigenvalues and the transform back (Lynch, Rice & Thomas, Numer.
        Math. 6, 1964).  Each mode product contracts the leading axis and
        appends the result axis, so after one pass the axes are in order:
        the `np.dot` that np.tensordot(u, vecs, axes=(0, 0)) (or (0, 1))
        makes on the same views, the other axes merged against the leading
        one, without tensordot's wrapper, so with the same bits.

        The forward products contract only the bounding box of r's cells
        that are not +0.0 (`fields._support_box`): the box of r against the
        box's rows of each axis's modes.  A spot-check source fills a small
        box (19 x 28 of 128 x 128 cells on the default phantom), and this
        sums the same nonzero terms in fewer K-blocks, so the result moves
        by roundoff only.  A residual that reaches every side of the grid,
        as CG's do after their first update, has the whole grid as its box,
        and the products run on the same views as a full contraction, with
        the same bits.  The scaling and the back products are dense.
        """
        box = _support_box(r)
        box = ([slice(first, last + 1) for first, last in box] if box
               else [slice(None)] * r.ndim)
        u = r[tuple(box)]
        for vecs, rows in zip(self._vecs, box):
            u = np.dot(u.reshape(len(u), -1).T,
                       vecs[rows]).reshape(u.shape[1:] + (-1,))
        u *= self._inv_eig
        for vecs in self._vecs:
            u = np.dot(u.reshape(len(u), -1).T, vecs.T).reshape(u.shape[1:] + (-1,))
        return u

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Homogeneous-closure operator action L u on a cell array.  Per
        axis, u is padded with its Robin ghost cells (beta times the first
        and last cell), and the left and right neighbours are slices of
        that one padded array."""
        g, D = self.grid, self.medium.D
        u = np.asarray(values, dtype=np.float64).reshape(g.cells)
        out = self.mu_a * u
        for ax in range(g.dim):
            dx = g.spacing[ax]
            beta = self._beta[ax]
            n = g.cells[ax]
            lead = (slice(None),) * ax
            upad = np.empty(g.cells[:ax] + (n + 2,) + g.cells[ax + 1:])
            upad[lead + (slice(1, n + 1),)] = u
            upad[lead + (slice(0, 1),)] = beta * u[lead + (slice(0, 1),)]
            upad[lead + (slice(n + 1, n + 2),)] = beta * u[lead + (slice(n - 1, n),)]
            left = upad[lead + (slice(0, n),)]
            right = upad[lead + (slice(2, n + 2),)]
            out += D * (2.0 * u - left - right) / dx ** 2
        return out

    def boundary_rhs(self, h: BoundaryField) -> np.ndarray:
        """Cell right-hand side induced by the inhomogeneous Robin datum h."""
        g, D = self.grid, self.medium.D
        spacing = g.spacing
        rhs = np.zeros(g.cells)
        for ax, edge, faces in _sides(g):
            coeff = D / (self._c_plus[ax] * spacing[ax] ** 2)
            side = (slice(None),) * ax + (edge,)
            rhs[side] += coeff * h.values[faces].reshape(rhs[side].shape)
        return rhs

    def solve(self, rhs, tol=1e-10):
        """Conjugate gradients preconditioned by `_precondition`.

        With constant mu_a the preconditioner is the exact inverse, so CG
        stops after one or two iterations; a varying mu_a differs from its
        mean by a bounded diagonal, and CG takes a handful more.  Stops when
        ||b - Lx|| <= tol * ||b||, tested as soon as the residual is updated
        so a converged iterate costs no preconditioner pass, and records
        (iterations, relative residual) in `last_solve`; raises
        SolverFailureError at the cap of max(200, 20 * n_cells^(1/dim))
        iterations, and InvalidArgumentError
        when ||b|| is not finite, which no residual can be measured against.
        Accumulation order is fixed, so results are reproducible bit-for-bit.
        """
        g = self.grid
        b = np.asarray(rhs, dtype=np.float64).reshape(g.cells)
        b_norm = np.linalg.norm(b)
        if not np.isfinite(b_norm):
            raise InvalidArgumentError(
                f"right-hand side norm {b_norm} is not finite")
        if b_norm == 0.0:
            self.last_solve = (0, 0.0)
            return np.zeros(g.cells)
        max_iter = max(200, int(20 * g.n_cells ** (1.0 / g.dim)))
        x = np.zeros(g.cells)
        res = b_norm
        r = b.copy()
        z = self._precondition(r)
        p = z  # never written in place
        rz = float(np.sum(r * z))
        for it in range(1, max_iter + 1):
            Ap = self.apply(p)
            alpha = rz / float(np.sum(p * Ap))
            x += alpha * p
            r -= alpha * Ap
            res = float(np.linalg.norm(r))
            if res <= tol * b_norm:
                self.last_solve = (it, float(res / b_norm))
                return x
            z = self._precondition(r)
            rz_new = float(np.sum(r * z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise SolverFailureError(
            f"CG did not reach tol={tol:g} in {max_iter} iterations "
            f"(relative residual {res / b_norm:.3e})",
            residual=res / b_norm, iterations=max_iter)


def _robin_modes(n, beta):
    """Eigenpairs of the n x n tridiag(-1, 2, -1) whose two corners are
    2 - beta (|beta| < 1), eigenvalues ascending, eigenvectors as columns.

    Mode m is cos(theta (j - c)) for even m and sin(theta (j - c)) for odd m,
    c = (n - 1)/2, with eigenvalue 2 - 2 cos(theta) = 4 sin^2(theta/2).  The
    corner row asks cos(theta (c+1)) = beta cos(theta c) (even) or the same
    with sines (odd); with theta = m pi/n + phi both reduce to
    g(phi) = cos(s + phi (c+1)) - beta cos(phi c - s) = 0, s = m pi/(2n).
    g is (1 - beta) cos s > 0 at phi = 0 and -(1 + beta) sin(s + pi/(2n)) < 0
    at phi = pi/n, and its arguments stay below pi, so vectorized bisection
    finds every root to roundoff.
    """
    c = 0.5 * (n - 1)
    m = np.arange(n)
    s = m * (0.5 * np.pi / n)
    lo = np.zeros(n)
    hi = np.full(n, np.pi / n)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        pos = np.cos(s + mid * (c + 1.0)) - beta * np.cos(mid * c - s) > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    theta = m * (np.pi / n) + 0.5 * (lo + hi)
    vecs = (np.arange(n)[:, None] - c) * theta
    np.cos(vecs[:, ::2], out=vecs[:, ::2])
    np.sin(vecs[:, 1::2], out=vecs[:, 1::2])
    vecs /= np.linalg.norm(vecs, axis=0)
    return 4.0 * np.sin(0.5 * theta) ** 2, vecs


def assemble_operator(grid: Grid, medium: OpticalMedium):
    """Assemble the diffusion operator of the medium's constant mu_a."""
    return DiscreteOperator(grid, medium, medium.mu_a)


# ---------------------------------------------------------------------------
# forward / adjoint solves and boundary data
# ---------------------------------------------------------------------------

def solve_forward(op: DiscreteOperator, source, tol=1e-10):
    """Solve L u = s with homogeneous Robin boundary for a source s given
    as an array of the grid's cell values (grid-shaped or flat); returns
    the cell array u."""
    if np.size(source) != op.grid.n_cells:
        raise InvalidArgumentError("source grid does not match operator grid")
    return op.solve(source, tol=tol)


def solve_adjoint_weight(op: DiscreteOperator, h: BoundaryField, tol=1e-13):
    """Solve L v = 0 with Robin datum h; returns the interior weight field."""
    if h.grid != op.grid:
        raise InvalidArgumentError("boundary datum grid mismatch")
    rhs = op.boundary_rhs(h)
    v = op.solve(rhs, tol=tol)
    return ScalarField(op.grid, v)


def _floored_weight(v: ScalarField):
    """The divisor of every division by the weight: v floored at
    V_FLOOR_FRACTION of its maximum.  Raises InvalidArgumentError when v is
    positive nowhere, where that floor is no positive divisor."""
    v_max = float(np.max(v.values))
    if not v_max > 0:
        raise InvalidArgumentError("the weight v must be positive somewhere")
    return np.maximum(v.values, V_FLOOR_FRACTION * v_max)


def boundary_flux(op: DiscreteOperator, u):
    """Outgoing flux Q = u_face / (2A) of the grid-shaped cell array u on
    every boundary face, in the order of `_sides`, with the face trace
    implied by the ghost closure: exactly compatible with the discrete
    reciprocity identity.

    One gather of the faces' cells (`DiscreteOperator._face_cells`), times
    D, divided by each face's c_plus * dx: per face the arithmetic of
    D * u_cell / (c_plus * dx), so the bits of a loop over the sides."""
    if np.shape(u) != op.grid.cells:
        raise InvalidArgumentError("field grid mismatch")
    vals = np.take(u, op._face_cells)
    vals *= op.medium.D
    vals /= op._face_divisor
    return vals


def boundary_functional(h: BoundaryField, q):
    """Midpoint quadrature of the boundary integral of h times q, values on
    the boundary faces of h's grid in the order of `_sides`."""
    if np.shape(q) != h.values.shape:
        raise InvalidArgumentError("boundary field grid mismatch")
    return float(np.sum(h.values * q * h.areas))
