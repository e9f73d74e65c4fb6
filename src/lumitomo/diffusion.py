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
from .fields import Grid, OpticalMedium, ScalarField
from .bessel import bessel_i0, bessel_i1

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

    def measure(self):
        """Total surface measure of the boundary (perimeter or area)."""
        return float(np.sum(self.areas))


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
        if np.any(self.mu_a < 0):
            raise InvalidArgumentError("mu_a must be non-negative everywhere")
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
        modes = [_robin_modes(n, beta) for n, beta in zip(g.cells, self._beta)]
        self._vecs = [vecs for _, vecs in modes]
        eig = np.full(g.cells, float(np.mean(self.mu_a)))
        for ax, (lam, _) in enumerate(modes):
            shape = [1] * g.dim
            shape[ax] = -1
            eig += (med.D / g.spacing[ax] ** 2) * lam.reshape(shape)
        self._inv_eig = 1.0 / eig
        self.last_solve = (0, 0.0)

    def _precondition(self, r):
        """Exact inverse of the operator with mu_a replaced by its mean.

        That operator is mean(mu_a) I + sum_ax D/dx_ax^2 K_ax with K_ax the
        Robin-cornered tridiag(-1, 2, -1) of `_robin_modes`, so its inverse is
        a mode transform along every axis, a division by the summed
        eigenvalues and the transform back (Lynch, Rice & Thomas, Numer.
        Math. 6, 1964).  Each tensordot contracts the leading axis and
        appends the result axis, so after one pass the axes are in order.
        """
        u = r
        for vecs in self._vecs:
            u = np.tensordot(u, vecs, axes=(0, 0))
        u *= self._inv_eig
        for vecs in self._vecs:
            u = np.tensordot(u, vecs, axes=(0, 1))
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

    def solve(self, rhs, tol=1e-10, max_iter=None):
        """Conjugate gradients preconditioned by `_precondition`.

        With constant mu_a the preconditioner is the exact inverse, so CG
        stops after one or two iterations; a varying mu_a differs from its
        mean by a bounded diagonal, and CG takes a handful more.  Stops when
        ||b - Lx|| <= tol * ||b||, tested as soon as the residual is updated
        so a converged iterate costs no preconditioner pass, and records
        (iterations, relative residual) in `last_solve`; raises
        SolverFailureError at the iteration cap, and InvalidArgumentError
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
        if max_iter is None:
            max_iter = max(200, int(20 * g.n_cells ** (1.0 / g.dim)))
        x = np.zeros(g.cells)
        res = b_norm
        r = b.copy()
        z = self._precondition(r)
        p = z.copy()
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


def assemble_operator(grid: Grid, medium: OpticalMedium, mu_a_field=None):
    """Assemble the diffusion operator; mu_a_field overrides the medium value."""
    mu_a = medium.mu_a if mu_a_field is None else mu_a_field
    return DiscreteOperator(grid, medium, mu_a)


# ---------------------------------------------------------------------------
# forward / adjoint solves and boundary data
# ---------------------------------------------------------------------------

def solve_forward(op: DiscreteOperator, source: ScalarField, tol=1e-10):
    """Solve L u = s with homogeneous Robin boundary."""
    if source.grid != op.grid:
        raise InvalidArgumentError("source grid does not match operator grid")
    u = op.solve(source.values, tol=tol)
    return ScalarField(op.grid, u)


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


def boundary_flux(op: DiscreteOperator, u: ScalarField, mode="consistent"):
    """Outgoing flux Q = u_face / (2A) on every boundary face.

    mode "consistent" uses the face trace implied by the ghost closure
    (exactly compatible with the discrete reciprocity identity); mode
    "continuum" extrapolates the trace from the three nearest cell values,
    an independent discretization whose error vanishes under refinement.
    """
    if u.grid != op.grid:
        raise InvalidArgumentError("field grid mismatch")
    g, med = op.grid, op.medium
    spacing = g.spacing
    vals = np.empty(boundary_face_count(g))
    for ax, edge, faces in _sides(g):
        u1 = np.ravel(np.take(u.values, edge, axis=ax))
        if mode == "consistent":
            # face trace (u_ghost + u_in)/2 under the homogeneous closure
            q = med.D * u1 / (op._c_plus[ax] * spacing[ax])
        elif mode == "continuum":
            # quadratic extrapolation through the cells at dx/2, 3dx/2, 5dx/2
            step = 1 if edge == 0 else -1
            u2 = np.ravel(np.take(u.values, edge + step, axis=ax))
            u3 = np.ravel(np.take(u.values, edge + 2 * step, axis=ax))
            q = (15.0 * u1 - 10.0 * u2 + 3.0 * u3) / (8.0 * 2.0 * med.A)
        else:
            raise InvalidArgumentError(f"unknown flux mode {mode!r}")
        vals[faces] = q
    return BoundaryField(g, vals)


def boundary_functional(h: BoundaryField, Q: BoundaryField):
    """Midpoint quadrature of the boundary integral of h * Q."""
    if h.grid != Q.grid:
        raise InvalidArgumentError("boundary field grid mismatch")
    return float(np.sum(h.values * Q.values * h.areas))


def reciprocity_residual(op: DiscreteOperator, h: BoundaryField,
                         source: ScalarField, mode="consistent"):
    """Relative gap between the interior and boundary sides of reciprocity.

    Computes | <V h, s> - int_bdry h Q | / max(|<V h, s>|, tiny) by running
    the adjoint solve, the forward solve (both to tol 1e-12) and the flux
    extraction.
    """
    v = solve_adjoint_weight(op, h, tol=1e-12)
    u = solve_forward(op, source, tol=1e-12)
    Q = boundary_flux(op, u, mode=mode)
    lhs = float(np.sum(v.values * source.values) * op.grid.cell_volume)
    rhs = boundary_functional(h, Q)
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def null_space_defect(op: DiscreteOperator, h: BoundaryField,
                      phi: ScalarField):
    """Size of <V h, L phi> for interior-supported phi (zero in theory).

    phi must vanish on a boundary collar of 2 cells; the result is
    normalized by the L2 norm of phi.
    """
    g = op.grid
    if phi.grid != g:
        raise InvalidArgumentError("phi grid mismatch")
    interior = np.zeros(g.cells, dtype=bool)
    interior[tuple(slice(2, n - 2) for n in g.cells)] = True
    if np.any(phi.values[~interior] != 0.0):
        raise InvalidArgumentError("phi must vanish on a 2-cell boundary collar")
    norm = phi.l2_norm()
    if norm == 0.0:
        return 0.0
    v = solve_adjoint_weight(op, h)
    val = float(np.sum(v.values * op.apply(phi.values)) * g.cell_volume)
    return abs(val) / norm


# ---------------------------------------------------------------------------
# closed forms for constant coefficients
# ---------------------------------------------------------------------------

def greens_3d(medium: OpticalMedium, x, y):
    """Free-space kernel exp(-k r) / (4 pi D r) of -D Lap + mu_a in 3D."""
    r = float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    if r == 0.0:
        raise InvalidArgumentError("greens_3d is singular at x == y")
    k = medium.k
    return np.exp(-k * r) / (4.0 * np.pi * medium.D * r)


def radial_weight_ball(medium: OpticalMedium, a, r):
    """Closed-form 3D radial weight sinh(k r)/r on a ball of radius a.

    Returns (v(r), h) with h the constant Robin trace v(a) + 2AD v'(a).
    The derivative term uses d/dr [sinh(kr)/r] = k cosh(kr)/r - sinh(kr)/r^2.
    """
    if a <= 0 or not (0 <= r <= a):
        raise InvalidArgumentError("need 0 <= r <= a with a > 0")
    k = medium.k
    if r == 0.0:
        v = k  # limit of sinh(kr)/r
    else:
        v = np.sinh(k * r) / r
    dv = k * np.cosh(k * a) / a - np.sinh(k * a) / a ** 2
    h = np.sinh(k * a) / a + 2.0 * medium.A * medium.D * dv
    return float(v), float(h)


def radial_weight_disk(medium: OpticalMedium, a, r):
    """Closed-form 2D radial weight I0(k r) on a disk of radius a.

    Returns (v(r), h) with h = I0(k a) + 2 A D k I1(k a); the factor k comes
    from d/dr I0(kr) = k I1(kr).
    """
    if a <= 0 or not (0 <= r <= a):
        raise InvalidArgumentError("need 0 <= r <= a with a > 0")
    k = medium.k
    v = bessel_i0(k * r)
    h = bessel_i0(k * a) + 2.0 * medium.A * medium.D * k * bessel_i1(k * a)
    return float(v), float(h)


def _tridiag_solve(lower, diag, upper, rhs):
    """Thomas algorithm; lower[i] multiplies x[i-1], upper[i] multiplies x[i+1]."""
    n = diag.size
    c = np.zeros(n)
    d = np.zeros(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def radial_ode_solve(medium: OpticalMedium, a, n_dim, h_const):
    """Second-order FD solve of the radial weight ODE; validation oracle.

    Solves -D (v'' + (n-1)/r v') + mu_a v = 0 on [0, a] with regularity
    v'(0) = 0 and Robin v(a) + 2AD v'(a) = h_const on 20000 uniform
    intervals.  Returns (r_nodes, v).
    """
    if n_dim not in (2, 3):
        raise InvalidArgumentError("n_dim must be 2 or 3")
    D, mu_a, A = medium.D, medium.mu_a, medium.A
    M = 20000
    dr = a / M
    r = np.arange(M + 1) * dr
    lower = np.zeros(M + 1)
    diag = np.zeros(M + 1)
    upper = np.zeros(M + 1)
    rhs = np.zeros(M + 1)
    # r = 0: symmetric limit, v'' + (n-1)/r v' -> n v''(0), ghost v[-1]=v[1]
    diag[0] = 2.0 * n_dim * D / dr ** 2 + mu_a
    upper[0] = -2.0 * n_dim * D / dr ** 2
    # interior rows
    ri = r[1:M]
    lower[1:M] = -D / dr ** 2 + D * (n_dim - 1) / (2.0 * dr * ri)
    diag[1:M] = 2.0 * D / dr ** 2 + mu_a
    upper[1:M] = -D / dr ** 2 - D * (n_dim - 1) / (2.0 * dr * ri)
    # r = a: Robin ghost  v_{M+1} = v_{M-1} + (h - v_M) dr / (A D)
    lo = -D / dr ** 2 + D * (n_dim - 1) / (2.0 * dr * a)
    up = -D / dr ** 2 - D * (n_dim - 1) / (2.0 * dr * a)
    lower[M] = lo + up
    diag[M] = 2.0 * D / dr ** 2 + mu_a + up * dr / (A * D) * (-1.0)
    rhs[M] = -up * dr / (A * D) * h_const
    v = _tridiag_solve(lower, diag, upper, rhs)
    return r, v
