"""Matrix-free LSQR, Poisson measurement noise, and the error metric."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .diffusion import _floored_weight
from .errors import (EmptyMaskError, InvalidArgumentError, InvalidOperatorError)
from .fields import ScalarField
from .excitation import ConeConvolution

# numpy's Poisson sampler refuses means above ~9.223e18
POISSON_LAM_MAX = 9.2e18

# The parametrix preconditioner's symbol is (sum_j S_j^2 + delta^2)^(-1/2)
# with delta^2 this fraction of the largest sum_j S_j^2.  It caps the gain
# at frequencies the cones barely see, which an iterate stopped at the
# noise level would otherwise amplify; the converged solution is the same.
PARAMETRIX_MIX = 5e-4


@dataclass
class LinearMap:
    """Abstract linear operator given by forward/adjoint vector actions;
    the forward of a map `by_rows` also takes a callback: forward(x, each)
    calls each(start, row) on the rows of A x in turn and forms no A x."""

    n_data: int
    n_model: int
    forward: callable   # (n_model,) -> (n_data,)
    adjoint: callable   # (n_data,) -> (n_model,)
    by_rows: bool = False

    def _pieces(self, x, each):
        """each(start, piece) over A x, by rows when the map gives them."""
        if self.by_rows:
            self.forward(x, each)
        else:
            each(0, self.forward(x))

    def add_forward(self, x, out):
        """out += A x in place: the bits of out += forward(x)."""
        def add(start, piece):
            out[start:start + piece.size] += piece
        self._pieces(x, add)

    def dot_test(self, seed=0):
        """Relative defect of <A x, y> - <x, A^T y> on random vectors."""
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.standard_normal(self.n_model)
        y = rng.standard_normal(self.n_data)
        dots = []
        self._pieces(x, lambda start, piece: dots.append(
            float(np.dot(piece, y[start:start + piece.size]))))
        lhs = sum(dots)
        rhs = float(np.dot(x, self.adjoint(y)))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        return abs(lhs - rhs) / scale


def scan_linear_map(conv: ConeConvolution, v: ScalarField) -> LinearMap:
    """Matrix-free fast-mode scan operator on the distinct cones:
    f -> sqrt(c_i) K_i (V f) for each distinct cone i of `conv`, stacked,
    with c_i its number of apertures (`conv.counts`) and V = v * cell
    volume.

    The operator A with one row K_i V per aperture has the same normal
    operator, A'^T A' = A^T A.  For data b_j, one per aperture, the data
    b'_i = sqrt(c_i) * (mean of the b_j of cone i) give A'^T b' = A^T b,
    and ||A x - b||^2 = ||A' x - b'||^2 + the squared deviations of the b_j
    from their cone's mean, which no x changes.  So LSQR on (A', b') has
    the iterates of LSQR on (A, b) with a fraction of the data (half for
    the default 10 cones, 5 double cones), and `lsqr`'s `residual_floor`
    adds the constant back.  Forward and adjoint share one set of real
    kernel spectra, which `conv` must hold, so the dot test holds to
    machine precision.  The map is `by_rows` (`conv.rows`).
    """
    grid = v.grid
    if conv.grid != grid:
        raise InvalidArgumentError("conv and v must share a grid")
    vvol = v.values * grid.cell_volume
    weights = np.sqrt(conv.counts)
    rows = (len(weights),) + tuple(grid.cells)

    def forward(x, each=None):
        out = None
        if each is None:
            out = np.empty(len(weights) * grid.n_cells)

            def each(start, row):
                out[start:start + row.size] = row
        for i, row in enumerate(conv.rows(x.reshape(grid.cells) * vvol)):
            row *= weights[i]
            each(i * grid.n_cells, row.ravel())
        return out

    def adjoint(y):
        out = conv.adjoint(y.reshape(rows), weights)
        out *= vvol
        return out.ravel()

    return LinearMap(n_data=len(weights) * grid.n_cells,
                     n_model=grid.n_cells, forward=forward, adjoint=adjoint,
                     by_rows=True)


def parametrix_preconditioner(conv: ConeConvolution, v: ScalarField) -> LinearMap:
    """Right preconditioner of `scan_linear_map(conv, v)`.

    With V = v * cell volume (v floored by `diffusion._floored_weight`, as
    in every division by the weight) and P = (sum_j S_j^2 + delta^2)^(-1/2)
    over the cones' real spectra S_j (delta^2 = PARAMETRIX_MIX * max
    sum_j S_j^2),

        M z = V^-1 crop F^-1 [P F pad z],   M^T y = crop F^-1 [P F pad (y / V)].

    Away from the crop, A^T A = V F^-1[sum_j S_j^2] F V, so A M is close to
    an isometry: M M^T A^T is the paper's parametrix q_j = r_j / sum_k r_k^2
    on the discrete kernels.
    """
    grid = v.grid
    if conv.grid != grid:
        raise InvalidArgumentError("conv and v must share a grid")
    if conv.spectra is None:
        raise InvalidArgumentError(
            "the preconditioner needs a cone operator that holds its spectra")
    power = np.tensordot(conv.counts, conv.spectra ** 2, axes=1)
    symbol = 1.0 / np.sqrt(power + PARAMETRIX_MIX * np.max(power))
    vvol = _floored_weight(v) * grid.cell_volume

    def forward(z):
        out = conv.filter(z.reshape(grid.cells), symbol)
        out /= vvol
        return out.ravel()

    def adjoint(y):
        return conv.filter(y.reshape(grid.cells) / vvol, symbol).ravel()

    return LinearMap(n_data=grid.n_cells, n_model=grid.n_cells,
                     forward=forward, adjoint=adjoint)


def compose(A: LinearMap, M: LinearMap) -> LinearMap:
    """The product A M: one call of each of A's actions per call of its
    own, by rows when A is."""
    if M.n_data != A.n_model:
        raise InvalidArgumentError("inner dimensions of A M differ")
    return LinearMap(n_data=A.n_data, n_model=M.n_model,
                     forward=lambda z, *each: A.forward(M.forward(z), *each),
                     adjoint=lambda y: M.adjoint(A.adjoint(y)),
                     by_rows=A.by_rows)


def lsqr(linmap: LinearMap, data, max_iters=500, atol=1e-8,
         stop_residual=0.0, residual_floor=0.0, stats=None):
    """Paige-Saunders LSQR on min ||A x - b||.

    Runs a forward/adjoint dot test before iterating and raises
    InvalidOperatorError when its defect exceeds 1e-10.  With a map
    `by_rows`, u (or the dot test's y) is its one data-sized array beside
    the data.  `residual_floor` is a residual norm that no x removes, of
    data reduced to fewer rows (`scan_linear_map`): every residual norm
    below is hypot(||A x - b||, residual_floor), the residual of the full
    data.  Stops when that residual ||r|| falls to `stop_residual` (the
    discrepancy principle: the expected norm of the data's noise; 0 runs to
    atol), or by Paige and Saunders' tests with atol as both tolerances:
    the normal-equations residual ||A^T r|| / (||A|| ||r||) falls below
    atol (a least-squares solution), or ||r|| <= atol (||b|| + ||A|| ||x||)
    (a consistent system solved), with ||A|| LSQR's running Frobenius-norm
    estimate.  Returns (solution, history) with history rows (iteration,
    ||r||, ||A^T r||, ||A^T r|| / (||A|| ||r||)); the residual norms are
    nonincreasing.  A dict `stats` receives dot_test_s, the seconds that
    the dot test took.
    """
    t0 = time.perf_counter()
    defect = linmap.dot_test()
    if stats is not None:
        stats["dot_test_s"] = time.perf_counter() - t0
    if defect > 1e-10:
        raise InvalidOperatorError(
            f"forward/adjoint dot test failed: defect {defect:.3e}")
    b = np.asarray(data, dtype=np.float64).ravel()
    if b.size != linmap.n_data:
        raise InvalidArgumentError("data length mismatch")

    x = np.zeros(linmap.n_model)
    beta = float(np.linalg.norm(b))
    bnorm = float(np.hypot(beta, residual_floor))
    history = []
    if beta == 0.0:
        return x, np.array([[0, bnorm, 0.0, 0.0]])
    u = b / beta
    v = linmap.adjoint(u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        return x, np.array([[0, bnorm, 0.0, 0.0]])
    # ||A|| >= alpha = ||A^T u|| for the unit vector u, so x = 0 reads 1
    history.append((0, bnorm, alpha * beta, 1.0))
    if bnorm <= stop_residual:
        return x, np.array(history)
    v = v / alpha
    w = v.copy()
    phibar = beta
    rhobar = alpha
    anorm = 0.0
    # u, v, x and w are lsqr's own arrays (never `data` or an operator's
    # input or output), so they are updated in place
    for it in range(1, max_iters + 1):
        u *= -alpha
        linmap.add_forward(v, u)
        beta = float(np.linalg.norm(u))
        if beta > 0:
            u /= beta
        anorm = np.sqrt(anorm ** 2 + alpha ** 2 + beta ** 2)
        v *= -beta
        v += linmap.adjoint(u)
        alpha = float(np.linalg.norm(v))
        if alpha > 0:
            v /= alpha
        # Givens rotation
        rho = np.hypot(rhobar, beta)
        c = rhobar / rho
        s = beta / rho
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar
        x += (phi / rho) * w
        w *= -(theta / rho)
        w += v
        arnorm = alpha * abs(s * phi)
        residual = np.hypot(phibar, residual_floor)
        # anorm >= alpha > 0 from the first iteration on
        relative = arnorm / (anorm * residual) if residual > 0 else 0.0
        history.append((it, residual, arnorm, relative))
        if (residual <= stop_residual or arnorm == 0.0 or relative <= atol
                or residual <= atol * (bnorm + anorm * np.linalg.norm(x))):
            break
    return x, np.array(history)


def lsqr_stop_reason(history, max_iters, stop_residual=0.0):
    """Why an `lsqr` run stopped, read from its history: "zero" when the
    final normal-equations residual is exactly 0 (zero data, data
    orthogonal to the range, or an exact fit), "discrepancy" when the
    residual reached a positive `stop_residual`, "cap" after max_iters
    iterations, otherwise "atol"."""
    iteration, residual, normal_residual = history[-1][:3]
    if normal_residual == 0.0:
        return "zero"
    if residual <= stop_residual:
        return "discrepancy"
    return "cap" if iteration >= max_iters else "atol"


def apply_noise(data, photons, seed):
    """Scaled Poisson noise y -> Poisson(photons * y) / photons, drawn from
    PCG64(seed): deterministic for a fixed seed.  photons must be positive
    and the means photons * data must not exceed POISSON_LAM_MAX."""
    if not photons > 0:
        raise InvalidArgumentError("photons must be positive")
    data = np.asarray(data, dtype=np.float64)
    if np.any(data < 0):
        raise InvalidArgumentError("noise model requires non-negative data")
    if data.size and np.max(data) > POISSON_LAM_MAX / photons:
        raise InvalidArgumentError(
            f"photons * data exceeds {POISSON_LAM_MAX:g}, the largest mean "
            "the Poisson sampler takes")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.poisson(photons * data).astype(np.float64) / photons


def relative_error(truth: ScalarField, recon: ScalarField, eps_bg):
    """Mean relative reconstruction error over cells with truth > eps_bg.

    Returns (signed, absolute): the signed mean of (recon-truth)/truth and
    the mean of its absolute value.
    """
    if truth.grid != recon.grid:
        raise InvalidArgumentError("grids must match")
    if eps_bg < 0:
        raise InvalidArgumentError("eps_bg must be >= 0")
    mask = truth.values > eps_bg
    if not np.any(mask):
        raise EmptyMaskError("no cell exceeds the background threshold")
    rel = (recon.values[mask] - truth.values[mask]) / truth.values[mask]
    return float(np.mean(rel)), float(np.mean(np.abs(rel)))
