"""Reference computations that the tests check the toolkit against.

None of these runs in a pipeline or CLI verb: each is an independent
discretization or closed form that an acceptance criterion or unit test
compares the runtime path with.

- `bessel_i0`, `bessel_i1`: modified Bessel functions of the first kind by
  their ascending power series, which has no cancellation (all terms
  positive) and converges fast enough over the working range [0, 50];
- `radial_weight_disk`, `radial_weight_ball`: closed-form radial weights
  of a disk and a ball, and `radial_ode_solve`, a 1D finite-difference
  solve of their ODE;
- `continuum_flux`: the outgoing flux with the face trace extrapolated
  from the cells, and `reciprocity_residual`, the gap of the reciprocity
  identity under that flux or the runtime `boundary_flux`;
- `null_space_defect`: <V h, L phi> for interior-supported phi;
- `cone_intensity`: the cone kernel at one source point;
- `two_call_factor_2d`: the 2D angular factor with the density evaluated
  at both perpendicular directions, as `multiplier._factor_2d` formed it
  before it doubled one evaluation;
- `stacked_linear_map`, `stacked_data`: the scan operator and LSQR data
  with one row per aperture, as LSQR ran before it took one row per
  distinct cone;
- `stacked_forward`: the cone operator's rows formed into one stack, as
  `ConeConvolution.forward` did before `ConeConvolution.rows` gave them
  one at a time;
- `low_shell`, `kernel_shell`: the lowest frequency shell of a cone
  operator's circular grid as a mask, from the stacked frequencies, and
  the summed kernel spectrum on it from a held stack, as
  `multiplier._kernel_spectrum` formed it before the cone operator summed
  it (`ConeConvolution.shell_sum`);
- `loop_aperture_groups`: the grouping of apertures into distinct double
  cones, one pair of apertures at a time;
- `one_shot_fbp`: filtered backprojection with every profile filtered in
  one transform of the whole sinogram, as `fbp.fbp` filtered before it
  took a block of angles at a time;
- `centers_phantom`: the phantom rasterized from the stacked cell centers,
  as `fields.build_phantom` did before it summed per-axis distances;
- `half_sampled_cone_kernel`: `excitation.cone_kernel` with every later
  axis sampled on both sides, as it was before it reflected the axes
  whose aperture-axis component is 0.0;
- `per_side_flux`, `tensordot_precondition`, `per_focus_measurements`:
  `diffusion.boundary_flux` as a loop over the boundary sides,
  `DiscreteOperator._precondition` with np.tensordot's mode products, and
  `excitation.full_physics_measurements` with one kernel sampling per
  focus, as each was before the spot check took a block of foci per
  sampling and one gather of the boundary cells.
"""

import itertools
import math

import numpy as np

from lumitomo.algebraic import LinearMap
from lumitomo.diffusion import (_sides, boundary_face_count,
                                boundary_flux, boundary_functional,
                                solve_adjoint_weight, solve_forward)
from lumitomo.errors import InvalidArgumentError
from lumitomo.excitation import (KERNEL_BLOCK_SAMPLES, LOW_FREQ_BINS,
                                 _kernel_samples, _self_cell_weight)
from lumitomo.fbp import FbpFilter, _backproject
from lumitomo.fields import ScalarField

_MAX_TERMS = 400


def bessel_i0(x):
    """Modified Bessel function of the first kind, order 0."""
    if x < 0:
        raise InvalidArgumentError(f"bessel_i0 requires x >= 0, got {x}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, _MAX_TERMS):
        term *= q / (k * k)
        total += term
        if term < total * 1e-18:
            break
    return total


def bessel_i1(x):
    """Modified Bessel function of the first kind, order 1."""
    if x < 0:
        raise InvalidArgumentError(f"bessel_i1 requires x >= 0, got {x}")
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    for k in range(1, _MAX_TERMS):
        term *= q / (k * (k + 1))
        total += term
        if term < total * 1e-18:
            break
    return total


def attenuation(medium):
    """Effective attenuation wavenumber sqrt(mu_a / D) [1/mm] of an
    `OpticalMedium`."""
    return float(np.sqrt(medium.mu_a / medium.D))


def l2_norm(field):
    """Volume-weighted L2 norm of a `ScalarField`."""
    return float(np.sqrt(np.sum(field.values ** 2) * field.grid.cell_volume))


def radial_weight_ball(medium, a, r):
    """Closed-form 3D radial weight sinh(k r)/r on a ball of radius a.

    Returns (v(r), h) with h the constant Robin trace v(a) + 2AD v'(a).
    The derivative term uses d/dr [sinh(kr)/r] = k cosh(kr)/r - sinh(kr)/r^2.
    """
    if a <= 0 or not (0 <= r <= a):
        raise InvalidArgumentError("need 0 <= r <= a with a > 0")
    k = attenuation(medium)
    if r == 0.0:
        v = k  # limit of sinh(kr)/r
    else:
        v = np.sinh(k * r) / r
    dv = k * np.cosh(k * a) / a - np.sinh(k * a) / a ** 2
    h = np.sinh(k * a) / a + 2.0 * medium.A * medium.D * dv
    return float(v), float(h)


def radial_weight_disk(medium, a, r):
    """Closed-form 2D radial weight I0(k r) on a disk of radius a.

    Returns (v(r), h) with h = I0(k a) + 2 A D k I1(k a); the factor k comes
    from d/dr I0(kr) = k I1(kr).
    """
    if a <= 0 or not (0 <= r <= a):
        raise InvalidArgumentError("need 0 <= r <= a with a > 0")
    k = attenuation(medium)
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


def radial_ode_solve(medium, a, n_dim, h_const):
    """Second-order FD solve of the radial weight ODE.

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


def continuum_flux(op, u):
    """Outgoing flux Q = u_face / (2A) of the cell array u on every
    boundary face, the trace extrapolated from the three nearest cell
    values: an independent discretization of `diffusion.boundary_flux`
    whose error vanishes under refinement."""
    g, med = op.grid, op.medium
    if np.shape(u) != g.cells:
        raise InvalidArgumentError("field grid mismatch")
    vals = np.empty(boundary_face_count(g))
    for ax, edge, faces in _sides(g):
        u1 = np.ravel(np.take(u, edge, axis=ax))
        # quadratic extrapolation through the cells at dx/2, 3dx/2, 5dx/2
        step = 1 if edge == 0 else -1
        u2 = np.ravel(np.take(u, edge + step, axis=ax))
        u3 = np.ravel(np.take(u, edge + 2 * step, axis=ax))
        vals[faces] = (15.0 * u1 - 10.0 * u2 + 3.0 * u3) / (8.0 * 2.0 * med.A)
    return vals


def reciprocity_residual(op, h, source, mode="consistent"):
    """Relative gap between the interior and boundary sides of reciprocity.

    Computes | <V h, s> - int_bdry h Q | / max(|<V h, s>|, tiny) by running
    the adjoint solve, the forward solve (both to tol 1e-12) and the flux
    extraction: `boundary_flux` for mode "consistent", `continuum_flux` for
    mode "continuum".
    """
    v = solve_adjoint_weight(op, h, tol=1e-12)
    u = solve_forward(op, source.values, tol=1e-12)
    Q = {"consistent": boundary_flux,
         "continuum": continuum_flux}[mode](op, u)
    lhs = float(np.sum(v.values * source.values) * op.grid.cell_volume)
    rhs = boundary_functional(h, Q)
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def null_space_defect(op, h, phi):
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
    norm = l2_norm(phi)
    if norm == 0.0:
        return 0.0
    v = solve_adjoint_weight(op, h)
    val = float(np.sum(v.values * op.apply(phi.values)) * g.cell_volume)
    return abs(val) / norm


def cone_intensity(ap, x_focus, y):
    """Beam intensity kernel a((x-y)/|x-y|) / |x-y|^{n-1} at a source point."""
    d = np.asarray(x_focus, float) - np.asarray(y, float)
    r = np.linalg.norm(d)
    if r == 0.0:
        raise InvalidArgumentError("cone_intensity is singular at the focus")
    return float(ap.profile(np.dot(d / r, ap.axis)) / r ** (ap.dim - 1))


def two_call_factor_2d(ap, om):
    """The 2D angular factor of the unit direction rows om: pi times the
    density at the perpendicular direction of each row plus the density
    at its opposite, one `profile` call each."""
    perp = np.stack([-om[:, 1], om[:, 0]], axis=1)
    c = perp @ np.asarray(ap.axis)
    return np.pi * (ap.profile(c) + ap.profile(-c))


def loop_aperture_groups(apertures):
    """`excitation._aperture_groups` as a loop over the distinct apertures
    found so far: equal dim, half_angle, taper_width and amplitude, and axes
    equal up to sign to 1e-12; the first match wins."""
    distinct, group = [], []
    for ap in apertures:
        axis = np.asarray(ap.axis)
        for i, rep in enumerate(distinct):
            if ((ap.dim, ap.half_angle, ap.taper_width, ap.amplitude)
                    == (rep.dim, rep.half_angle, rep.taper_width, rep.amplitude)
                    and min(np.max(np.abs(axis - rep.axis)),
                            np.max(np.abs(axis + rep.axis))) <= 1e-12):
                group.append(i)
                break
        else:
            group.append(len(distinct))
            distinct.append(ap)
    return distinct, group


def stacked_forward(conv, g):
    """The rows of `conv` on the source g, stacked: one FFT of g, then per
    distinct cone its spectrum's product and inverse FFT into its row."""
    G = conv._spectrum(g, np.empty(conv._half, complex))
    P = np.empty(conv._half, complex)
    out = np.empty((len(conv.spectra),) + conv.cells)
    for i, S in enumerate(conv.spectra):
        np.multiply(G, S, out=P)
        conv._inverse(P, out[i])
    return out


def low_shell(conv):
    """The mask of the lowest frequency shell on the half spectrum of the
    circular grid of `conv`: |xi| <= LOW_FREQ_BINS times its smallest
    frequency, |xi| the norm of the (..., dim) stack of half-spectrum
    angular frequencies."""
    spacing = conv.grid.spacing
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=h)
            for n, h in zip(conv.shape[:-1], spacing[:-1])]
    axes.append(2.0 * np.pi * np.fft.rfftfreq(conv.shape[-1], d=spacing[-1]))
    xi = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    xi_min = min(2.0 * np.pi / (n * h) for n, h in zip(conv.shape, spacing))
    return (np.sqrt(np.sum(xi * xi, axis=-1))
            <= LOW_FREQ_BINS * xi_min * (1.0 + 1e-9))


def kernel_shell(conv):
    """The multiplicity-weighted sum of the held spectra of `conv` on its
    `low_shell`, times the cell volume, by Python's sum."""
    low = low_shell(conv)
    return (sum(c * S[low] for c, S in zip(conv.counts, conv.spectra))
            * conv.grid.cell_volume)


def stacked_linear_map(conv, v):
    """The scan operator f -> K_{group[j]} (V f) for every aperture j of
    `conv`, stacked, V = v * cell volume: each distinct cone's row repeated
    for each of its apertures, with adjoint y -> V sum_j K_{group[j]} y_j.
    The reference of `algebraic.scan_linear_map`, its reduction to one
    row per distinct cone."""
    grid = v.grid
    vvol = v.values * grid.cell_volume
    stacked = (len(conv.group),) + tuple(grid.cells)

    def forward(x):
        rows = np.stack([row.copy() for row in
                         conv.rows(x.reshape(grid.cells) * vvol)])
        return rows[conv.group].ravel()

    def adjoint(y):
        y = y.reshape(stacked)
        summed = np.stack([y[conv.group == i].sum(axis=0)
                           for i in range(len(conv.spectra))])
        return (conv.adjoint(summed) * vvol).ravel()

    return LinearMap(n_data=len(conv.group) * grid.n_cells,
                     n_model=grid.n_cells, forward=forward, adjoint=adjoint)


def stacked_data(scan):
    """The fields of a `ConeScanData`, one row per aperture, flattened: the
    data of `stacked_linear_map`."""
    return np.concatenate([f.values.ravel() for f in scan.fields])


def one_shot_fbp(sino, grid, filt=None):
    """`fbp.fbp` of a valid sinogram with the whole sinogram's rfft, its
    product with the response and its irfft formed at once, and the
    cropped profiles padded by `np.pad` for `_backproject`."""
    filt = FbpFilter() if filt is None else filt
    offsets = sino.offsets
    n = offsets.size
    dz = offsets[1] - offsets[0]
    npad = int(2 ** np.ceil(np.log2(2 * n)))
    resp = filt.response(np.fft.rfftfreq(npad, d=dz), nyquist=0.5 / dz)
    spec = np.fft.rfft(sino.values, npad, axis=1)
    filtered = np.fft.irfft(spec * resp[None, :], npad, axis=1)[:, :n]
    out = _backproject(np.pad(filtered, ((0, 0), (2, 2))), sino.angles,
                       offsets, grid)
    out *= np.pi / sino.angles.size
    return ScalarField(grid, out)


def centers_phantom(spec, grid):
    """`fields.build_phantom` from `grid.centers()`: each inclusion's squared
    distances as the sum over the last axis of the centers' squared
    offsets."""
    vals = np.full(grid.cells, float(spec.background))
    centers = grid.centers()
    for (center, radius, conc) in spec.inclusions:
        d2 = np.sum((centers - np.asarray(center)) ** 2, axis=-1)
        vals[d2 <= radius * radius] = conc
    return vals


def half_sampled_cone_kernel(ap, grid):
    """`excitation.cone_kernel` sampled at every offset whose first
    component is <= 0, in blocks of whole first-axis rows of at most
    KERNEL_BLOCK_SAMPLES offsets, with the entries of first component > 0
    mirrored through the zero offset (every later axis flipped)."""
    cells = grid.cells
    offsets = [np.arange(-(n - 1), n) * h for n, h in zip(cells, grid.spacing)]
    self_weight = _self_cell_weight(ap, grid)
    n0 = cells[0]
    K = np.zeros(tuple(2 * n for n in cells))
    pairs = [((slice(0, n), slice(n - 1, 2 * n - 1)),
              (slice(n + 1, 2 * n), slice(0, n - 1))) for n in cells[1:]]
    flip = tuple(range(1, grid.dim))
    rows = max(1, KERNEL_BLOCK_SAMPLES // math.prod(len(o) for o in offsets[1:]))
    for lo in range(0, n0, rows):
        hi = min(lo + rows, n0)
        d = np.stack(np.meshgrid(offsets[0][lo:hi], *offsets[1:], indexing="ij"),
                     axis=-1)
        half = _kernel_samples(ap, grid, d, self_weight)
        i = np.arange(lo, hi)
        mirrored = i < n0 - 1
        mirror = np.flip(half[mirrored], axis=flip)
        for block in itertools.product(*pairs):
            dst, src = zip(*block)
            K[((i + n0 + 1) % (2 * n0),) + dst] = half[(slice(None),) + src]
            K[(n0 - 1 - i[mirrored],) + dst] = mirror[(slice(None),) + src]
    return K


def per_side_flux(op, u):
    """`diffusion.boundary_flux` as a loop over the sides of `_sides`: the
    cells beside each side, times D, over c_plus * dx of its axis."""
    g, med = op.grid, op.medium
    vals = np.empty(boundary_face_count(g))
    for ax, edge, faces in _sides(g):
        u1 = np.ravel(np.take(u, edge, axis=ax))
        vals[faces] = med.D * u1 / (op._c_plus[ax] * g.spacing[ax])
    return vals


def tensordot_precondition(op, r):
    """`DiscreteOperator._precondition` with each mode product formed by
    np.tensordot."""
    u = r
    for vecs in op._vecs:
        u = np.tensordot(u, vecs, axes=(0, 0))
    u *= op._inv_eig
    for vecs in op._vecs:
        u = np.tensordot(u, vecs, axes=(0, 1))
    return u


def per_focus_measurements(op, h, f, ap, foci):
    """`excitation.full_physics_measurements` as a loop over the foci: per
    focus one `_kernel_samples` call on the support of f, and for a source
    with a nonzero cell a forward solve, `per_side_flux` and the boundary
    functional; 0.0 for the others."""
    grid = op.grid
    support = np.flatnonzero(f.values)
    centers = grid.centers().reshape(-1, grid.dim)[support]
    f_support = f.values.ravel()[support]
    self_weight = _self_cell_weight(ap, grid)
    out = []
    for x in foci:
        values = _kernel_samples(
            ap, grid, np.asarray(x, float) - centers, self_weight) * f_support
        if not values.any():
            out.append(0.0)
            continue
        source = np.zeros(grid.n_cells)
        source[support] = values
        out.append(boundary_functional(
            h, per_side_flux(op, solve_forward(op, source))))
    return np.array(out)
