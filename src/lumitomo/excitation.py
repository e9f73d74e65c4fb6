"""Excitation models and direct quadrature of the induced transforms.

Double-cone apertures give the focused-beam transform

    Rf(x, j) = sum_y  a_j((x - y)/|x - y|) / |x - y|^{n-1} * v(y) f(y) * vol

evaluated by midpoint quadrature with an analytic polar correction at the
singular self cell.  One private sampler evaluates that kernel at any
offsets: `cone_kernel` tabulates it over the lattice offsets, and the
cone sources of the full-physics chain and the direct sums at focus points
off the field lattice sample it at their own offsets.  On the lattice the
transform is one circular FFT convolution per distinct double cone
(`ConeConvolution`), whose real half spectra the fast scan, the LSQR
operator and the multiplier's low-frequency shell share.  Single-line
excitation gives the parallel-beam sinogram of v * f.  The fast boundary
scan evaluates the transform directly; `full_physics_measurements` runs the
PDE chain per focus point, and the two agree through reciprocity.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .fields import Grid, ScalarField
from .diffusion import (DiscreteOperator, BoundaryField, solve_forward,
                        boundary_flux, boundary_functional)

DEFAULT_TAPER_FRACTION = 0.15
XRAY_BLOCK_SAMPLES = 8192  # line samples per gather in xray_transform


@dataclass(frozen=True)
class Aperture:
    """Even angular density of a double cone about `axis`.

    The density equals `amplitude` within half_angle - taper_width of either
    cone axis direction, falls to zero with a cosine rolloff over
    taper_width, and vanishes outside half_angle.  taper_width=None selects
    the default vignetting of 0.15 * half_angle.
    """

    dim: int
    axis: tuple
    half_angle: float
    taper_width: float = None
    amplitude: float = 1.0

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=np.float64)
        if ax.size != self.dim:
            raise InvalidArgumentError("axis length must equal dim")
        norm = np.linalg.norm(ax)
        if norm == 0:
            raise InvalidArgumentError("axis must be nonzero")
        object.__setattr__(self, "axis", tuple(ax / norm))
        if not (0 < self.half_angle < np.pi / 2):
            raise InvalidArgumentError("half_angle must lie in (0, pi/2)")
        tw = self.taper_width
        if tw is None:
            tw = DEFAULT_TAPER_FRACTION * self.half_angle
        if not (0 <= tw <= self.half_angle):
            raise InvalidArgumentError("taper_width must lie in [0, half_angle]")
        object.__setattr__(self, "taper_width", float(tw))
        if self.amplitude <= 0:
            raise InvalidArgumentError("amplitude must be positive")

    def profile(self, cos_angle):
        """Density as a function of |cos(angle to axis)|; vectorized."""
        c = np.abs(np.asarray(cos_angle, dtype=np.float64))
        ang = np.arccos(np.clip(c, 0.0, 1.0))
        inner = self.half_angle - self.taper_width
        out = np.zeros_like(ang)
        out[ang <= inner] = self.amplitude
        if self.taper_width > 0:
            band = (ang > inner) & (ang < self.half_angle)
            t = (ang[band] - inner) / self.taper_width
            out[band] = self.amplitude * 0.5 * (1.0 + np.cos(np.pi * t))
        return out if out.shape else float(out)

    def angular_integral(self):
        """Integral of the density over the unit circle/sphere (quadrature)."""
        if self.dim == 2:
            th = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
            vals = self.profile(np.cos(th) * self.axis[0] + np.sin(th) * self.axis[1])
            return float(np.mean(vals) * 2.0 * np.pi)
        # 3D: axial symmetry about the cone axis, integrate over polar angle
        mu = np.linspace(-1.0, 1.0, 16385)
        vals = self.profile(mu)
        return float(np.trapezoid(vals, mu) * 2.0 * np.pi)


def aperture_eval(ap: Aperture, theta):
    """Angular density at a unit direction theta (even by construction)."""
    th = np.asarray(theta, dtype=np.float64)
    if th.shape != (ap.dim,):
        raise InvalidArgumentError(f"theta must be a {ap.dim}-vector")
    if abs(np.linalg.norm(th) - 1.0) > 1e-12:
        raise InvalidArgumentError("theta must be a unit vector")
    return float(ap.profile(np.dot(th, ap.axis)))


def cone_intensity(ap: Aperture, x_focus, y):
    """Beam intensity kernel a((x-y)/|x-y|) / |x-y|^{n-1} at a source point."""
    d = np.asarray(x_focus, float) - np.asarray(y, float)
    r = np.linalg.norm(d)
    if r == 0.0:
        raise InvalidArgumentError("cone_intensity is singular at the focus")
    return float(ap.profile(np.dot(d / r, ap.axis)) / r ** (ap.dim - 1))


def _equal_volume_radius(grid: Grid):
    """Radius of the disk/ball with the same measure as one grid cell."""
    vol = grid.cell_volume
    if grid.dim == 2:
        return np.sqrt(vol / np.pi)
    return (3.0 * vol / (4.0 * np.pi)) ** (1.0 / 3.0)


def _self_cell_weight(ap: Aperture, grid: Grid):
    """Effective kernel value at zero offset from the polar integral.

    The integral of a(theta)/r^{n-1} over an equal-volume ball is
    rho * (angular integral of a); dividing by the cell volume converts it
    into a midpoint-rule kernel sample.
    """
    rho = _equal_volume_radius(grid)
    return rho * ap.angular_integral() / grid.cell_volume


def _kernel_samples(ap: Aperture, grid: Grid, d, self_weight):
    """Midpoint kernel a(d/|d|) / |d|^{n-1} at offsets d (shape (..., dim)),
    with `self_weight` (`_self_cell_weight`, which callers compute once per
    aperture and grid) wherever |d| < 0.49 * min(spacing)."""
    # the bits of np.sum(d * d, axis=-1), without its slow short reduction
    r2 = d[..., 0] * d[..., 0]
    for a in range(1, d.shape[-1]):
        r2 += d[..., a] * d[..., a]
    r = np.sqrt(r2)
    near = r < 0.49 * min(grid.spacing)
    r_safe = np.where(near, 1.0, r)
    cosang = np.tensordot(d, np.asarray(ap.axis), axes=([-1], [0])) / r_safe
    K = ap.profile(cosang) / r_safe ** (grid.dim - 1)
    K[near] = self_weight
    return K


def cone_kernel(ap: Aperture, grid: Grid):
    """Midpoint kernel over the lattice offsets of up to n-1 cells per axis,
    wrapped onto a circular grid of 2n cells per axis: offset k (in cells)
    at index k mod 2n, so the zero offset is at index 0 and the entries at
    offset n, which no pair of cells reaches, are 0.

    The kernel is even, K(-d) = K(d), bit for bit: r is a sum of squares,
    the cosine to the axis only changes sign and `profile` takes its
    magnitude.  So it is sampled at the offsets whose first component is
    <= 0, and the entries with first component > 0 are those samples
    mirrored through the zero offset.
    """
    cells = grid.cells
    offsets = [np.arange(-(n - 1), n) * h for n, h in zip(cells, grid.spacing)]
    offsets[0] = offsets[0][:cells[0]]
    d = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    half = _kernel_samples(ap, grid, d, _self_cell_weight(ap, grid))
    n0 = cells[0]
    mirror = np.flip(half[:-1])
    K = np.zeros(tuple(2 * n for n in cells))
    # on each later axis, the circular cells of the offsets >= 0 and < 0
    # and the table's entries for them
    pairs = [((slice(0, n), slice(n - 1, 2 * n - 1)),
              (slice(n + 1, 2 * n), slice(0, n - 1))) for n in cells[1:]]
    for block in itertools.product(*pairs):
        dst, src = zip(*block)
        K[(slice(n0 + 1, 2 * n0),) + dst] = half[(slice(0, n0 - 1),) + src]
        K[(0,) + dst] = half[(n0 - 1,) + src]
        K[(slice(1, n0),) + dst] = mirror[(slice(None),) + src]
    return K


def _aperture_groups(apertures):
    """Distinct apertures in order of first appearance, and for each given
    aperture the index of its distinct one.  A double cone about -axis is
    the cone about axis, so apertures whose axes agree up to sign to 1e-12,
    with equal half_angle, taper_width and amplitude, are one."""
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


def _distinct_apertures(apertures):
    """(aperture, multiplicity) pairs, one per distinct aperture in order of
    first appearance (see `_aperture_groups`)."""
    distinct, group = _aperture_groups(apertures)
    return [(ap, group.count(i)) for i, ap in enumerate(distinct)]


class ConeConvolution:
    """The midpoint cone kernels of a set of apertures as one circular
    convolution on a grid, the only FFT path of the fast scan, LSQR and
    the multiplier inversion (`filter`).

    Each distinct aperture's kernel is wrapped onto a circular grid of 2n
    cells per axis with its zero offset at index 0.  Offsets of up to n-1
    cells never alias there, so the first n cells per axis of the circular
    result are the linear quadrature sum.  The kernels are even, so their
    spectra are real and serve forward and adjoint alike.  Apertures that
    are the same double cone share one spectrum (`group` maps each aperture
    to its row of `spectra`), so each distinct aperture costs one inverse
    FFT in `forward` and one forward FFT in `adjoint`.  A run builds one and
    hands it to the scan, the multiplier and LSQR (their `conv` argument).

    The FFTs write into work arrays, made anew by every call, except inside
    `with conv.reusing_buffers():`, where calls reuse one set (an iterative
    solver's loop).  That set lives only while the block runs and is
    dropped on exit, also on an exception.  The block is not reentrant and
    not thread-safe.  No method returns a work array, and no result's bytes
    depend on the block.
    """

    def __init__(self, apertures, grid: Grid):
        self.apertures = tuple(apertures)
        if not self.apertures:
            raise InvalidArgumentError("need at least one aperture")
        if any(ap.dim != grid.dim for ap in self.apertures):
            raise InvalidArgumentError(
                f"apertures must be {grid.dim}D to match the grid")
        self.grid = grid
        self.cells = tuple(grid.cells)
        self.shape = tuple(2 * n for n in self.cells)
        distinct, group = _aperture_groups(apertures)
        self.group = np.array(group, dtype=np.intp)
        # the rows of `forward`'s result that each distinct aperture fills
        self._rows = [np.flatnonzero(self.group == i).tolist()
                      for i in range(len(distinct))]
        self._half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        self._buffers = None
        self.spectra = np.stack([
            self._spectrum(cone_kernel(ap, grid),
                           np.empty(self._half, complex)).real
            for ap in distinct])

    def check(self, apertures, grid: Grid):
        """Raise InvalidArgumentError unless this is the operator of
        `apertures` on `grid`."""
        if self.grid != grid or self.apertures != tuple(apertures):
            raise InvalidArgumentError(
                "conv must be the ConeConvolution of the same apertures and grid")

    @contextlib.contextmanager
    def reusing_buffers(self):
        """Within the block, calls reuse one set of FFT work arrays."""
        if self._buffers is not None:
            raise RuntimeError("reusing_buffers is not reentrant")
        self._buffers = {}
        try:
            yield
        finally:
            self._buffers = None

    def _work(self, name, shape, dtype):
        """An uninitialised array, inside `reusing_buffers` the one cached
        under this key; the methods share the names "X", "Y" (half spectra),
        "real" and "summed"."""
        if self._buffers is None:
            return np.empty(shape, dtype)
        key = (name, shape, dtype)
        if key not in self._buffers:
            self._buffers[key] = np.empty(shape, dtype)
        return self._buffers[key]

    def _spectrum(self, g, out):
        """rfftn of g zero-padded to the circular grid (or already its
        shape) into `out`, a half spectrum, bit for bit: np.fft.rfftn's
        passes in its order, the rfft into the corner block of `out` and
        the complex passes in place over the zero-padded lines."""
        lead = tuple(slice(0, m) for m in g.shape[:-1])
        np.fft.rfft(g, self.shape[-1], axis=-1, out=out[lead])
        for ax, m in enumerate(g.shape[:-1]):
            out[lead[:ax] + (slice(m, None),)] = 0.0
        for ax in range(len(lead) - 1, -1, -1):
            X = out[lead[:ax]]
            np.fft.fft(X, axis=ax, out=X)
        return out

    def _inverse(self, X, out, start=None):
        """irfftn of the half spectrum X (overwritten) cropped to n cells per
        axis from `start` (0 by default), into `out`; each complex pass is
        made in place and cropped before the next, so later passes
        transform half as many lines."""
        start = start or (0,) * len(self.cells)
        crop = [slice(k, k + n) for k, n in zip(start, self.cells)]
        for i in range(len(crop) - 1):
            np.fft.ifft(X, axis=i, out=X)
            X = X[(slice(None),) * i + (crop[i],)]
        R = np.fft.irfft(X, self.shape[-1], axis=-1, out=self._work(
            "real", X.shape[:-1] + (self.shape[-1],), float))
        out[...] = R[..., crop[-1]]
        return out

    def forward(self, g):
        """Quadrature sums of the source g (grid-shaped), one per aperture
        along a leading axis; one FFT of g serves every aperture, and
        apertures of one group get copies of one inverse FFT."""
        G = self._spectrum(g, self._work("X", self._half, complex))
        P = self._work("Y", self._half, complex)
        out = np.empty((len(self.group),) + self.cells)
        for rows, S in zip(self._rows, self.spectra):
            np.multiply(G, S, out=P)
            self._inverse(P, out[rows[0]])
            for j in rows[1:]:
                out[j] = out[rows[0]]
        return out

    def filter(self, g, symbol, start=None):
        """g, zero-padded to the circular grid unless already its shape,
        times `symbol` (a real half spectrum on it, like `spectra`), cropped
        as by `_inverse`: a circular convolution, its own transpose for an
        even symbol and padded g."""
        X = self._spectrum(g, self._work("X", self._half, complex))
        X *= symbol
        return self._inverse(X, np.empty(self.cells), start)

    def adjoint(self, y):
        """Transpose of `forward`: per-aperture fields stacked along a
        leading axis to one grid-shaped field.  The fields of each group
        are added before its FFT, and the spectra are summed before one
        inverse FFT."""
        summed = self._work("summed", self.cells, float)
        Y = self._work("Y", self._half, complex)
        acc = self._work("X", self._half, complex)
        acc.fill(0.0)
        for rows, S in zip(self._rows, self.spectra):
            summed.fill(0.0)
            for j in rows:
                summed += y[j]
            self._spectrum(summed, Y)
            Y *= S
            acc += Y
        return self._inverse(acc, np.empty(self.cells))


def _nested_offset(field_grid: Grid, focus_grid: Grid):
    """Integer cell offset of the field-grid block inside the focus grid.

    Returns a tuple of per-axis offsets when the two grids share spacing and
    the field-grid cell centers form an aligned sub-block of the focus grid;
    None otherwise.  The trivial case of equal grids yields all zeros.
    """
    if field_grid.dim != focus_grid.dim:
        return None
    offs = []
    for a in range(field_grid.dim):
        hf, hc = field_grid.spacing[a], focus_grid.spacing[a]
        if abs(hf - hc) > 1e-12 * hf:
            return None
        shift = (field_grid.origin[a] - focus_grid.origin[a]) / hc
        k = int(round(shift))
        if abs(shift - k) > 1e-9 or k < 0:
            return None
        if k + field_grid.cells[a] > focus_grid.cells[a]:
            return None
        offs.append(k)
    return tuple(offs)


def cone_transform(f: ScalarField, v: ScalarField, ap,
                   focus_grid: Grid = None, conv: ConeConvolution = None):
    """Weighted double-cone transform of f, sampled at focus-grid centers.

    `ap` is one Aperture, giving one ScalarField, or a sequence of them,
    giving a list of fields.  When the focus grid coincides with the field
    grid or contains it as an aligned sub-block (e.g. a scan extended past
    the object support), v*f is embedded in the focus grid and convolved
    by the apertures' ConeConvolution on the focus grid (`conv`, built when
    None); otherwise each focus point is a direct vectorized quadrature.
    """
    grid = f.grid
    if v.grid != grid:
        raise InvalidArgumentError("f and v must share a grid")
    if focus_grid is None:
        focus_grid = grid
    apertures = [ap] if isinstance(ap, Aperture) else list(ap)
    if conv is not None:
        conv.check(apertures, focus_grid)
    g = f.values * (v.values * grid.cell_volume)
    offs = _nested_offset(grid, focus_grid)
    if offs is not None:
        g_emb = np.zeros(focus_grid.cells)
        g_emb[tuple(slice(k, k + n) for k, n in zip(offs, grid.cells))] = g
        if conv is None:
            conv = ConeConvolution(apertures, focus_grid)
        values = conv.forward(g_emb)
    else:
        centers = grid.centers()
        foci = focus_grid.centers().reshape(-1, grid.dim)
        values = []
        for a in apertures:
            w0 = _self_cell_weight(a, grid)
            values.append(np.array([
                np.vdot(_kernel_samples(a, grid, x - centers, w0), g)
                for x in foci]).reshape(focus_grid.cells))
    fields = [ScalarField(focus_grid, x) for x in values]
    return fields[0] if isinstance(ap, Aperture) else fields


@dataclass
class ConeScanData:
    """Reduced cone measurements Rf(x, j) per cone on a focus grid.

    `noise` holds the `noise.kind` (and, for Poisson, `noise.photons`)
    config values the fields were drawn with; None when not recorded.
    """

    focus_grid: Grid
    fields: list
    apertures: list
    noise: dict = None

    def __post_init__(self):
        if not self.fields or len(self.apertures) != len(self.fields):
            raise InvalidArgumentError(
                f"a scan needs a field and one aperture per field, got "
                f"{len(self.fields)} fields and {len(self.apertures)} apertures")
        for fld in self.fields:
            if fld.grid != self.focus_grid:
                raise InvalidArgumentError("scan fields must share the focus grid")

    def summed(self) -> np.ndarray:
        total = np.zeros(self.focus_grid.cells)
        for fld in self.fields:
            total = total + fld.values
        return total


@dataclass
class Sinogram:
    """Line integrals over (angle, offset) for parallel-beam geometry."""

    angles: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.angles.size, self.offsets.size):
            raise InvalidArgumentError("sinogram shape must be (angles, offsets)")
        if not (np.all(np.isfinite(self.angles))
                and np.all(np.isfinite(self.offsets))):
            raise InvalidArgumentError("sinogram angles and offsets must be finite")
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("sinogram values must be finite")


def _padded_lerp(padded, pos, base, n):
    """(1 - w) * a[i] + w * a[i + 1] at fractional indices `pos` along a
    line of n cells, i = floor(pos) and w = pos - i.

    `padded` is a flat array in which each line is contiguous and has two
    zero cells on either side; `base` (broadcast against `pos`) is the flat
    index of each sample's cell 0.  i is clipped once to [-2, n], so a
    neighbour outside the line reads an exact zero: a[i] from `padded` and
    a[i + 1] from its view shifted by one cell, with the same index.  With
    one padding cell, a sample beyond the far end would read the end cell.
    Returns a new array shaped like `pos`.
    """
    i = np.floor(pos)
    w = pos - i
    np.clip(i, -2, n, out=i)
    idx = i.astype(np.intp)
    idx += base
    near = padded.take(idx)
    far = padded[1:].take(idx)
    far *= w
    np.subtract(1.0, w, out=w)
    w *= near
    w += far
    return w


def xray_transform(g: ScalarField, angles, offsets) -> Sinogram:
    """Parallel-beam line integrals of a 2D field by Joseph's method.

    Lines with direction d = (cos t, sin t) are offset along the
    perpendicular (-sin t, cos t) from the grid centre.  Each line takes one
    sample at every cell centre of its dominant axis (x when |cos t| >=
    |sin t|, else y), interpolating linearly between the two neighbouring
    cells of the other axis (`_padded_lerp`), and the sum of its samples is
    scaled by spacing[dom] / |d[dom]| (Joseph, IEEE TMI 1 (1982) 192-196):
    n_dom samples of 2 gathers per line.  Each angle is sampled in blocks of
    whole lines of about XRAY_BLOCK_SAMPLES samples.
    """
    grid = g.grid
    if grid.dim != 2:
        raise InvalidArgumentError("xray_transform requires a 2D grid")
    angles = np.asarray(angles, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(offsets))):
        raise InvalidArgumentError("sinogram angles and offsets must be finite")
    # a line farther than `reach` from the grid centre misses every cell by
    # more than one cell, so it reads exact zeros at the clipped offset too,
    # and its fractional indices cannot overflow
    reach = 0.5 * math.hypot(*grid.extent) + 2.0 * max(grid.spacing)
    clipped = np.clip(offsets, -reach, reach)
    # padded[dom]: one contiguous row per cell of the dominant axis dom,
    # with two zero cells on every side
    padded = [np.pad(cells, 2).ravel() for cells in (g.values, g.values.T)]
    vals = np.zeros((angles.size, offsets.size))
    for ia, th in enumerate(angles):
        d = (np.cos(th), np.sin(th))
        perp = (-d[1], d[0])
        dom = 0 if abs(d[0]) >= abs(d[1]) else 1
        oth = 1 - dom
        n_dom, n_oth = grid.cells[dom], grid.cells[oth]
        h, slope = grid.spacing[oth], d[oth] / d[dom]
        # the line at offset z meets the centre of dominant-axis cell i at
        # fractional index across[z] + along[i] on the other axis; index
        # (n - 1) / 2 is the grid centre on either axis
        along = (np.arange(n_dom) - 0.5 * (n_dom - 1)) * (grid.spacing[dom] * slope / h)
        across = 0.5 * (n_oth - 1) + clipped * ((perp[oth] - perp[dom] * slope) / h)
        base = (np.arange(n_dom) + 2) * (n_oth + 4) + 2
        scale = grid.spacing[dom] / abs(d[dom])
        lines = max(1, XRAY_BLOCK_SAMPLES // n_dom)
        for lo in range(0, offsets.size, lines):
            samples = _padded_lerp(padded[dom], across[lo:lo + lines, None] + along,
                                   base, n_oth)
            vals[ia, lo:lo + lines] = np.sum(samples, axis=1) * scale
    return Sinogram(angles, offsets, vals)


def simulate_boundary_scan(f: ScalarField, v: ScalarField, apertures,
                           focus_grid: Grid = None,
                           conv: ConeConvolution = None) -> ConeScanData:
    """The fast scan: the weighted cone transform of f for every cone at
    every focus-grid center (the field grid by default), by `conv` when
    given (see `cone_transform`).  Through the reciprocity identity it
    equals `full_physics_measurements` with v the adjoint weight of the
    boundary datum."""
    apertures = list(apertures)
    if focus_grid is None:
        focus_grid = f.grid
    return ConeScanData(
        focus_grid, cone_transform(f, v, apertures, focus_grid, conv), apertures)


def full_physics_measurements(op: DiscreteOperator, h: BoundaryField,
                              f: ScalarField, ap: Aperture, foci):
    """Reduced measurements of one cone by the PDE chain, one per focus
    point: a forward solve with the cone's source I_{x,j} * f, then the
    boundary integral of h times the consistent outgoing flux.

    The source vanishes wherever f does, so the kernel is sampled only on
    the support of f and scattered into a zero field; the kernel is finite,
    so every source is the dense product K * f bit for bit.  A focus whose
    source has no nonzero cell measures exactly 0 without a solve.
    """
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
            # a zero source solves to the zero field: exactly 0
            out.append(0.0)
            continue
        source = np.zeros(grid.n_cells)
        source[support] = values
        u = solve_forward(op, ScalarField(grid, source))
        out.append(boundary_functional(h, boundary_flux(op, u, mode="consistent")))
    return np.array(out)
