"""Excitation models and direct quadrature of the induced transforms.

Double-cone apertures give the focused-beam transform

    Rf(x, j) = sum_y  a_j((x - y)/|x - y|) / |x - y|^{n-1} * v(y) f(y) * vol

evaluated by midpoint quadrature with an analytic polar correction at the
singular self cell.  One private sampler evaluates that kernel at any
offsets: `cone_kernel` tabulates it over the lattice offsets, and the cone
sources of the full-physics chain sample it at their own offsets.  The
transform is one circular FFT convolution per distinct double cone
(`ConeConvolution`, on the doubled grid of `CircularGrid`), the one
operator through which the fast scan, the LSQR operator and the
multiplier take a cone set and its grid; its class docstring states when
it holds the kernel spectra and what it keeps of them.
Single-line excitation gives the parallel-beam sinogram of v * f.
`full_physics_measurements` runs the PDE chain per focus point, and
through reciprocity it agrees with the fast scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .fields import Grid, ScalarField, _sum_of_squares
from .diffusion import (DiscreteOperator, BoundaryField, solve_forward,
                        boundary_flux, boundary_functional)

DEFAULT_TAPER_FRACTION = 0.15
# line samples per block of whole lines in xray_transform (one line when a
# line is longer); only the rows of the support's box are sampled
XRAY_BLOCK_SAMPLES = 8192
# most offsets per `_kernel_samples` call, in cone_kernel (one call per row
# took the default 2D 128^2 operator build 118 ms against 18 ms) and in
# full_physics_measurements (with the solves stubbed, 100 spot-check foci
# at 128^2 took 4.6 ms one call per focus, 2.7 ms in blocks of 65 foci)
KERNEL_BLOCK_SAMPLES = 16384


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
    r = np.sqrt(_sum_of_squares([d[..., a] for a in range(d.shape[-1])]))
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
    mirrored through the zero offset.  On a later axis k whose aperture
    axis component is exactly 0.0 (every 3D cone of `build_apertures`),
    the kernel is also even in d_k alone: d_k * 0.0 is +-0, which leaves a
    nonzero partial sum of the cosine's dot product as it is and at most
    flips the sign of a zero one, which `profile`'s |cos| absorbs, and
    d_k^2 does not change.  There only the offsets with d_k <= 0 are
    sampled, and their mirror images are written into the table from the
    same samples, read in reverse.  They are sampled in blocks of whole
    first-axis rows of at most KERNEL_BLOCK_SAMPLES offsets (one row when a
    row is longer), so beside the table only one block's arrays are live.
    """
    cells = grid.cells
    # the sampled offsets: on a reflected axis those <= 0, else all
    reflected = [k > 0 and ap.axis[k] == 0.0 for k in range(grid.dim)]
    offsets = [np.arange(-(n - 1), 1 if e else n) * h
               for n, h, e in zip(cells, grid.spacing, reflected)]
    self_weight = _self_cell_weight(ap, grid)
    n0 = cells[0]
    K = np.zeros(tuple(2 * n for n in cells))
    # on each later axis, the circular cells of the offsets >= 0 and < 0
    # and the samples for them: on a reflected axis, offset k >= 0 reads
    # the sample of -k, the samples in reverse
    pairs = []
    for n, e in zip(cells[1:], reflected[1:]):
        nonneg = slice(n - 1, None, -1) if e else slice(n - 1, 2 * n - 1)
        pairs.append(((slice(0, n), nonneg), (slice(n + 1, 2 * n), slice(0, n - 1))))
    # the mirror through the zero offset flips the axes that are sampled
    # on both sides; a reflected axis reads the same samples either way
    flip = tuple(k for k in range(1, grid.dim) if not reflected[k])
    rows = max(1, KERNEL_BLOCK_SAMPLES // math.prod(len(o) for o in offsets[1:]))
    for lo in range(0, n0, rows):
        hi = min(lo + rows, n0)
        d = np.stack(np.meshgrid(offsets[0][lo:hi], *offsets[1:], indexing="ij"),
                     axis=-1)
        half = _kernel_samples(ap, grid, d, self_weight)
        # row i has first offset i - (n0 - 1) <= 0, at circular row
        # (i + n0 + 1) mod 2 n0; its mirror, every later offset negated
        # too, is at circular row n0 - 1 - i (none for the zero offset,
        # i = n0 - 1)
        i = np.arange(lo, hi)
        mirrored = i < n0 - 1
        mirror = np.flip(half[mirrored], axis=flip)
        for block in itertools.product(*pairs):
            dst, src = zip(*block)
            K[((i + n0 + 1) % (2 * n0),) + dst] = half[(slice(None),) + src]
            K[(n0 - 1 - i[mirrored],) + dst] = mirror[(slice(None),) + src]
    return K


def _aperture_groups(apertures):
    """Distinct apertures in order of first appearance, and for each given
    aperture the index of its distinct one.  A double cone about -axis is
    the cone about axis, so apertures whose axes agree up to sign to 1e-12,
    with equal half_angle, taper_width and amplitude, are one.  Each
    aperture is compared with all distinct ones found so far at once and
    joins the first that matches."""
    apertures = list(apertures)
    width = max((ap.dim for ap in apertures), default=0)
    # rows of the distinct ones so far: the parameters, and the axis padded
    # with zeros to the widest dimension (equal dims compare equal widths)
    params = np.empty((len(apertures), 4))
    axes = np.zeros((len(apertures), width))
    distinct, group = [], []
    for ap in apertures:
        p = (ap.dim, ap.half_angle, ap.taper_width, ap.amplitude)
        axis = np.zeros(width)
        axis[:ap.dim] = ap.axis
        k = len(distinct)
        rows = axes[:k]
        match = ((params[:k] == p).all(axis=1)
                 & (np.minimum(np.abs(rows - axis).max(axis=1),
                               np.abs(rows + axis).max(axis=1))
                    <= 1e-12))
        hit = np.flatnonzero(match)
        if hit.size:
            group.append(int(hit[0]))
        else:
            group.append(k)
            params[k] = p
            axes[k] = axis
            distinct.append(ap)
    return distinct, group


def _distinct_apertures(apertures):
    """(aperture, multiplicity) pairs, one per distinct aperture in order of
    first appearance (see `_aperture_groups`)."""
    distinct, group = _aperture_groups(apertures)
    counts = np.bincount(group, minlength=len(distinct)).tolist()
    return list(zip(distinct, counts))


# Frequency bins (in units of the smallest circular-grid frequency) whose
# multiplier values come from the discrete quadrature-kernel spectrum rather
# than the analytic symbol: the analytic form assumes an unbounded kernel,
# which the lowest shell of grid frequencies cannot see.
LOW_FREQ_BINS = 8


def _frequency_axes(cells, spacing):
    """Angular frequencies of the rfftn half spectrum of a grid, one 1-D
    axis each, shaped to broadcast against the others: full FFT
    frequencies on every axis but the last, which keeps its n//2 + 1
    non-negative ones."""
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=h)
            for n, h in zip(cells[:-1], spacing[:-1])]
    axes.append(2.0 * np.pi * np.fft.rfftfreq(cells[-1], d=spacing[-1]))
    return [a.reshape((-1,) + (1,) * (len(cells) - 1 - k))
            for k, a in enumerate(axes)]


def _frequency_magnitudes(cells, spacing):
    """|xi| on the rfftn half spectrum of a grid (`_frequency_axes`), the
    bits of the norm of the (..., dim) frequency stack."""
    sq = _sum_of_squares(_frequency_axes(cells, spacing))
    return np.sqrt(sq, out=sq)


def _low_shell(shape, spacing):
    """np.nonzero index arrays of the lowest frequency shell of the rfftn
    half spectrum of a circular grid: |xi| <= LOW_FREQ_BINS times its
    smallest frequency.  An entry of the shell lies within LOW_FREQ_BINS
    bins of zero on every axis, so |xi| is formed on that sub-box only,
    from the same per-axis frequencies (`_frequency_magnitudes`' bits);
    each axis's bins, whose wrapped distance to zero is at most
    LOW_FREQ_BINS, are listed ascending and once, so the indices come in
    np.nonzero's C order over the whole half spectrum."""
    xi_min = min(2.0 * np.pi / (n * h) for n, h in zip(shape, spacing))
    axes = _frequency_axes(shape, spacing)
    bins = []
    for a, n in zip(axes, shape):
        k = np.arange(len(a))
        bins.append(np.flatnonzero(np.minimum(k, n - k) <= LOW_FREQ_BINS))
    sq = _sum_of_squares([a[b] for a, b in zip(axes, bins)])
    hit = np.nonzero(np.sqrt(sq, out=sq) <= LOW_FREQ_BINS * xi_min * (1.0 + 1e-9))
    return tuple(b[i] for b, i in zip(bins, hit))


class CircularGrid:
    """The circular grid of 2n cells per axis of a grid, on which the cone
    kernels convolve: the one FFT path (`_spectrum`, `_inverse`) of the
    fast scan, LSQR and the multiplier inversion (`filter`).

    A field of n cells per axis is zero padded to it, transformed to the
    rfftn half spectrum, multiplied by a real half spectrum and cropped
    back to n cells per axis.  Offsets of up to n-1 cells never alias on
    it, so the crop of a product with a kernel's spectrum is the linear
    quadrature sum.  The FFTs write into work arrays that every call makes
    anew.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.cells = tuple(grid.cells)
        self.shape = tuple(2 * n for n in self.cells)
        self._half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)

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
        R = np.fft.irfft(X, self.shape[-1], axis=-1,
                         out=np.empty(X.shape[:-1] + (self.shape[-1],)))
        out[...] = R[..., crop[-1]]
        return out

    def filter(self, g, symbol, start=None):
        """g, zero-padded to the circular grid unless already its shape,
        times `symbol` (a real half spectrum on it), cropped as by
        `_inverse`: a circular convolution, its own transpose for an even
        symbol and padded g."""
        X = self._spectrum(g, np.empty(self._half, complex))
        X *= symbol
        return self._inverse(X, np.empty(self.cells), start)


class ConeConvolution(CircularGrid):
    """The midpoint cone kernels of a set of apertures as one circular
    convolution on a grid (`CircularGrid`), the one operator through which
    the fast scan, LSQR and the multiplier inversion take a cone set.

    Each distinct aperture's kernel is wrapped onto the circular grid with
    its zero offset at index 0 (`cone_kernel`).  The kernels are even, so
    their spectra are real and serve forward and adjoint alike.  Apertures
    that are the same double cone share one spectrum (`group` maps each
    aperture to its distinct cone, `distinct` holds each distinct cone's
    aperture, in order of first appearance, and `counts` each one's number
    of apertures), and `rows` and `adjoint` work on one row per distinct
    cone: one inverse FFT each in `rows` and one forward FFT each in
    `adjoint`.  A run builds one and hands it to the scan, the multiplier
    and LSQR: their `conv` argument is the only way they take a cone set
    and its grid.

    With `held` (LSQR's operator, which applies every spectrum on every
    iteration) the build holds the `spectra` stack, one row per distinct
    cone, and for it one complex work spectrum, one kernel table and one
    block of its samples: for D distinct cones about (D + 4) spectra's
    bytes, 2.1x the stack for the default 3D cones at 32^3.  Without it
    `spectra` is None and each pass of `rows` or `shell_sum` builds one
    distinct cone's spectrum at a time, in the FFT work arrays of that
    pass, so no stack of D spectra exists; `adjoint` needs the stack.

    The multiplier reads the spectra only on the lowest frequency shell of
    the circular grid, |xi| <= LOW_FREQ_BINS times its smallest frequency,
    zero included, whose entries `shell_index` holds as np.nonzero index
    arrays, fixed before any spectrum exists.  The first pass over the
    spectra that runs to the end (the held build, or else a scan's `rows`)
    keeps their multiplicity-weighted sum there, `shell_sum`, so the
    spectra need not be built again for it.  Only `rows` hands out a work
    array.
    """

    def __init__(self, apertures, grid: Grid, held=True):
        self.apertures = tuple(apertures)
        if not self.apertures:
            raise InvalidArgumentError("need at least one aperture")
        if any(ap.dim != grid.dim for ap in self.apertures):
            raise InvalidArgumentError(
                f"apertures must be {grid.dim}D to match the grid")
        super().__init__(grid)
        distinct, group = _aperture_groups(apertures)
        self.distinct = tuple(distinct)
        self.group = np.array(group, dtype=np.intp)
        self.counts = np.bincount(self.group)
        self.shell_index = _low_shell(self.shape, grid.spacing)
        self._shell_sum = None
        self.spectra = None
        if held:
            self.spectra = np.empty((len(distinct),) + self._half)
            for i, S in enumerate(self._spectra(np.empty(self._half, complex))):
                self.spectra[i] = S

    def _spectra(self, work):
        """The distinct cones' spectra in order, each built in the complex
        half spectrum `work` (`cone_kernel`, `_spectrum`) and yielded as its
        real part, a view that the next one overwrites.  Before each is
        yielded, counts[i] * S_i on the shell is added to a running sum
        that starts from 0 + the first term; a pass that runs to the end
        keeps that sum as `shell_sum`'s unless one is kept already."""
        total = 0
        for c, ap in zip(self.counts, self.distinct):
            S = self._spectrum(cone_kernel(ap, self.grid), work).real
            total = total + c * S[self.shell_index]
            yield S
        if self._shell_sum is None:
            self._shell_sum = total

    def shell_sum(self):
        """The sum over the distinct cones i of counts[i] * S_i at the
        entries of `shell_index`, in their order from 0 + the first term:
        the multiplicity-weighted kernel spectrum on the lowest frequency
        shell.  The sum that a pass over the spectra kept is returned as it
        is; without one, a pass of its own forms and keeps it."""
        if self._shell_sum is None:
            for _ in self._spectra(np.empty(self._half, complex)):
                pass
        return self._shell_sum

    def rows(self, g):
        """Quadrature sums of the source g (grid-shaped), one per distinct
        cone (row i for its spectrum i), yielded in order from one FFT of g.
        A streamed operator builds each spectrum in the work array of its
        product with that FFT (numpy's product reads a copy of an operand
        that overlaps its output).  Each row is yielded in one work array,
        which the caller may overwrite and the next row does."""
        G = self._spectrum(g, np.empty(self._half, complex))
        P = np.empty(self._half, complex)
        row = np.empty(self.cells)
        spectra = self._spectra(P) if self.spectra is None else self.spectra
        for S in spectra:
            np.multiply(G, S, out=P)
            yield self._inverse(P, row)

    def adjoint(self, y, weights=None):
        """Transpose of `rows`: one field per distinct cone stacked along a
        leading axis (row i times weights[i] when `weights` is given) to one
        grid-shaped field; the spectra, which must be held, are summed
        before one inverse FFT."""
        if self.spectra is None:
            raise InvalidArgumentError(
                "the adjoint needs a cone operator that holds its spectra")
        Y = np.empty(self._half, complex)
        acc = np.zeros(self._half, complex)
        for i, S in enumerate(self.spectra):
            row = y[i] if weights is None else y[i] * weights[i]
            self._spectrum(row, Y)
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


def cone_transform(f: ScalarField, v: ScalarField, conv: ConeConvolution):
    """Weighted double-cone transform of f, one ScalarField per aperture of
    `conv` (one shared field per distinct cone), sampled at the centers of
    its grid, the focus grid.

    The focus grid is the field grid or contains it as an aligned sub-block
    (e.g. a scan extended past the object support); v*f is embedded in it
    and convolved by `conv`.  Any other focus grid is refused.
    """
    grid = f.grid
    if v.grid != grid:
        raise InvalidArgumentError("f and v must share a grid")
    focus_grid = conv.grid
    offs = _nested_offset(grid, focus_grid)
    if offs is None:
        raise InvalidArgumentError(
            "the cone operator's grid must equal the field grid or contain it "
            "as an aligned block")
    g = f.values * (v.values * grid.cell_volume)
    g_emb = np.zeros(focus_grid.cells)
    g_emb[tuple(slice(k, k + n) for k, n in zip(offs, grid.cells))] = g
    fields = [ScalarField(focus_grid, row) for row in conv.rows(g_emb)]
    return [fields[i] for i in conv.group]


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
            total += fld.values
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


def _padded_lerp(padded, pos, base, n, out=None):
    """(1 - w) * a[i] + w * a[i + 1] at fractional indices `pos` along a
    line of n cells, i = floor(pos) and w = pos - i.

    `padded` is a flat array in which each line is contiguous and has two
    zero cells on either side; `base` (broadcast against `pos`) is the flat
    index of each sample's cell 0.  i is clipped once to [-2, n], so a
    neighbour outside the line reads an exact zero: a[i] from `padded` and
    a[i + 1] from its view shifted by one cell, with the same index.  With
    one padding cell, a sample beyond the far end would read the end cell.
    Writes into `out` when given (shaped like `pos`) and returns it, else
    returns a new array shaped like `pos`.
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
    return np.add(w, far, out=w if out is None else out)


def _support_box(values):
    """First and last index per axis of the cells that are not +0.0 (a
    -0.0 counts), or None when every cell is +0.0."""
    support = (values != 0) | np.signbit(values)
    bounds = []
    for ax in range(values.ndim):
        hit = np.flatnonzero(support.any(axis=1 - ax))
        if hit.size == 0:
            return None
        bounds.append((int(hit[0]), int(hit[-1])))
    return bounds


def xray_transform(g: ScalarField, angles, offsets) -> Sinogram:
    """Parallel-beam line integrals of a 2D field by Joseph's method.

    Lines with direction d = (cos t, sin t) are offset along the
    perpendicular (-sin t, cos t) from the grid centre.  Each line takes one
    sample at every cell centre of its dominant axis (x when |cos t| >=
    |sin t|, else y), interpolating linearly between the two neighbouring
    cells of the other axis (`_padded_lerp`), and the sum of its samples is
    scaled by spacing[dom] / |d[dom]| (Joseph, IEEE TMI 1 (1982) 192-196).

    Only samples that can read the support are computed.  A sample reads
    two neighbouring cells, so one whose cells both lie outside the
    bounding box of the cells that are not +0.0 is an exact +0.0: the lines
    that pass more than a cell beside the box on every row of it are left
    at +0.0 unsampled, and the others are sampled on the box's rows of the
    dominant axis only.  Their samples go into a block of whole lines whose
    other samples stay +0.0, so each line sums the same n_dom values in the
    same order as a full sampling would, and the sinogram is the same bit
    for bit.  On one core, 180 x 256 lines on 128^2 take ~0.015 s for the
    default phantom (252 nonzero cells) and ~0.065 s, n_dom samples of 2
    gathers per line, for a field that fills the grid.
    """
    grid = g.grid
    if grid.dim != 2:
        raise InvalidArgumentError("xray_transform requires a 2D grid")
    angles = np.asarray(angles, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(offsets))):
        raise InvalidArgumentError("sinogram angles and offsets must be finite")
    vals = np.zeros((angles.size, offsets.size))
    box = _support_box(g.values)
    if box is None:
        return Sinogram(angles, offsets, vals)
    # a line farther than `reach` from the grid centre misses every cell by
    # more than one cell, so it reads exact zeros at the clipped offset too,
    # and its fractional indices cannot overflow
    reach = 0.5 * math.hypot(*grid.extent) + 2.0 * max(grid.spacing)
    clipped = np.clip(offsets, -reach, reach)
    # padded[dom]: one contiguous row per cell of the dominant axis dom,
    # with two zero cells on every side
    padded = [np.pad(cells, 2).ravel() for cells in (g.values, g.values.T)]
    # blocks[dom]: whole lines of samples, +0.0 off the box's rows for good
    blocks = [np.zeros((max(1, XRAY_BLOCK_SAMPLES // n), n)) for n in grid.cells]
    for ia, th in enumerate(angles):
        d = (np.cos(th), np.sin(th))
        perp = (-d[1], d[0])
        dom = 0 if abs(d[0]) >= abs(d[1]) else 1
        oth = 1 - dom
        n_oth = grid.cells[oth]
        (i0, i1), (j0, j1) = box[dom], box[oth]
        h, slope = grid.spacing[oth], d[oth] / d[dom]
        # the line at offset z meets the centre of dominant-axis cell i at
        # fractional index across[z] + along[i] on the other axis; index
        # (n - 1) / 2 is the grid centre on either axis
        along = ((np.arange(i0, i1 + 1) - 0.5 * (grid.cells[dom] - 1))
                 * (grid.spacing[dom] * slope / h))
        across = 0.5 * (n_oth - 1) + clipped * ((perp[oth] - perp[dom] * slope) / h)
        # a line reads the box only where floor(across + along[i]) lies in
        # [j0 - 1, j1] on some row i; keep a cell's margin beyond that
        kept = np.flatnonzero((across > j0 - 2 - along.max())
                              & (across < j1 + 2 - along.min()))
        base = (np.arange(i0, i1 + 1) + 2) * (n_oth + 4) + 2
        scale = grid.spacing[dom] / abs(d[dom])
        block = blocks[dom]
        for lo in range(0, kept.size, block.shape[0]):
            lines = kept[lo:lo + block.shape[0]]
            samples = block[:lines.size]
            _padded_lerp(padded[dom], across[lines, None] + along, base, n_oth,
                         out=samples[:, i0:i1 + 1])
            vals[ia, lines] = np.sum(samples, axis=1) * scale
    return Sinogram(angles, offsets, vals)


def simulate_boundary_scan(f: ScalarField, v: ScalarField,
                           conv: ConeConvolution) -> ConeScanData:
    """The fast scan: the weighted cone transform of f for every cone of
    `conv` at every center of its grid (see `cone_transform`).  Through the
    reciprocity identity it equals `full_physics_measurements` with v the
    adjoint weight of the boundary datum."""
    return ConeScanData(conv.grid, cone_transform(f, v, conv),
                        list(conv.apertures))


def full_physics_measurements(op: DiscreteOperator, h: BoundaryField,
                              f: ScalarField, ap: Aperture, foci):
    """Reduced measurements of one cone by the PDE chain, one per focus
    point: a forward solve with the cone's source I_{x,j} * f, then the
    boundary integral of h times the outgoing flux (`boundary_flux`).

    The source vanishes wherever f does, so the kernel is sampled only on
    the support of f and scattered into a zero field; the kernel is finite,
    so every source is the dense product K * f bit for bit.  The samples
    of a block of foci come from one `_kernel_samples` call, offsets shaped
    (foci, support, dim), of at most KERNEL_BLOCK_SAMPLES offsets and at
    least one focus; each sample is elementwise arithmetic on its own
    offset, so a focus's source has the bits of a call of its own.  A
    block's foci are solved before the next block is sampled, so beside
    the solves only one block's arrays are live.  A focus whose source has
    no nonzero cell measures exactly 0 without a solve.  The source,
    solution and flux stay plain arrays: no focus copies or checks a field.
    """
    grid = op.grid
    support = np.flatnonzero(f.values)
    centers = grid.centers().reshape(-1, grid.dim)[support]
    f_support = f.values.ravel()[support]
    self_weight = _self_cell_weight(ap, grid)
    foci = np.asarray(foci, dtype=float).reshape(-1, grid.dim)
    out = np.zeros(len(foci))
    block = max(1, KERNEL_BLOCK_SAMPLES // max(1, support.size))
    for lo in range(0, len(foci), block):
        samples = _kernel_samples(
            ap, grid, foci[lo:lo + block, None, :] - centers, self_weight)
        samples *= f_support
        for k, values in enumerate(samples, lo):
            # a zero source solves to the zero field: exactly 0
            if values.any():
                source = np.zeros(grid.n_cells)
                source[support] = values
                out[k] = boundary_functional(
                    h, boundary_flux(op, solve_forward(op, source)))
    return out
