"""Fourier-multiplier calculus for translation-invariant cone apertures.

For an aperture density a(theta) the induced transform acts in frequency by
the homogeneous degree -1 symbol

    r0(xi) = pi * integral over {theta : theta . xi = 0} of a(theta),

two point evaluations in 2D, a great-circle line integral in 3D.  An
aperture is axially symmetric, so in 3D the great-circle integral depends
only on A = sqrt(1 - (omega . axis)^2), the largest cosine to the axis
along the circle.  With psi the arc parameter from that point,
cos(angle to axis) = A cos(psi), and a quarter of the circle gives

    c = 4 pi amplitude [psi_in + integral from psi_in to psi_out of the taper],

with the closed-form plateau and taper edges psi_in = arccos(cos(inner)/A)
and psi_out = arccos(cos(half_angle)/A) (zero where A does not exceed the
cosine).  The taper integrand is analytic in psi, so a fixed Gauss-Legendre
rule on [psi_in, psi_out] reaches roundoff.  The rule runs once per
distinct s = |omega . axis| of each call and the values are gathered back
to their directions, bit for bit the per-direction values.  A cone set is
stably invertible iff the summed angular factor is positive in every direction;
inversion is regularized frequency division followed by division by the
interior weight.  Symbol tables and the inversion use the rfftn half
spectrum of a grid with twice the field's cells per axis, and on its lowest
frequency shell, the zero frequency included, the symbol is replaced by the
half spectrum of the discrete quadrature kernel: the `ConeConvolution`
spectra that the scan and LSQR apply.  The division runs through that
operator's `filter`, the one pad, multiply and crop on the doubled grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgumentError, StabilityViolationError,
                     UndefinedDirectionError)
from .fields import ScalarField
from .excitation import (Aperture, ConeConvolution, ConeScanData,
                         _distinct_apertures, _nested_offset)
from .diffusion import _floored_weight

# Gauss-Legendre nodes for the 3D taper band.  Against a 400-node rule the
# factor agrees to 1e-13 of its maximum for taper_width <= 0.95 half_angle
# and for taper_width = half_angle, and to 2e-9 in between, where the
# taper's phase term sits close to the integrand's branch point at
# A cos(psi) = 1.
TAPER_GAUSS_POINTS = 32
MARGIN_SAMPLES_2D = 2048
MARGIN_SAMPLES_3D = 4096
# Frequency bins (in units of the smallest padded-grid frequency) whose
# multiplier values come from the discrete quadrature-kernel spectrum rather
# than the analytic symbol: the analytic form assumes an unbounded kernel,
# which the lowest shell of grid frequencies cannot see.
LOW_FREQ_BINS = 8
# Cells of the cosine rolloff inside each edge of a `roi_reconstruct` window.
ROI_ROLLOFF_CELLS = 8


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the three-term Legendre recurrence."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / (1.0 - x * x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_TAPER_NODES, _TAPER_WEIGHTS = _gauss_legendre(TAPER_GAUSS_POINTS)


def _arc_to(A, angle):
    """Arc psi at which A cos(psi) falls to cos(angle); 0 where A <= cos(angle)."""
    out = np.zeros_like(A)
    inside = A > np.cos(angle)
    out[inside] = np.arccos(np.minimum(1.0, np.cos(angle) / A[inside]))
    return out


def angular_factor(ap: Aperture, omega):
    """c(omega) = |xi| * r0(xi) for xi in direction omega; vectorized over rows.

    In 3D the factor depends on omega only through s = |omega . axis|, so
    the taper rule runs once per distinct s and the values are gathered
    back to the rows, bit for bit the per-row values.
    """
    om = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    axis = np.asarray(ap.axis)
    if ap.dim == 2:
        perp = np.stack([-om[:, 1], om[:, 0]], axis=1)
        c = perp @ axis
        out = np.pi * (ap.profile(c) + ap.profile(-c))
    else:
        s, inv = np.unique(np.minimum(np.abs(om @ axis), 1.0), return_inverse=True)
        A = np.sqrt((1.0 - s) * (1.0 + s))
        inner = ap.half_angle - ap.taper_width
        arc = _arc_to(A, inner)
        if ap.taper_width > 0:
            psi_out = _arc_to(A, ap.half_angle)
            band = psi_out > arc
            lo, Ab = arc[band], A[band]
            mid, half = 0.5 * (psi_out[band] + lo), 0.5 * (psi_out[band] - lo)
            taper = np.zeros_like(Ab)
            # one pass per node: memory stays linear in the number of rows
            for x, w in zip(_TAPER_NODES, _TAPER_WEIGHTS):
                angle = np.arccos(Ab * np.cos(mid + half * x))
                taper += w * 0.5 * (1.0 + np.cos(np.pi * (angle - inner) / ap.taper_width))
            arc[band] += half * taper
        out = (4.0 * np.pi * ap.amplitude * arc)[inv]
    return out if np.asarray(omega).ndim > 1 else float(out[0])


def multiplier_symbol(ap: Aperture, xi):
    """Symbol r0(xi) = c(xi/|xi|) / |xi| of the cone transform."""
    xi = np.asarray(xi, dtype=np.float64)
    mag = np.linalg.norm(xi)
    if mag == 0.0:
        raise InvalidArgumentError("multiplier_symbol undefined at xi = 0")
    return float(angular_factor(ap, xi / mag)) / mag


def visible_direction(apertures, omega):
    """True iff some cone contains a direction perpendicular to omega."""
    om = np.asarray(omega, dtype=np.float64)
    if abs(np.linalg.norm(om) - 1.0) > 1e-9:
        raise InvalidArgumentError("omega must be a unit vector")
    total = sum(angular_factor(ap, om) for ap in apertures)
    return bool(total > 0.0)


def _summed_factor(distinct, dirs):
    """Summed angular factor of (aperture, multiplicity) pairs."""
    total = np.zeros(len(dirs))
    for ap, count in distinct:
        total += count * angular_factor(ap, dirs)
    return total


def _direction_samples(dim, n):
    if dim == 2:
        th = (np.arange(n) + 0.5) * (np.pi / n)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    # Fibonacci half-sphere
    i = np.arange(n) + 0.5
    z = i / n  # upper half sphere z in (0, 1)
    r = np.sqrt(1.0 - z ** 2)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    th = golden * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


@dataclass
class MarginReport:
    """Ellipticity diagnostics over a dense direction sample."""

    margin: float
    max_factor: float
    ratio: float            # max/min of the summed factor; inf if margin = 0
    worst_direction: tuple
    invisible_directions: np.ndarray  # sampled directions with zero factor


def ellipticity_margin(apertures) -> MarginReport:
    """Minimum summed angular factor over a half-circle (MARGIN_SAMPLES_2D)
    or half-sphere (MARGIN_SAMPLES_3D) sample of directions.

    A positive margin certifies the stability condition on the sample; the
    max/min ratio flags mildly unstable configurations.
    """
    apertures = list(apertures)
    if not apertures:
        raise InvalidArgumentError("need at least one aperture")
    dim = apertures[0].dim
    dirs = _direction_samples(
        dim, MARGIN_SAMPLES_2D if dim == 2 else MARGIN_SAMPLES_3D)
    # huge amplitudes overflow to inf (and inf * 0 to nan); both are
    # refused below, so numpy's warnings would only precede the error
    with np.errstate(over="ignore", invalid="ignore"):
        total = _summed_factor(_distinct_apertures(apertures), dirs)
    if not np.all(np.isfinite(total)):
        raise InvalidArgumentError(
            "summed angular factor overflows; the aperture amplitudes are too large")
    imin = int(np.argmin(total))
    margin = float(total[imin])
    max_f = float(np.max(total))
    ratio = np.inf if margin <= 0 else max_f / margin
    return MarginReport(margin=margin, max_factor=max_f, ratio=ratio,
                        worst_direction=tuple(dirs[imin]),
                        invisible_directions=dirs[total <= 0.0])


def parametrix_weights(apertures, xi):
    """Per-cone frequency weights q_j = r_j / sum_k r_k^2.

    Satisfies sum_j q_j r_j = 1 wherever some symbol is nonzero; raises on
    invisible directions.
    """
    r = np.array([multiplier_symbol(ap, xi) for ap in apertures])
    denom = float(np.sum(r ** 2))
    if denom == 0.0:
        raise UndefinedDirectionError(
            f"all cone symbols vanish at xi = {tuple(np.asarray(xi, float))}")
    return r / denom


def _frequency_grid(cells, spacing):
    """Angular frequencies of the rfftn half spectrum of a grid: full FFT
    frequencies on every axis but the last, which keeps its n//2 + 1
    non-negative ones."""
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=h)
            for n, h in zip(cells[:-1], spacing[:-1])]
    axes.append(2.0 * np.pi * np.fft.rfftfreq(cells[-1], d=spacing[-1]))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def total_symbol_table(apertures, cells, spacing):
    """Summed symbol on the rfftn half spectrum of a grid (`_frequency_grid`),
    0 at the zero frequency, where the 1/|xi| symbol is undefined;
    `invert_multiplier` takes that entry, with the rest of the lowest
    frequency shell, from the kernel spectrum."""
    if not apertures:
        raise InvalidArgumentError("need at least one aperture")
    dim = apertures[0].dim
    xi = _frequency_grid(cells, spacing)
    mag = np.sqrt(np.sum(xi * xi, axis=-1))
    flat_dirs = xi.reshape(-1, dim)
    flat_mag = mag.ravel()
    nz = flat_mag > 0
    dirs = flat_dirs[nz] / flat_mag[nz][:, None]
    m = np.zeros(flat_mag.size)
    m[nz] = _summed_factor(_distinct_apertures(apertures), dirs) / flat_mag[nz]
    return m.reshape(mag.shape)


def _kernel_spectrum(conv: ConeConvolution):
    """Half spectrum of the summed quadrature kernel on the circular grid of
    2n cells per axis: the multiplicity-weighted sum of the
    `ConeConvolution` spectra, times the cell volume.  It replaces the
    analytic symbol on the lowest frequency shell, where the
    unbounded-kernel assumption fails."""
    counts = np.bincount(conv.group)
    return (sum(c * S for c, S in zip(counts, conv.spectra))
            * conv.grid.cell_volume)


def invert_multiplier(scan: ConeScanData, v: ScalarField, eps=1e-3,
                      check_margin=True, conv: ConeConvolution = None,
                      stats=None) -> ScalarField:
    """Explicit Fourier inversion of the summed data of the scan's cones
    (`scan.apertures`).

    The data is filtered on the circular grid of twice the field grid's
    cells per axis (`conv.filter`), which suppresses the periodization of
    the slowly decaying kernel: a scan on the field grid is zero padded,
    and a scan on that doubled grid, aligned, fills the extension with its
    measured values and is cropped from the field block.  The filter is
    the Tikhonov-regularized total multiplier m/(m^2 + (eps*m_ref)^2),
    m_ref the median positive entry of its half-spectrum table, and the
    result is divided by the weight as `diffusion._floored_weight` floors
    it (InvalidArgumentError for a weight positive nowhere).  m is the analytic symbol
    except on the lowest shell of grid frequencies, zero included, where
    it is the spectrum of the discrete quadrature kernel (`_kernel_spectrum`
    of `conv`, the scan's ConeConvolution on the field grid, built when
    None).  A dict `stats` receives m_ref and suppressed_fraction, the share
    of table entries with m < eps * m_ref; the filter passes less than half
    of 1/m at such an entry when m > 0.
    """
    grid = v.grid
    focus = scan.focus_grid
    apertures = scan.apertures
    if check_margin:
        rep = ellipticity_margin(apertures)
        if rep.margin <= 0.0:
            raise StabilityViolationError(
                f"invisible directions remain (margin = {rep.margin:g}); "
                "use check_margin=False to force a pseudo-inversion")
    start = None
    if focus != grid:
        start = _nested_offset(grid, focus)
        if start is None or focus.cells != tuple(2 * n for n in grid.cells):
            raise InvalidArgumentError(
                "scan focus grid must equal the field grid or cover it as an "
                "aligned block of a grid with twice the cells per axis")
    if conv is None:
        conv = ConeConvolution(apertures, grid)
    else:
        conv.check(apertures, grid)
    m = total_symbol_table(apertures, conv.shape, grid.spacing)
    xi = _frequency_grid(conv.shape, grid.spacing)
    mag = np.sqrt(np.sum(xi * xi, axis=-1))
    xi_min = min(2.0 * np.pi / (n * h) for n, h in zip(conv.shape, grid.spacing))
    low = mag <= LOW_FREQ_BINS * xi_min * (1.0 + 1e-9)
    m[low] = _kernel_spectrum(conv)[low]
    nonzero = m > 0
    m_ref = float(np.median(m[nonzero])) if np.any(nonzero) else 0.0
    if stats is not None:
        stats["m_ref"] = m_ref
        stats["suppressed_fraction"] = float(np.mean(m < eps * m_ref))
    denom = m ** 2 + (eps * m_ref) ** 2
    # frequencies with zero symbol and zero regularization are unrecoverable
    filt = np.divide(m, denom, out=np.zeros_like(m), where=denom > 0)
    rec = conv.filter(scan.summed(), filt, start)
    return ScalarField(grid, rec / _floored_weight(v))


@dataclass
class RoiReconstruction:
    """Windowed reconstruction with its validity mask (ROI interior)."""

    field: ScalarField
    mask: np.ndarray


def roi_reconstruct(scan: ConeScanData, v: ScalarField, eps,
                    roi) -> RoiReconstruction:
    """Windowed multiplier inversion restricted to a region of interest.

    `roi` is a tuple of (lo, hi) index bounds per axis, strictly inside the
    grid.  Data outside the ROI is discarded; inside, a cosine rolloff over
    ROI_ROLLOFF_CELLS cells tapers it to zero at the ROI boundary.  Edges
    with visible normal directions are recovered inside the mask; constants
    are biased near the ROI boundary.  A cone set with invisible directions
    is refused, as by `invert_multiplier`.
    """
    grid = scan.focus_grid
    k = ROI_ROLLOFF_CELLS
    roi = tuple((int(lo), int(hi)) for (lo, hi) in roi)
    if len(roi) != grid.dim:
        raise InvalidArgumentError("roi must give (lo, hi) bounds per axis")
    for (lo, hi), n in zip(roi, grid.cells):
        if lo <= 0 or hi >= n or hi - lo <= 2 * k:
            raise InvalidArgumentError(
                "roi must be strictly inside the grid and wider than the rolloff")
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(k) + 1) / (k + 1)))
    window = np.ones(grid.cells)
    for ax, (lo, hi) in enumerate(roi):
        n = grid.cells[ax]
        w = np.zeros(n)
        w[lo:hi] = 1.0
        w[lo:lo + k] = ramp
        w[hi - k:hi] = ramp[::-1]
        shape = [1] * grid.dim
        shape[ax] = n
        window = window * w.reshape(shape)
    windowed = [ScalarField(grid, fld.values * window) for fld in scan.fields]
    wscan = ConeScanData(grid, windowed, scan.apertures)
    rec = invert_multiplier(wscan, v, eps)
    mask = np.zeros(grid.cells, dtype=bool)
    mask[tuple(slice(lo + k, hi - k) for (lo, hi) in roi)] = True
    return RoiReconstruction(field=rec, mask=mask)
