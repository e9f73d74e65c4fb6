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
rule on [psi_in, psi_out] reaches roundoff; `angular_factor` runs it on
the directions whose great circle meets the cone.  Between its kinks at
A = cos(inner) and A = cos(half_angle) the factor is analytic in psi_in
(where A > cos(inner)) and in psi_out (below), so the symbol table
evaluates a piecewise Chebyshev interpolant of the rule in those
arcs, fitted once per cone geometry (`_fitted_arc`; Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013, chs. 8 and 19).
A cone set is stably invertible iff the summed angular factor is positive
in every direction; inversion is regularized frequency division followed
by division by the interior weight.  Symbol tables and the inversion use
the rfftn half spectrum of a grid with twice the field's cells per axis
(the frequencies of `excitation._frequency_axes`).  On its lowest
frequency shell, the zero frequency included, the symbol is replaced by
the half spectrum of the discrete quadrature kernel, which the cone
operator sums there (`ConeConvolution.shell_sum`).  The division runs
through the operator's `filter`, the one pad, multiply and crop on the
doubled grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError
from .fields import ScalarField
from .excitation import (Aperture, ConeConvolution, ConeScanData,
                         _distinct_apertures, _frequency_axes,
                         _frequency_magnitudes, _nested_offset)
from .diffusion import _floored_weight

# Gauss-Legendre nodes for the 3D taper band.  Against a 400-node rule the
# factor agrees to 1e-13 of its maximum for taper_width <= 0.95 half_angle
# and for taper_width = half_angle, and to 2e-9 in between, where the
# taper's phase term sits close to the integrand's branch point at
# A cos(psi) = 1.
TAPER_GAUSS_POINTS = 32
MARGIN_SAMPLES_2D = 2048
MARGIN_SAMPLES_3D = 4096
# Rows per block of the symbol table's unit directions (a 384 KB buffer in
# 3D).  One aperture's directions and products with its axis took 0.75,
# 4.6 and 14.6 ms on the half spectra of 48^3, 96^3 and 128^3 cells (one
# thread), against 1.3, 6.2 and 14.8 ms in blocks of 65,536 rows and 1.8,
# 11.4 and 27.5 ms in one block.
TABLE_BLOCK_ROWS = 16384
# The 3D table's interpolant of the rule (`_fitted_arc`): pieces of degree
# FIT_DEGREE, bisected while they miss the rule by more than FIT_TOLERANCE
# of its maximum, or 2 eps / half_angle^2 (the rule's own rounding) where
# that is larger, at most FIT_MAX_DEPTH times and not past FIT_MAX_PENDING
# pieces a level.  The default cones take one piece on each side of the
# kink; a taper fraction of 0.999 about 20, towards a singularity at A = 1
# just beyond the kink.
FIT_DEGREE = 24
FIT_TOLERANCE = 2e-14
FIT_MAX_DEPTH = 30
FIT_MAX_PENDING = 32

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


def _factor_2d(ap: Aperture, om):
    """The 2D factor of the unit direction rows om: the density at the two
    directions perpendicular to each row, equal since `profile` takes
    |cos|."""
    perp = np.stack([-om[:, 1], om[:, 0]], axis=1)
    c = perp @ np.asarray(ap.axis)
    return np.pi * (2.0 * ap.profile(c))


def _factor_3d(ap: Aperture, arc, om):
    """The 3D factor of the unit direction rows om from the cone's
    `_fitted_arc`, scaled as `_met_factor` scales the rule's arc (kept
    positive), and 4 pi amplitude * 0.0 on the rows that miss the cone."""
    A = _largest_cosine(om @ np.asarray(ap.axis))
    meet = A > np.cos(ap.half_angle)
    out = np.full(A.size, 4.0 * np.pi * ap.amplitude * 0.0)
    out[meet] = 4.0 * np.pi * ap.amplitude * np.maximum(
        arc(A[meet]), np.finfo(float).tiny)
    return out


def _largest_cosine(s):
    """Clip s = omega . axis in place to |s| <= 1 and return A = sqrt(1 -
    s^2), the largest cosine to the axis along each row's great circle,
    which meets the cone where A > cos(half_angle); the factor of every
    other row is 4 pi amplitude * 0.0."""
    np.abs(s, out=s)
    np.minimum(s, 1.0, out=s)
    A = 1.0 - s
    A *= 1.0 + s
    return np.sqrt(A, out=A)


def _met_factor(ap: Aperture, s):
    """The 3D factor at the values s = |omega . axis| of rows that meet the
    cone (`_largest_cosine`), by the taper rule, one value per row."""
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
    return 4.0 * np.pi * ap.amplitude * arc


# interpolation points, then twice as many check points, 0.05% from the ends
_FIT_POINTS = np.concatenate([
    np.cos(np.pi * (np.arange(n) + 0.5) / n)
    for n in (FIT_DEGREE + 1, 2 * FIT_DEGREE + 2)])


def _arc_variable(A, cos_inner, cos_half, kink):
    """The interpolation variable of rows with A > cos(half_angle): psi_in
    where A > cos(inner), else psi_out - kink (the psi_out of A =
    cos(inner)), continuous across the kink.  arctan2(sqrt(A^2 - c^2), c)
    keeps the last bit of A, on which the rule depends; arccos(c / A)
    rounds it away."""
    above = A > cos_inner
    c = np.where(above, cos_inner, cos_half)
    u = A - c
    u *= A + c
    np.sqrt(u, out=u)
    np.arctan2(u, c, out=u)
    u[~above] -= kink
    return u


def _clenshaw(coef, x):
    """sum_j coef[j] T_j(x), by Clenshaw's recurrence."""
    x2 = 2.0 * x
    b1, b2, b = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for c in coef[:0:-1]:
        np.multiply(x2, b1, out=b)
        b -= b2
        b += c
        b1, b2, b = b, b1, b2
    np.multiply(x, b1, out=b)
    b -= b2
    b += coef[0]
    return b


def _fitted_arc(ap: Aperture):
    """The rule's arc, c / (4 pi amplitude) of `_met_factor`, as a function
    of the A of rows that meet the cone: the rule's psi_in without a taper,
    else a piecewise Chebyshev interpolant in `_arc_variable` on each side
    of the kink (none above it when inner = 0).  Each piece interpolates
    the rule at first-kind Chebyshev points, placed where the rule maps
    them back from s, by a solve of their cosine matrix."""
    if ap.taper_width == 0:
        return lambda A: _arc_to(A, ap.half_angle)
    inner = ap.half_angle - ap.taper_width
    ci, ch = np.cos(inner), np.cos(ap.half_angle)
    kink = float(np.arctan2(np.sqrt((ci - ch) * (ci + ch)), ch))
    unit = replace(ap, amplitude=1.0)
    tol = max(FIT_TOLERANCE, 2.0 * np.finfo(float).eps / ap.half_angle ** 2)
    n = FIT_DEGREE + 1
    todo = [(-kink, 0.0)] + ([(0.0, inner)] if inner > 0 else [])
    pieces = []
    for depth in range(FIT_MAX_DEPTH + 1):
        lo, hi = np.array(todo).T[:, :, None]
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u = mid + rad * _FIT_POINTS
        A = np.minimum(np.where(u > 0, ci / np.cos(u), ch / np.cos(u + kink)), 1.0)
        s = np.sqrt((1.0 - A) * (1.0 + A)).ravel()
        f = (_met_factor(unit, s) / (4.0 * np.pi)).reshape(u.shape)
        x = (_arc_variable(_largest_cosine(s), ci, ch, kink).reshape(u.shape)
             - mid) / rad
        if depth == 0:
            scale = f.max()
        split = []
        for (a, b), xk, fk in zip(todo, x, f):
            # the rule's rounding can carry a node of a short piece past 1
            theta = np.arccos(np.clip(xk[:n], -1.0, 1.0))
            coef = np.linalg.solve(np.cos(np.outer(theta, np.arange(n))), fk[:n])
            if (np.max(np.abs(_clenshaw(coef, xk[n:]) - fk[n:])) <= tol * scale
                    or depth == FIT_MAX_DEPTH or len(todo) > FIT_MAX_PENDING):
                pieces.append((a, b, coef))
            else:
                split += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
        if not split:
            break
        todo = split
    pieces.sort(key=lambda piece: piece[0])
    ends = np.array([b for _, b, _ in pieces[:-1]])

    def arc(A):
        u = _arc_variable(A, ci, ch, kink)
        which = np.searchsorted(ends, u)
        out = np.empty_like(u)
        for k, (a, b, coef) in enumerate(pieces):
            rows = which == k
            out[rows] = _clenshaw(coef, (u[rows] - 0.5 * (a + b)) / (0.5 * (b - a)))
        return out
    return arc


def angular_factor(ap: Aperture, omega):
    """c(omega) = |xi| * r0(xi) for xi in direction omega; vectorized over rows.

    In 3D the factor depends on omega only through s = |omega . axis|; the
    taper rule runs on the rows whose great circle meets the cone.
    """
    om = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    if ap.dim == 2:
        out = _factor_2d(ap, om)
    else:
        s = om @ np.asarray(ap.axis)
        meet = _largest_cosine(s) > np.cos(ap.half_angle)
        out = np.full(meet.size, 4.0 * np.pi * ap.amplitude * 0.0)
        out[meet] = _met_factor(ap, s[meet])
    return out if np.asarray(omega).ndim > 1 else float(out[0])


def multiplier_symbol(ap: Aperture, xi):
    """Symbol r0(xi) = c(xi/|xi|) / |xi| of the cone transform."""
    xi = np.asarray(xi, dtype=np.float64)
    mag = np.linalg.norm(xi)
    if mag == 0.0:
        raise InvalidArgumentError("multiplier_symbol undefined at xi = 0")
    return float(angular_factor(ap, xi / mag)) / mag


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
    total = np.zeros(len(dirs))
    with np.errstate(over="ignore", invalid="ignore"):
        for ap, count in _distinct_apertures(apertures):
            total += count * angular_factor(ap, dirs)
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


def _direction_blocks(cells, spacing, mag):
    """The unit directions xi/|xi| of the table `mag` (`_frequency_axes`)
    in blocks of first-axis slabs of about TABLE_BLOCK_ROWS rows: (slice of
    the flattened table, (rows, dim) directions) pairs, the directions in
    one buffer that the next block overwrites.  The zero frequency keeps
    direction 0."""
    axes = _frequency_axes(cells, spacing)
    per_slab = mag[0].size
    slabs = max(1, TABLE_BLOCK_ROWS // per_slab)
    buf = np.zeros((slabs * per_slab, len(cells)))
    for i in range(0, mag.shape[0], slabs):
        blk = mag[i:i + slabs]
        rows = buf[:blk.size]
        nz = blk > 0
        for k, a in enumerate(axes):
            np.divide(a[i:i + slabs] if k == 0 else a, blk,
                      out=rows[:, k].reshape(blk.shape), where=nz)
        yield slice(i * per_slab, i * per_slab + blk.size), rows


def total_symbol_table(distinct, cells, spacing):
    """Summed symbol on the rfftn half spectrum of a grid (`_frequency_axes`)
    of the (aperture, multiplicity) pairs `distinct` (a list, as
    `excitation._distinct_apertures` gives), 0 at the zero frequency, where
    the 1/|xi| symbol is undefined; `invert_multiplier` takes that entry,
    with the rest of the lowest frequency shell, from the kernel spectrum.

    The directions are made block by block (`_direction_blocks`), and each
    block's factors are summed into the table: in 2D the closed form, in
    3D the interpolant of each cone geometry's rule (`_fitted_arc`) on the
    block's rows that meet the cone, scaled by 4 pi amplitude as the rule
    scales it, and positive there as the rule's factor is.  With T the
    table's bytes, it holds |xi|, the table and one block's work arrays:
    for the default 3D cones 4.9 T at the peak on the half spectrum of
    48^3 cells, where one block's direction rows alone are 0.85 T, and
    2.5 T and 2.1 T on those of 96^3 and 128^3 cells (tracemalloc).
    """
    if not distinct:
        raise InvalidArgumentError("need at least one aperture")
    mag = _frequency_magnitudes(cells, spacing)
    # the table before its work arrays: allocated after them, it lands
    # above them in glibc's heap (0.2-0.4 MB more peak RSS at 128^2)
    m = np.zeros(mag.shape)
    flat = m.reshape(-1)
    factor = _factor_2d
    if len(cells) == 3:
        arcs = {(ap.half_angle, ap.taper_width): ap for ap, _ in distinct}
        arcs = {key: _fitted_arc(ap) for key, ap in arcs.items()}

        def factor(ap, om):
            return _factor_3d(ap, arcs[ap.half_angle, ap.taper_width], om)
    for rows, om in _direction_blocks(cells, spacing, mag):
        for ap, count in distinct:
            flat[rows] += count * factor(ap, om)
    np.divide(flat[1:], mag.reshape(-1)[1:], out=flat[1:])
    flat[0] = 0.0
    return m


def _median(x):
    """np.median of a 1-D array, 0.0 when it is empty, by a partition of x
    in place: np.median imports numpy.ma."""
    if not x.size:
        return 0.0
    k = x.size // 2
    if x.size % 2:
        x.partition(k)
        return float(x[k])
    x.partition((k - 1, k))
    return float((x[k - 1] + x[k]) / 2.0)


def invert_multiplier(scan: ConeScanData, v: ScalarField, conv: ConeConvolution,
                      eps=1e-3, stats=None) -> ScalarField:
    """Explicit Fourier inversion of the summed data of a scan whose cones
    are those of `conv`, the cone operator on the grid of v.  Of the scan
    it reads `focus_grid`, `apertures` and `summed()` only; of `conv` its
    cone set, its circular grid (`filter`) and the sum of its kernel
    spectra on its low shell (`shell_index`, `shell_sum`), never a stack
    of spectra, so `conv` may stream them.

    The data is filtered on the circular grid of twice the field grid's
    cells per axis (`conv.filter`), which suppresses the periodization of
    the slowly decaying kernel: a scan on the field grid is zero padded,
    and a scan on that doubled grid, aligned, fills the extension with its
    measured values and is cropped from the field block.  The filter is
    the Tikhonov-regularized total multiplier m/(m^2 + (eps*m_ref)^2),
    m_ref the median positive entry of its half-spectrum table, and the
    result is divided by the weight as `diffusion._floored_weight` floors
    it (InvalidArgumentError for a weight positive nowhere).  m is the
    analytic symbol except on the lowest shell of grid frequencies, zero
    included (`conv.shell_index`), where it is the spectrum of the discrete
    quadrature kernel, `conv.shell_sum()` times the cell volume.  A dict
    `stats` receives m_ref and suppressed_fraction, the share of table
    entries with m < eps * m_ref; the filter passes less than half of 1/m
    at such an entry when m > 0.
    The cone set is not checked for invisible directions: callers gate it
    with `ellipticity_margin` (the pipelines' `_gate`).
    """
    grid = v.grid
    focus = scan.focus_grid
    start = None
    if focus != grid:
        start = _nested_offset(grid, focus)
        if start is None or focus.cells != tuple(2 * n for n in grid.cells):
            raise InvalidArgumentError(
                "scan focus grid must equal the field grid or cover it as an "
                "aligned block of a grid with twice the cells per axis")
    if conv.grid != grid or conv.apertures != tuple(scan.apertures):
        raise InvalidArgumentError(
            "conv must be the cone operator of the scan's apertures on the "
            "grid of v")
    m = total_symbol_table(list(zip(conv.distinct, conv.counts)), conv.shape,
                           grid.spacing)
    m[conv.shell_index] = conv.shell_sum() * grid.cell_volume
    m_ref = _median(m[m > 0])
    if stats is not None:
        stats["m_ref"] = m_ref
        stats["suppressed_fraction"] = float(np.mean(m < eps * m_ref))
    denom = m ** 2
    denom += (eps * m_ref) ** 2
    # the table becomes the filter; frequencies with zero symbol and zero
    # regularization are unrecoverable
    ok = denom > 0
    np.divide(m, denom, out=m, where=ok)
    m[~ok] = 0.0
    del denom, ok
    rec = conv.filter(scan.summed(), m, start)
    return ScalarField(grid, rec / _floored_weight(v))
