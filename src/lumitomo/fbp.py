"""Filtered backprojection for the 2D parallel-beam transform."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import _floored_weight
from .errors import InvalidArgumentError, WeightDegeneracyWarning
from . import excitation
from .excitation import Sinogram, _padded_lerp
from .fields import Grid, ScalarField


@dataclass(frozen=True)
class FbpFilter:
    """Ramp filter, optionally apodized with a Hann window.

    kind: "ramp" or "ramp-hann"; cutoff is a fraction of Nyquist in (0, 1].
    """

    kind: str = "ramp-hann"
    cutoff: float = 0.9

    def __post_init__(self):
        if self.kind not in ("ramp", "ramp-hann"):
            raise InvalidArgumentError(f"unknown filter kind {self.kind!r}")
        if not (0 < self.cutoff <= 1):
            raise InvalidArgumentError("cutoff must lie in (0, 1]")

    def response(self, freqs, nyquist):
        """Frequency response at (possibly negative) frequencies [cycles/mm]."""
        f = np.abs(freqs)
        resp = f.copy()
        fc = self.cutoff * nyquist
        resp[f > fc] = 0.0
        if self.kind == "ramp-hann":
            inside = f <= fc
            resp[inside] *= 0.5 * (1.0 + np.cos(np.pi * f[inside] / fc))
        return resp


def fbp(sino: Sinogram, grid: Grid, filt: FbpFilter = None) -> ScalarField:
    """Parallel-beam filtered backprojection onto a 2D grid.

    Per-angle FFT filtering of the offset profiles, backprojection with
    linear interpolation in the offset coordinate (`_backproject`), scaled
    by pi / n_angles.  The offsets must be uniformly spaced and increasing.

    The profiles are filtered a block of angles at a time, each block's
    rfft multiplied by the response in place and its irfft cropped into
    the padded profile array that `_backproject` reads, so no array of the
    whole sinogram's spectra is formed.  A block holds about
    `excitation.XRAY_BLOCK_SAMPLES` padded samples (16 angles of 512 at
    256 offsets); each profile's transforms are independent of the
    others', so the result does not depend on the block size.
    """
    if grid.dim != 2:
        raise InvalidArgumentError("fbp reconstructs onto 2D grids")
    if sino.angles.size < 8:
        raise InvalidArgumentError("need at least 8 projection angles")
    if filt is None:
        filt = FbpFilter()
    offsets = sino.offsets
    if offsets.size < 2:
        raise InvalidArgumentError("need at least 2 offsets")
    dz = offsets[1] - offsets[0]
    if not dz > 0:
        raise InvalidArgumentError("offsets must increase")
    if not np.allclose(np.diff(offsets), dz, rtol=1e-8):
        raise InvalidArgumentError("offsets must be uniformly spaced")
    n = offsets.size
    npad = int(2 ** np.ceil(np.log2(2 * n)))
    freqs = np.fft.rfftfreq(npad, d=dz)
    resp = filt.response(freqs, nyquist=0.5 / dz)
    # profiles: one filtered profile per angle with two zero cells on
    # either side (`_padded_lerp`)
    profiles = np.zeros((sino.angles.size, n + 4))
    rows = max(1, excitation.XRAY_BLOCK_SAMPLES // npad)
    for lo in range(0, sino.angles.size, rows):
        spec = np.fft.rfft(sino.values[lo:lo + rows], npad, axis=1)
        spec *= resp
        profiles[lo:lo + rows, 2:n + 2] = np.fft.irfft(spec, npad, axis=1)[:, :n]
    out = _backproject(profiles, sino.angles, offsets, grid)
    out *= np.pi / sino.angles.size
    return ScalarField(grid, out)


def _backproject(profiles, angles, offsets, grid: Grid):
    """Sum over angles t of the profile profiles[t] at the offset
    z = -sin(t) x + cos(t) y of every cell centre (x, y), relative to the
    grid centre: linear in z between the uniform, increasing `offsets`
    (`_padded_lerp`), zero outside them.  Each row of `profiles` holds the
    values at the n offsets between two zero cells on either side."""
    n = offsets.size
    dz = offsets[1] - offsets[0]
    # z is the sum of one term per grid axis
    x = (grid.axis_centers(0) - (grid.origin[0] + 0.5 * grid.extent[0]))[:, None]
    y = (grid.axis_centers(1) - (grid.origin[1] + 0.5 * grid.extent[1]))[None, :]
    pos = np.empty(grid.cells)
    out = np.zeros(grid.cells)
    for ia, th in enumerate(angles):
        np.add(-np.sin(th) * x, np.cos(th) * y, out=pos)
        pos -= offsets[0]
        pos /= dz
        out += _padded_lerp(profiles[ia], pos, 2, n)
    return out


def divide_by_weight(g: ScalarField, v: ScalarField) -> ScalarField:
    """Cellwise division f = g / v, v floored by `diffusion._floored_weight`
    (which refuses a weight positive nowhere).

    Warns when the weight is non-positive on more than 1% of the support of
    g (cells with non-negligible magnitude).
    """
    if g.grid != v.grid:
        raise InvalidArgumentError("grids must match")
    divisor = _floored_weight(v)
    support = np.abs(g.values) > 1e-12 * max(float(np.max(np.abs(g.values))), 1e-300)
    n_support = int(np.sum(support))
    if n_support > 0:
        bad = np.sum(v.values[support] <= 0.0)
        if bad > 0.01 * n_support:
            warnings.warn(
                f"weight non-positive on {bad}/{n_support} support cells",
                WeightDegeneracyWarning)
    return ScalarField(g.grid, g.values / divisor)
