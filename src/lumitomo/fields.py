"""Uniform cell-centered grids, scalar fields, optical media and phantoms.

All lengths are millimetres.  Grids are axis-aligned rectangles/boxes with
cell-centered sample points; fields are dense float64 arrays shaped like the
grid.  Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

# The most cells make_grid accepts (512 x 512 x 256), so that a config or a
# file header cannot ask for more than 512 MiB per field.
MAX_GRID_CELLS = 2 ** 26
# Grid spacings whose squares and inverse squares are finite and nonzero.
SPACING_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian cell-centered grid over the box [origin, origin+extent]."""

    dim: int
    origin: tuple
    extent: tuple
    cells: tuple

    @property
    def spacing(self):
        return tuple(e / n for e, n in zip(self.extent, self.cells))

    @property
    def n_cells(self):
        return math.prod(self.cells)

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_centers(self, axis):
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return self.origin[axis] + (np.arange(self.cells[axis]) + 0.5) * h

    def centers(self):
        """Array of cell-center coordinates, shape cells + (dim,)."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def contains(self, point):
        return all(
            self.origin[a] <= point[a] <= self.origin[a] + self.extent[a]
            for a in range(self.dim))


def make_grid(dim, origin, extent, cells) -> Grid:
    """Build a grid, validating shape arguments.

    Requires at least 4 cells and a finite origin and positive finite
    extent on every axis, at most MAX_GRID_CELLS = 2**26 cells in all
    (the exact product, checked before anything is allocated), and spacings
    within SPACING_RANGE, so that their squares and inverse squares, which
    the diffusion operator forms, are finite and nonzero.
    """
    origin = tuple(float(x) for x in origin)
    extent = tuple(float(x) for x in extent)
    cells = tuple(int(n) for n in cells)
    if dim not in (2, 3):
        raise InvalidArgumentError(f"dim must be 2 or 3, got {dim}")
    if not (len(origin) == len(extent) == len(cells) == dim):
        raise InvalidArgumentError("origin/extent/cells length must equal dim")
    if not all(math.isfinite(x) for x in origin + extent):
        raise InvalidArgumentError(
            f"origin and extent must be finite, got {origin} and {extent}")
    if any(e <= 0 for e in extent):
        raise InvalidArgumentError(f"extent must be positive, got {extent}")
    if any(n < 4 for n in cells):
        raise InvalidArgumentError(f"need at least 4 cells per axis, got {cells}")
    if math.prod(cells) > MAX_GRID_CELLS:
        raise InvalidArgumentError(
            f"grid of {cells} cells exceeds the {MAX_GRID_CELLS} cell limit")
    spacing = tuple(e / n for e, n in zip(extent, cells))
    if not all(SPACING_RANGE[0] <= h <= SPACING_RANGE[1] for h in spacing):
        raise InvalidArgumentError(
            f"grid spacing must lie in [{SPACING_RANGE[0]:g}, "
            f"{SPACING_RANGE[1]:g}], got {spacing}")
    return Grid(dim, origin, extent, cells)


class ScalarField:
    """A real-valued field sampled at the cell centers of a grid.

    Values are stored as a read-only float64 array shaped like the grid and
    must be finite.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != tuple(grid.cells):
            if values.size == grid.n_cells:
                values = values.reshape(grid.cells)
            else:
                raise InvalidArgumentError(
                    f"values shape {values.shape} incompatible with cells {grid.cells}")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("field values must be finite")
        values = values.copy()
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    def __repr__(self):
        return f"ScalarField(cells={self.grid.cells}, range=[{self.values.min():g}, {self.values.max():g}])"


@dataclass(frozen=True)
class OpticalMedium:
    """Constant optical coefficients of the tissue.

    mu_a : absorption [1/mm], >= 0
    D    : diffusion coefficient [mm], > 0
    A    : Robin (refractive-mismatch) coefficient, dimensionless, > 0
    """

    mu_a: float
    D: float
    A: float

    def __post_init__(self):
        if self.mu_a < 0:
            raise InvalidArgumentError(f"mu_a must be >= 0, got {self.mu_a}")
        if self.D <= 0:
            raise InvalidArgumentError(f"D must be > 0, got {self.D}")
        if self.A <= 0:
            raise InvalidArgumentError(f"A must be > 0, got {self.A}")


def derived_optics(mu_a, mu_s, g):
    """Reduced scattering and diffusion coefficient in the diffusion regime.

    mu_s_prime = (1 - g) * mu_s,  D = 1 / (3 (mu_a + mu_s_prime)).
    """
    if mu_a < 0 or mu_s < 0:
        raise InvalidArgumentError("mu_a and mu_s must be non-negative")
    if not (0 <= g < 1):
        raise InvalidArgumentError(f"anisotropy g must lie in [0, 1), got {g}")
    mu_s_prime = (1.0 - g) * mu_s
    total = mu_a + mu_s_prime
    if total <= 0:
        raise InvalidArgumentError("mu_a + (1-g) mu_s must be positive")
    return mu_s_prime, 1.0 / (3.0 * total)


def robin_coefficient(m):
    """Robin coefficient A = (1+R)/(1-R) from the relative refractive index m.

    R is the standard cubic-in-1/m fit used in tissue optics.
    """
    if m <= 0:
        raise InvalidArgumentError(f"refractive index must be positive, got {m}")
    try:
        R = -1.4399 / m ** 2 + 0.7099 / m + 0.6681 + 0.063 * m
    except ArithmeticError:  # m ** 2 under- or overflows
        raise InvalidArgumentError(
            f"refractive index {m:g} is outside the reflectance fit") from None
    if R >= 1:
        raise InvalidArgumentError(f"reflectance fit R={R:g} >= 1; outside validity range")
    return (1.0 + R) / (1.0 - R)


@dataclass(frozen=True)
class PhantomSpec:
    """Background concentration plus spherical/circular inclusions.

    Each inclusion is (center, radius, concentration); later entries win on
    overlap.
    """

    background: float
    inclusions: tuple

    def __post_init__(self):
        object.__setattr__(self, "inclusions", tuple(
            (tuple(float(x) for x in c), float(r), float(v))
            for (c, r, v) in self.inclusions))
        for (_, r, v) in self.inclusions:
            if r <= 0:
                raise InvalidArgumentError(f"inclusion radius must be positive, got {r}")
            if v < 0:
                raise InvalidArgumentError(f"concentration must be >= 0, got {v}")


def _sum_of_squares(terms):
    """t * t summed over the arrays `terms` in list order, broadcast against
    each other: the bits of np.sum(np.stack(terms, -1) ** 2, axis=-1)
    without that stack and its slow short reduction."""
    total = terms[0] * terms[0]
    for t in terms[1:]:
        total = total + t * t
    return total


def _support_box(values):
    """First and last index per axis of the cells that are not +0.0 (a
    -0.0 counts), or None when every cell is +0.0.  `values` is a float64
    array: +0.0 is the one double whose bits are all zero."""
    support = values.view(np.uint64) != 0
    bounds = []
    for ax in range(values.ndim):
        others = tuple(a for a in range(values.ndim) if a != ax)
        hit = np.flatnonzero(support.any(axis=others))
        if hit.size == 0:
            return None
        bounds.append((int(hit[0]), int(hit[-1])))
    return bounds


def build_phantom(spec: PhantomSpec, grid: Grid) -> ScalarField:
    """Rasterize a phantom spec onto a grid (last inclusion wins on overlap).

    Each inclusion's squared distances are broadcast from the per-axis
    cell centers (`_sum_of_squares`), so beside the field only one
    grid-sized array of them and its mask are alive."""
    vals = np.full(grid.cells, float(spec.background))
    axes = [grid.axis_centers(a).reshape((-1,) + (1,) * (grid.dim - 1 - a))
            for a in range(grid.dim)]
    for (center, radius, conc) in spec.inclusions:
        if len(center) != grid.dim:
            raise InvalidArgumentError("inclusion center dimension mismatch")
        if not grid.contains(center):
            raise InvalidArgumentError(f"inclusion center {center} outside grid")
        offsets = [x - c for x, c in zip(axes, center)]
        vals[_sum_of_squares(offsets) <= radius * radius] = conc
    return ScalarField(grid, vals)
