"""Grid, field, medium and phantom construction."""

import numpy as np
import pytest

from lumitomo.errors import InvalidArgumentError
from lumitomo.fields import (MAX_GRID_CELLS, Grid, OpticalMedium,
                             PhantomSpec, ScalarField, _sum_of_squares,
                             build_phantom, derived_optics, make_grid,
                             robin_coefficient)

from conftest import cell_index, constant_field, traced_peak
from oracles import attenuation, centers_phantom, l2_norm


def test_make_grid_basic():
    g = make_grid(2, (-10, -10), (20, 20), (64, 64))
    assert g.dim == 2
    assert g.spacing == (0.3125, 0.3125)
    assert g.n_cells == 64 * 64
    assert g.cell_volume == pytest.approx(0.3125 ** 2)


def test_make_grid_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        make_grid(2, (0, 0), (10, 10), (3, 8))      # too few cells
    with pytest.raises(InvalidArgumentError):
        make_grid(2, (0, 0), (-1, 10), (8, 8))      # non-positive extent
    with pytest.raises(InvalidArgumentError):
        make_grid(4, (0,) * 4, (1,) * 4, (8,) * 4)  # unsupported dim


def test_make_grid_cell_limit():
    assert MAX_GRID_CELLS == 2 ** 26
    largest = make_grid(2, (0, 0), (1, 1), (2 ** 13, 2 ** 13))
    assert largest.n_cells == MAX_GRID_CELLS
    for cells in [(2 ** 13, 2 ** 13 + 1), (4, 10 ** 30), (4, 2 ** 64, 2 ** 64),
                  (2 ** 32, 2 ** 32)]:
        with pytest.raises(InvalidArgumentError, match="cell limit"):
            make_grid(len(cells), (0,) * len(cells), (1,) * len(cells), cells)


@pytest.mark.parametrize("origin,extent", [
    ((np.nan, 0.0), (1.0, 1.0)), ((0.0, -np.inf), (1.0, 1.0)),
    ((0.0, 0.0), (np.inf, 1.0)), ((0.0, 0.0), (1.0, np.nan))])
def test_make_grid_rejects_non_finite_geometry(origin, extent):
    with pytest.raises(InvalidArgumentError):
        make_grid(2, origin, extent, (8, 8))


def test_grid_index_center_roundtrip():
    g = make_grid(2, (-5, 3), (10, 4), (16, 8))
    centers = g.centers().reshape(-1, 2)
    for p in centers:
        i = cell_index(g, p)
        c = g.centers()[i]
        assert np.allclose(c, p)
        assert g.contains(p)
    assert not g.contains((100.0, 0.0))


def test_axis_centers_are_cell_midpoints():
    g = make_grid(2, (0, 0), (1, 1), (4, 4))
    assert np.allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_scalar_field_validation():
    g = make_grid(2, (0, 0), (1, 1), (4, 4))
    f = ScalarField(g, np.ones(g.cells))
    assert l2_norm(f) == pytest.approx(np.sqrt(16 * g.cell_volume))
    with pytest.raises(InvalidArgumentError):
        ScalarField(g, np.ones((4, 5)))
    with pytest.raises(InvalidArgumentError):
        ScalarField(g, np.full(g.cells, np.nan))


def test_scalar_field_values_read_only():
    g = make_grid(2, (0, 0), (1, 1), (4, 4))
    f = constant_field(g, 0.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_derived_optics_reference_values():
    musp, D = derived_optics(0.05, 15.0, 0.9)
    assert musp == pytest.approx(1.5)
    assert D == pytest.approx(1.0 / (3.0 * 1.55))
    with pytest.raises(InvalidArgumentError):
        derived_optics(0.05, 15.0, 1.0)


def test_robin_coefficient_value():
    # polynomial fit of the internal reflection coefficient at m = 1.37
    assert robin_coefficient(1.37) == pytest.approx(3.044, abs=5e-4)
    assert robin_coefficient(1.0) == pytest.approx(1.0, abs=2e-2)


def test_medium_k():
    med = OpticalMedium(mu_a=0.05, D=1.0 / (3.0 * 1.55), A=3.044)
    assert attenuation(med) == pytest.approx(0.482, abs=1e-3)
    with pytest.raises(InvalidArgumentError):
        OpticalMedium(mu_a=-1.0, D=0.2, A=3.0)


def test_build_phantom_last_wins_and_background():
    g = make_grid(2, (-10, -10), (20, 20), (64, 64))
    spec = PhantomSpec(background=0.5,
                       inclusions=[((0.0, 0.0), 3.0, 2.0),
                                   ((0.0, 0.0), 1.0, 7.0)])
    f = build_phantom(spec, g)
    c = cell_index(g, (0.0, 0.0))
    assert f.values[c] == 7.0                      # later inclusion wins
    assert f.values[cell_index(g, (0.0, 2.0))] == 2.0  # first ring remains
    assert f.values[cell_index(g, (8.0, 8.0))] == 0.5  # background


# the default 2D phantom, the benchmark's 3D one, and inclusions that
# overlap, reach past the grid and sit on an anisotropic grid
PHANTOM_CASES = [
    (make_grid(2, (-10, -10), (20, 20), (128, 128)),
     PhantomSpec(0.0, [((2.5, 2.5), 1.5, 5.0), ((-3.5, 0.0), 1.5, 10.0)])),
    (make_grid(3, (-10, -10, -10), (20, 20, 20), (64, 64, 64)),
     PhantomSpec(0.0, [((2.5, 2.5, 0.0), 1.5, 5.0),
                       ((-3.5, 0.0, 0.0), 1.5, 10.0)])),
    (make_grid(2, (-6, -9), (12, 30), (24, 40)),
     PhantomSpec(0.5, [((0.3, -1.1), 4.0, 2.0), ((1.0, 0.7), 9.0, 3.0),
                       ((-5.9, 8.9), 0.8, 7.0)])),
    (make_grid(3, (-4, -5, -7), (9.6, 7.0, 16.8), (12, 10, 14)),
     PhantomSpec(0.25, [((0.1, 0.2, -0.3), 2.2, 1.0),
                        ((1.7, -1.0, 2.9), 3.1, 4.0)])),
]


@pytest.mark.parametrize("grid,spec", PHANTOM_CASES,
                         ids=["2d-128", "3d-64", "2d-aniso", "3d-aniso"])
def test_build_phantom_bytes_equal_the_centers_path(grid, spec):
    assert build_phantom(spec, grid).values.tobytes() == \
        centers_phantom(spec, grid).tobytes()


def test_build_phantom_working_set():
    # the field, one inclusion's squared distances and their mask, then the
    # field and its read-only copy: measured 2.1x the field at 64^3 (9.0x
    # from the stacked cell centers and their squared offsets)
    grid, spec = PHANTOM_CASES[1]
    phantom, peak = traced_peak(lambda: build_phantom(spec, grid))
    assert peak <= 2.5 * phantom.values.nbytes


@pytest.mark.parametrize("shapes", [
    [(40, 30)] * 2, [(12, 10, 8)] * 3,
    [(40, 1), (30,)], [(12, 1, 1), (10, 1), (8,)], [(1, 10, 8), (12, 1, 8), (8,)]],
    ids=["stacked-2d", "stacked-3d", "broadcast-2d", "broadcast-3d", "mixed-3d"])
def test_sum_of_squares_bytes_equal_the_stacked_sum(shapes):
    # signed values of one scale, whose sums round differently in another
    # order, then exact and signed zeros, squares that overflow or
    # underflow, and non-finite entries
    rng = np.random.default_rng(len(shapes) * 100 + len(shapes[0]))
    terms = []
    for shape in shapes:
        t = rng.standard_normal(shape)
        flat = t.reshape(-1)
        flat[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, 1e-300][:flat.size]
        terms.append(t)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = _sum_of_squares(terms)
        ref = np.sum(np.stack(np.broadcast_arrays(*terms), -1) ** 2, axis=-1)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
