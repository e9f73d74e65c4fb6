"""Symbols, ellipticity, and the explicit inversion."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lumitomo import excitation, multiplier
from lumitomo.config import DEFAULTS, build_apertures
from lumitomo.diffusion import V_FLOOR_FRACTION
from lumitomo.errors import InvalidArgumentError
from lumitomo.excitation import (Aperture, ConeConvolution, ConeScanData,
                                 cone_kernel, cone_transform,
                                 simulate_boundary_scan)
from lumitomo.fields import ScalarField, make_grid
from lumitomo.multiplier import (angular_factor, ellipticity_margin,
                                 invert_multiplier, multiplier_symbol,
                                 total_symbol_table)

from conftest import (centered_table, constant_field, extended_grid,
                      fan_apertures, rel_l2, traced_peak, two_bump_phantom)
from oracles import two_call_factor_2d


def unit(theta):
    return (np.cos(theta), np.sin(theta))


class TestSymbol:
    def test_full_circle_2d(self):
        ap = Aperture(dim=2, axis=unit(0.37), half_angle=np.pi / 2 - 1e-12,
                      taper_width=0.0)
        for xi in [(1.0, 0.0), (0.3, -2.0), (5.0, 5.0)]:
            mag = np.hypot(*xi)
            assert multiplier_symbol(ap, xi) == pytest.approx(2 * np.pi / mag,
                                                              rel=1e-6)

    def test_full_sphere_3d(self):
        ap = Aperture(dim=3, axis=(0.3, 0.5, 0.81), half_angle=np.pi / 2 - 1e-12,
                      taper_width=0.0)
        for xi in [(1.0, 0.0, 0.0), (0.0, 2.0, 1.0)]:
            mag = np.linalg.norm(xi)
            assert multiplier_symbol(ap, xi) == pytest.approx(2 * np.pi ** 2 / mag,
                                                              rel=1e-6)

    def test_3d_cone_along_xi_is_invisible(self):
        ap = Aperture(dim=3, axis=(0.0, 0.0, 1.0), half_angle=np.deg2rad(30))
        assert multiplier_symbol(ap, (0.0, 0.0, 4.0)) == 0.0

    def test_homogeneity_and_evenness(self):
        ap = Aperture(dim=2, axis=unit(1.0), half_angle=0.5)
        xi = np.array([0.7, -1.3])
        assert multiplier_symbol(ap, 2 * xi) == pytest.approx(
            multiplier_symbol(ap, xi) / 2, rel=1e-14)
        assert multiplier_symbol(ap, -xi) == pytest.approx(
            multiplier_symbol(ap, xi), rel=1e-14)

    def test_zero_frequency_rejected(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.5)
        with pytest.raises(InvalidArgumentError):
            multiplier_symbol(ap, (0.0, 0.0))


def great_circle_factor(ap, omega, points=256):
    """The 3D angular factor as a midpoint sum over `points` great-circle
    points per direction: the rule the closed form replaced."""
    om = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    phi = (np.arange(points) + 0.5) * (2.0 * np.pi / points)
    helper = np.where(np.abs(om[:, :1]) > 0.9, np.array([[0.0, 1.0, 0.0]]),
                      np.array([[1.0, 0.0, 0.0]]))
    e1 = np.cross(om, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(om, e1)
    axis = np.asarray(ap.axis)
    cosang = np.outer(e1 @ axis, np.cos(phi)) + np.outer(e2 @ axis, np.sin(phi))
    return np.pi * np.sum(ap.profile(cosang), axis=1) * (2.0 * np.pi / points)


def midpoint_factor(ap, A, points=2 ** 16):
    """4 pi * integral over psi in [0, pi/2] of a(A cos psi), by the midpoint
    rule on each piece between the plateau and taper edges, where the
    profile is smooth; edges in the wrong place would leave a jump or kink
    inside a piece and an error far above the tolerances used here."""
    edges = [0.0]
    for angle in (ap.half_angle - ap.taper_width, ap.half_angle):
        edges.append(np.arccos(np.cos(angle) / A) if A > np.cos(angle) else 0.0)
    edges.append(np.pi / 2)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            h = (hi - lo) / points
            psi = lo + (np.arange(points) + 0.5) * h
            total += float(np.sum(ap.profile(A * np.cos(psi)))) * h
    return 4.0 * np.pi * total


def rotated_about(axis, s, phi):
    """Unit directions at |cos| = s to `axis`, turned by the angles phi."""
    axis = np.asarray(axis)
    e1 = np.cross(axis, [1.0, 0.0, 0.0] if abs(axis[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), np.shape(phi))[:, None]
    return (s * axis + np.sqrt(1.0 - s * s)
            * (np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2)))


AXIS_3D = (0.3, 0.5, 0.81)


class TestAngularFactor3D:
    @pytest.mark.parametrize("half", [0.1, np.deg2rad(19.2), np.pi / 2 - 1e-3])
    @pytest.mark.parametrize("taper", ["zero", "default", "full"])
    def test_matches_fine_midpoint_rule(self, half, taper):
        tw = {"zero": 0.0, "default": None, "full": half}[taper]
        ap = Aperture(dim=3, axis=AXIS_3D, half_angle=half, taper_width=tw)
        axis = np.asarray(ap.axis)
        rng = np.random.default_rng(5)
        random = rng.standard_normal((24, 3))
        random /= np.linalg.norm(random, axis=1, keepdims=True)
        near_axis = rotated_about(axis, np.cos([0.0, 1e-6, 1e-3, 0.5 * half]),
                                  np.arange(4.0))
        near_perp = rotated_about(axis, np.array([0.0, 1e-9, 1e-4, 1e-2]),
                                  np.arange(4.0))
        # A = sqrt(1 - s^2) across the visible range (cos(half), 1)
        A_visible = np.linspace(np.cos(half), 1.0, 14)[1:-1]
        visible = rotated_about(axis, np.sqrt(1.0 - A_visible ** 2),
                                np.arange(12.0))
        dirs = np.vstack([random, near_axis, near_perp, visible])
        A = np.linalg.norm(np.cross(dirs, axis), axis=1)
        ref = np.array([midpoint_factor(ap, a) for a in A])
        err = np.max(np.abs(angular_factor(ap, dirs) - ref)) / np.max(ref)
        assert err <= 1e-10

    def test_equal_for_directions_rotated_about_axis(self):
        ap = Aperture(dim=3, axis=AXIS_3D, half_angle=np.deg2rad(19.2))
        phi = np.linspace(0.0, 2.0 * np.pi, 17)
        spread_new, spread_old, scale = 0.0, 0.0, 0.0
        for s in (0.0, 0.05, 0.2, 0.3):
            dirs = rotated_about(ap.axis, s, phi)
            new = angular_factor(ap, dirs)
            old = great_circle_factor(ap, dirs)
            spread_new = max(spread_new, np.ptp(new))
            spread_old = max(spread_old, np.ptp(old))
            scale = max(scale, np.max(new))
        assert spread_new <= 1e-14 * scale
        # the replaced rule was not rotation invariant
        assert spread_old > 1e-4 * scale

    @pytest.mark.parametrize("half_deg", [19.2, 35.0, 60.0])
    def test_agrees_with_great_circle_rule(self, half_deg):
        # stated tolerance of the replaced 256-point rule on default tapers
        ap = Aperture(dim=3, axis=AXIS_3D, half_angle=np.deg2rad(half_deg))
        dirs = np.random.default_rng(6).standard_normal((2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        new = angular_factor(ap, dirs)
        old = great_circle_factor(ap, dirs)
        assert np.max(np.abs(new - old)) <= 3e-3 * np.max(new)

    @pytest.mark.parametrize("tw", [0.0, None, 0.3])
    def test_exactly_zero_inside_the_invisible_cone(self, tw):
        half = 0.3
        ap = Aperture(dim=3, axis=AXIS_3D, half_angle=half, taper_width=tw)
        # A = sin(angle to axis) <= cos(half) within pi/2 - half of the axis
        angles = np.array([0.0, 1e-8, 0.3, 0.9, 1.2, np.pi / 2 - half - 1e-12])
        dirs = np.vstack([rotated_about(ap.axis, np.cos(a), np.arange(3.0))
                          for a in angles])
        A = np.linalg.norm(np.cross(dirs, np.asarray(ap.axis)), axis=1)
        assert np.all(A <= np.cos(half))
        assert np.all(angular_factor(ap, dirs) == 0.0)
        assert np.all(angular_factor(ap, -dirs) == 0.0)

    def test_gauss_legendre_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(
            multiplier.TAPER_GAUSS_POINTS)
        order = np.argsort(multiplier._TAPER_NODES)
        assert np.max(np.abs(multiplier._TAPER_NODES[order] - nodes)) <= 1e-15
        assert np.max(np.abs(multiplier._TAPER_WEIGHTS[order] - weights)) <= 1e-15


def _cone_sets():
    return {
        "2d-defaults": build_apertures(DEFAULTS, 2),
        "2d-distinct": fan_apertures(3, 35.0),
        "3d-defaults": build_apertures(DEFAULTS, 3),
        "3d-distinct": [Aperture(dim=3, axis=ax, half_angle=np.deg2rad(35.0))
                        for ax in [(1, 0, 0), (0, 1, 0), (0.6, 0.0, 0.8)]],
    }


class TestDistinctApertures:
    def test_default_cones_are_five_double_cones(self):
        for dim in (2, 3):
            distinct = multiplier._distinct_apertures(build_apertures(DEFAULTS, dim))
            assert [count for _, count in distinct] == [2] * 5

    def test_different_parameters_stay_distinct(self):
        ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
        others = [Aperture(dim=2, axis=(-1.0, 1e-9), half_angle=0.5),
                  Aperture(dim=2, axis=(-1.0, 0.0), half_angle=0.4),
                  Aperture(dim=2, axis=(-1.0, 0.0), half_angle=0.5,
                           taper_width=0.0),
                  Aperture(dim=2, axis=(-1.0, 0.0), half_angle=0.5,
                           amplitude=2.0)]
        for other in others:
            assert len(multiplier._distinct_apertures([ap, other])) == 2

    @pytest.mark.parametrize("name", list(_cone_sets()))
    def test_equals_per_aperture_loop(self, name, monkeypatch):
        aps = _cone_sets()[name]
        dim = aps[0].dim
        n = 32 if dim == 2 else 10
        grid = make_grid(dim, (-10.0,) * dim, (20.0,) * dim, (n,) * dim)
        X = grid.centers()
        f = ScalarField(grid, np.exp(-np.sum((X - 1.0) ** 2, axis=-1) / 8.0))
        v = constant_field(grid, 1.0)
        scan = ConeScanData(grid, cone_transform(f, v, ConeConvolution(aps, grid)),
                            aps)
        padded = tuple(2 * c for c in grid.cells)

        def outputs():
            return (table(aps, padded, grid.spacing),
                    invert(scan, v, 1e-3).values,
                    ellipticity_margin(aps).margin)

        table_, rec, margin = outputs()
        # every aperture its own group: in the cone operator, whose grouping
        # the inversion's table takes, and in the gate's margin
        monkeypatch.setattr(excitation, "_aperture_groups",
                            lambda apertures: (list(apertures),
                                               list(range(len(apertures)))))
        loop_table, loop_rec, loop_margin = outputs()
        assert np.max(np.abs(table_ - loop_table)) <= 1e-13 * np.max(np.abs(loop_table))
        assert np.max(np.abs(rec - loop_rec)) <= 1e-13 * np.max(np.abs(loop_rec))
        assert abs(margin - loop_margin) <= 1e-13 * abs(loop_margin) + 1e-300


def table(apertures, cells, spacing):
    """`total_symbol_table` of a cone set, grouped as the cone operator
    groups it."""
    return total_symbol_table(excitation._distinct_apertures(apertures),
                              cells, spacing)


def reference_angular_factor(ap, omega):
    """The angular factor with the 3D taper rule written out on every row,
    every row in one pass, the rows that miss the cone included."""
    om = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    axis = np.asarray(ap.axis)
    if ap.dim == 2:
        out = two_call_factor_2d(ap, om)
    else:
        s = np.minimum(np.abs(om @ axis), 1.0)
        A = np.sqrt((1.0 - s) * (1.0 + s))
        inner = ap.half_angle - ap.taper_width
        arc = multiplier._arc_to(A, inner)
        if ap.taper_width > 0:
            psi_out = multiplier._arc_to(A, ap.half_angle)
            band = psi_out > arc
            lo, Ab = arc[band], A[band]
            mid, half = 0.5 * (psi_out[band] + lo), 0.5 * (psi_out[band] - lo)
            taper = np.zeros_like(Ab)
            for x, w in zip(multiplier._TAPER_NODES, multiplier._TAPER_WEIGHTS):
                angle = np.arccos(Ab * np.cos(mid + half * x))
                taper += w * 0.5 * (1.0 + np.cos(np.pi * (angle - inner) / ap.taper_width))
            arc[band] += half * taper
        out = 4.0 * np.pi * ap.amplitude * arc
    return out if np.asarray(omega).ndim > 1 else float(out[0])


def former_frequency_grid(cells, spacing):
    """The (..., dim) stack of half-spectrum angular frequencies from which
    the symbol table and the inversion took |xi| and the directions before
    they broadcast the 1-D axes."""
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=h)
            for n, h in zip(cells[:-1], spacing[:-1])]
    axes.append(2.0 * np.pi * np.fft.rfftfreq(cells[-1], d=spacing[-1]))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def summed_factor(distinct, dirs, factor=angular_factor):
    """The summed angular factor of (aperture, multiplicity) pairs on
    direction rows, one `factor` call per pair on every row."""
    total = np.zeros(len(dirs))
    for ap, count in distinct:
        total += count * factor(ap, dirs)
    return total


def former_symbol_table(apertures, cells, spacing, factor=angular_factor):
    """`total_symbol_table` by its former construction from
    `former_frequency_grid`: the directions as the stack over its norm, all
    rows in one `summed_factor` call."""
    dim = len(cells)
    xi = former_frequency_grid(cells, spacing)
    mag = np.sqrt(np.sum(xi * xi, axis=-1))
    flat_mag = mag.ravel()
    nz = flat_mag > 0
    dirs = xi.reshape(-1, dim)[nz] / flat_mag[nz][:, None]
    m = np.zeros(flat_mag.size)
    m[nz] = (summed_factor(excitation._distinct_apertures(apertures), dirs,
                           factor) / flat_mag[nz])
    return m.reshape(mag.shape)


def kernel_spectrum(conv):
    """The summed kernel half spectrum over the whole table, as the
    inversion formed it before it summed only the low-shell entries."""
    return (sum(c * S for c, S in zip(conv.counts, conv.spectra))
            * conv.grid.cell_volume)


# tilted axes with a z component, two half-angles, no taper and a full
# taper; one aperture twice and one about a negated axis
MIXED_3D = [Aperture(dim=3, axis=(0.3, 0.5, 0.81), half_angle=0.5, taper_width=0.0),
            Aperture(dim=3, axis=(-0.2, 0.7, -0.4), half_angle=0.3, taper_width=0.3),
            Aperture(dim=3, axis=(0.3, 0.5, 0.81), half_angle=0.5, taper_width=0.0),
            Aperture(dim=3, axis=(1.0, 0.0, 0.2), half_angle=0.3),
            Aperture(dim=3, axis=(0.2, -0.7, 0.4), half_angle=0.3, taper_width=0.3),
            Aperture(dim=3, axis=(0.0, 0.0, 1.0), half_angle=0.5, taper_width=0.5)]


# The 3D table's interpolant of the rule, against the rule, relative to
# the largest value: measured at most 3.7e-14 over half angles of 5-85
# degrees (at 5 degrees, where the rule's own rounding, which grows as
# 1/half_angle^2, is largest) and 1.0e-15 on the default tables
TABLE_RTOL_3D = 1e-13


class TestSymbolTableReference:
    """The gate's margin evaluates each aperture's 3D factor on the rows
    that meet the cone and keeps the bits of the per-row rule; the 3D
    table evaluates the rule's interpolant and keeps the rule's values to
    TABLE_RTOL_3D; the tables fill their directions block by block and keep
    the bits of the single direction array in 2D, and of one block in
    3D."""

    @pytest.mark.parametrize("aps", [build_apertures(DEFAULTS, 3), MIXED_3D],
                             ids=["defaults", "mixed"])
    def test_margin_is_bit_identical(self, aps, monkeypatch):
        rep = ellipticity_margin(aps)
        monkeypatch.setattr(multiplier, "angular_factor", reference_angular_factor)
        ref = ellipticity_margin(aps)
        assert ((rep.margin, rep.max_factor, rep.ratio, rep.worst_direction)
                == (ref.margin, ref.max_factor, ref.ratio, ref.worst_direction))
        assert np.array_equal(rep.invisible_directions, ref.invisible_directions)

    @pytest.mark.parametrize("aps,cells,spacing", [
        (build_apertures(DEFAULTS, 3), (48, 48, 48), (20.0 / 24,) * 3),
        (MIXED_3D, (20, 16, 13), (0.7, 0.9, 1.3))], ids=["defaults-48", "mixed"])
    def test_3d_table_keeps_the_per_row_rule(self, aps, cells, spacing):
        got = table(aps, cells, spacing)
        ref = former_symbol_table(aps, cells, spacing, reference_angular_factor)
        assert got.flat[0] == 0.0 and np.all(got >= 0.0)
        assert np.max(np.abs(got - ref)) <= TABLE_RTOL_3D * np.max(ref)

    @pytest.mark.parametrize("aps,cells,spacing,block", [
        (build_apertures(DEFAULTS, 2), (64, 48), (0.3, 0.45), None),
        (build_apertures(DEFAULTS, 2), (64, 48), (0.3, 0.45), 1000),
        (build_apertures(DEFAULTS, 3), (32, 32, 32), (20.0 / 16,) * 3, None),
        (MIXED_3D, (20, 16, 13), (0.7, 0.9, 1.3), None),
        (MIXED_3D, (20, 16, 13), (0.7, 0.9, 1.3), 1000)],
        ids=["defaults-2d", "defaults-2d-blocks", "defaults-3d", "mixed",
             "mixed-blocks"])
    def test_table_equals_former_construction(self, aps, cells, spacing, block,
                                              monkeypatch):
        if block is not None:
            monkeypatch.setattr(multiplier, "TABLE_BLOCK_ROWS", block)
            per_slab = np.prod(cells[1:-1], dtype=int) * (cells[-1] // 2 + 1)
            slabs = multiplier.TABLE_BLOCK_ROWS // per_slab
            # several blocks, the last one short
            assert 1 < slabs < cells[0] and cells[0] % slabs
        got = table(aps, cells, spacing)
        ref = former_symbol_table(aps, cells, spacing)
        if len(cells) == 2:
            assert got.tobytes() == ref.tobytes()
            return
        assert np.max(np.abs(got - ref)) <= TABLE_RTOL_3D * np.max(ref)
        # each row's value is its own: the blocks do not change a bit
        monkeypatch.setattr(multiplier, "TABLE_BLOCK_ROWS", np.prod(cells))
        assert got.tobytes() == table(aps, cells, spacing).tobytes()

    @pytest.mark.parametrize("cells,spacing", [
        ((64, 48), (0.3, 0.45)), ((20, 16, 13), (0.7, 0.9, 1.3))],
        ids=["2d", "3d"])
    def test_overflowing_amplitude_keeps_the_former_table(self, cells, spacing):
        # 4 pi amplitude overflows: rows that meet the cone are inf, and in
        # 3D the rows that miss it inf * 0 = nan, as the former table was
        axis = (1.0, 0.3, 0.2)[:len(cells)]
        huge = [Aperture(dim=len(cells), axis=axis, half_angle=0.5,
                         amplitude=1e308)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = table(huge, cells, spacing)
            ref = former_symbol_table(huge, cells, spacing)
        assert np.any(np.isinf(ref)) and (len(cells) == 2 or np.any(np.isnan(ref)))
        assert got.flat[0] == 0.0
        assert np.array_equal(got, ref, equal_nan=True)

    def test_table_working_set(self):
        # |xi|, the table and one block's work arrays: measured 2.1x the
        # table at 64^3 (5.2x with a table-length |omega . axis| and the
        # rule's work arrays on it, 9.6x with the (N, dim) direction array)
        aps = build_apertures(DEFAULTS, 3)
        cells, spacing = (128,) * 3, (20.0 / 64,) * 3
        got, peak = traced_peak(lambda: table(aps, cells, spacing))
        assert peak <= 2.5 * got.nbytes

    @pytest.mark.parametrize("taper", [None, 0.0, 0.5])
    @pytest.mark.parametrize("amplitude", [1.0, 3.7, 1e308])
    def test_2d_factor_equals_two_density_calls(self, taper, amplitude):
        # one `profile` call doubled against one call per perpendicular
        # direction: 20,003 rows, a fan over the circle, the rows whose
        # perpendiculars lie on the plateau and taper edges of either cone,
        # and non-finite rows; amplitude 1e308 overflows to inf
        ap = Aperture(dim=2, axis=unit(0.37), half_angle=0.6,
                      taper_width=taper, amplitude=amplitude)
        th = np.linspace(0.0, 2 * np.pi, 19_994, endpoint=False)
        edges = np.array([ap.half_angle, ap.half_angle - ap.taper_width])
        th = np.concatenate([th, 0.37 + np.pi / 2 + edges, 0.37 - np.pi / 2 - edges,
                             [0.37 + np.pi / 2, 0.37 - np.pi / 2]])
        om = np.concatenate([np.stack([np.cos(th), np.sin(th)], axis=1),
                             [[np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0]]])
        assert len(om) == 20_003
        with np.errstate(over="ignore", invalid="ignore"):
            got = multiplier._factor_2d(ap, om)
            ref = two_call_factor_2d(ap, om)
        assert got.tobytes() == ref.tobytes()
        assert amplitude < 1e308 or np.any(np.isinf(ref))

    def test_factor_on_edge_rows_is_bit_identical(self):
        # rows on and next to the axis (s = 1 and just below), rows whose
        # |omega . axis| rounds above 1, on the perpendicular great circle
        # (s = 0), at the plateau and taper edges, and repeated rows
        rng = np.random.default_rng(11)
        above_one = 0
        for ap in MIXED_3D:
            axis = np.asarray(ap.axis)
            s = np.concatenate([[1.0, 1.0 - 1e-16, 0.0, 1e-300],
                                np.cos([ap.half_angle - ap.taper_width,
                                        ap.half_angle]),
                                rng.uniform(0.0, 1.0, 40)])
            dirs = rotated_about(axis, s, rng.uniform(0.0, 2 * np.pi, s.size))
            near = axis + 1e-9 * rng.standard_normal((200, 3))
            near /= np.linalg.norm(near, axis=1, keepdims=True)
            above_one += np.count_nonzero(np.abs(near @ axis) > 1.0)
            dirs = np.concatenate([dirs, -dirs, dirs[:7], near])
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                got = angular_factor(ap, dirs)
            assert np.array_equal(got, reference_angular_factor(ap, dirs))
        assert above_one > 0
        # no row meets the cone; an amplitude whose 4 pi multiple overflows,
        # which makes the rows that miss the cone inf * 0 = nan
        ap = MIXED_3D[0]
        assert np.array_equal(angular_factor(ap, np.array([ap.axis])), [0.0])
        huge = Aperture(dim=3, axis=AXIS_3D, half_angle=0.5, amplitude=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            got = angular_factor(huge, dirs)
            ref = reference_angular_factor(huge, dirs)
        assert np.any(np.isnan(ref)) and np.any(np.isinf(ref))
        assert np.array_equal(got, ref, equal_nan=True)


def factor_rows(ap, n=3000):
    """Direction rows at every |omega . axis| = s that meets the 3D cone,
    dense next to its kinks: uniform s, s next to sin(inner) on either
    side, next to sin(half_angle) and next to 0, and rows that miss it."""
    rng = np.random.default_rng(3)
    edge = np.sin(ap.half_angle)
    kink = np.sin(ap.half_angle - ap.taper_width)
    near = np.geomspace(1e-13, 1e-2, 200)
    s = np.concatenate([rng.uniform(0.0, edge, n), kink * (1.0 - near),
                        kink * (1.0 + near), edge * (1.0 - near), near,
                        rng.uniform(edge, 1.0, 100), [0.0, kink, edge, 1.0]])
    s = s[s <= 1.0]
    return rotated_about(ap.axis, s, rng.uniform(0.0, 2.0 * np.pi, s.size))


def fitted_and_rule(ap, dirs):
    """The 3D table's factor (`_factor_3d` by the cone's `_fitted_arc`) and
    the rule's (`angular_factor`) on direction rows."""
    return (multiplier._factor_3d(ap, multiplier._fitted_arc(ap), dirs),
            angular_factor(ap, dirs))


class TestFittedFactor:
    """The 3D table's interpolant of the taper rule against the rule, over
    a grid of apertures."""

    @pytest.mark.parametrize("amplitude", [1.0, 1e-3])
    @pytest.mark.parametrize("frac", [0.0, 0.15, 0.5, 0.95, 1.0])
    @pytest.mark.parametrize("half_deg", [5.0, 19.2, 35.0, 50.0, 65.0, 85.0])
    def test_matches_the_rule(self, half_deg, frac, amplitude):
        half = np.deg2rad(half_deg)
        ap = Aperture(dim=3, axis=AXIS_3D, half_angle=half,
                      taper_width=frac * half, amplitude=amplitude)
        got, ref = fitted_and_rule(ap, factor_rows(ap))
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - ref)) <= TABLE_RTOL_3D * np.max(ref)

    @pytest.mark.parametrize("frac", [0.98, 0.999])
    @pytest.mark.parametrize("half_deg", [5.0, 45.0, 85.0])
    def test_within_the_rules_own_error_where_it_is_weak(self, half_deg, frac,
                                                        monkeypatch):
        # for taper fractions in (0.95, 1) the 32-point rule is 3e-11 to
        # 1.3e-9 of its maximum off a 400-point rule, whose values the
        # interpolant may miss by twice that
        half = np.deg2rad(half_deg)
        ap = Aperture(dim=3, axis=AXIS_3D, half_angle=half,
                      taper_width=frac * half)
        dirs = factor_rows(ap)
        got, ref = fitted_and_rule(ap, dirs)
        nodes, weights = multiplier._gauss_legendre(400)
        monkeypatch.setattr(multiplier, "_TAPER_NODES", nodes)
        monkeypatch.setattr(multiplier, "_TAPER_WEIGHTS", weights)
        fine = angular_factor(ap, dirs)
        assert np.max(np.abs(ref - fine)) > TABLE_RTOL_3D * np.max(fine)
        assert np.max(np.abs(got - fine)) <= 2.0 * np.max(np.abs(ref - fine))

    def test_a_tolerance_below_the_rules_rounding_stops_splitting(self,
                                                                 monkeypatch):
        # with no tolerance above 2 eps / half_angle^2, which at 85 degrees
        # is below the rule's rounding, pieces split until a level holds
        # more than FIT_MAX_PENDING of them, which are kept
        calls = []
        rule = multiplier._met_factor

        def counted(ap, s):
            calls.append(s.size)
            return rule(ap, s)

        monkeypatch.setattr(multiplier, "FIT_TOLERANCE", 0.0)
        monkeypatch.setattr(multiplier, "_met_factor", counted)
        ap = Aperture(dim=3, axis=AXIS_3D, half_angle=np.deg2rad(85.0))
        got, ref = fitted_and_rule(ap, factor_rows(ap))
        fits = calls[:-1]  # the last call is the rule's on the rows
        assert len(fits) < multiplier.FIT_MAX_DEPTH
        assert fits[-1] > multiplier.FIT_MAX_PENDING * multiplier._FIT_POINTS.size
        assert np.max(np.abs(got - ref)) <= TABLE_RTOL_3D * np.max(ref)

    @pytest.mark.parametrize("frac", [0.0, 0.15, 1.0])
    def test_overflowing_amplitude_keeps_the_rules_pattern(self, frac):
        # 4 pi amplitude overflows: inf on every row that meets the cone and
        # inf * 0 = nan on the others, as the rule gives wherever its arc is
        # positive; on rows within ~1e-13 of the edge of the cone its taper
        # rounds to 0 (nan), where the interpolant's stays positive
        huge = Aperture(dim=3, axis=AXIS_3D, half_angle=0.5,
                        taper_width=frac * 0.5, amplitude=1e308)
        dirs = factor_rows(huge)
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = fitted_and_rule(huge, dirs)
        meets = (multiplier._largest_cosine(dirs @ np.asarray(huge.axis))
                 > np.cos(huge.half_angle))
        assert np.all(np.isinf(got[meets])) and np.all(np.isnan(got[~meets]))
        positive = angular_factor(Aperture(dim=3, axis=AXIS_3D, half_angle=0.5,
                                           taper_width=frac * 0.5), dirs) > 0
        assert np.array_equal(got[positive], ref[positive])
        assert np.array_equal(got[~meets], ref[~meets], equal_nan=True)
        assert np.count_nonzero(meets & ~positive) < 200


TABLE_DIGESTS = """
import hashlib
from lumitomo import excitation
from lumitomo.config import DEFAULTS, build_apertures
from lumitomo.multiplier import total_symbol_table
for cells in ((256, 256), (48, 48, 48)):
    distinct = excitation._distinct_apertures(build_apertures(DEFAULTS, len(cells)))
    m = total_symbol_table(distinct, cells, (40.0 / cells[0],) * len(cells))
    print(hashlib.sha1(m.tobytes()).hexdigest())
"""


def test_tables_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long reduction over its threads, which moves its
    # last bits; the default cones' tables at 128^2 and 24^3, whose
    # directions meet the axes in matmuls, in a fresh process on one and
    # on two threads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(multiplier.__file__))
    digests = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, LUMITOMO_THREADS=threads)
        digests.append(subprocess.run(
            [sys.executable, "-c", TABLE_DIGESTS], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def reference_wrapped_kernel_spectrum(apertures, padded_cells, spacing,
                                      cell_volume):
    """The former low-shell spectrum: the summed kernel over offsets
    [-N/2, N/2) per axis, wrapped one-sidedly onto the N-cell grid, and the
    real part of its full FFT."""
    dim = len(padded_cells)
    table_cells = tuple(n // 2 + 1 for n in padded_cells)
    extent = tuple(h * c for h, c in zip(spacing, table_cells))
    kgrid = make_grid(dim, (0.0,) * dim, extent, table_cells)
    Ksum = sum(count * centered_table(cone_kernel(ap, kgrid))
               for ap, count in multiplier._distinct_apertures(apertures))
    Kc = np.zeros(padded_cells)
    idx = [np.arange(n) - n // 2 for n in padded_cells]
    src = np.ix_(*[i + c - 1 for i, c in zip(idx, table_cells)])
    dst = np.ix_(*[i % n for i, n in zip(idx, padded_cells)])
    Kc[dst] = Ksum[src]
    return np.fft.fftn(Kc).real * cell_volume


class TestLowShell:
    """The low shell now reads the scan's even kernel spectra, which leave
    out the far-edge offset -N/2 that the former one-sided wrap kept."""

    @pytest.mark.parametrize("dim,n,tol", [(2, 128, 0.01), (3, 24, 0.03)])
    def test_close_to_former_wrapped_spectrum(self, dim, n, tol):
        grid = make_grid(dim, (-10.0,) * dim, (20.0,) * dim, (n,) * dim)
        aps = build_apertures(DEFAULTS, dim)
        conv = ConeConvolution(aps, grid)
        new = conv.shell_sum() * grid.cell_volume
        old = reference_wrapped_kernel_spectrum(
            aps, conv.shape, grid.spacing,
            grid.cell_volume)[..., :n + 1][conv.shell_index]
        # relative to the shell's largest entry: entry by entry the rim of
        # the shell (|xi| = LOW_FREQ_BINS * xi_min), where the entries are
        # smallest, moves by up to 6% (2D) and 42% (3D)
        assert np.max(np.abs(new - old)) <= tol * np.max(np.abs(old))

    def test_half_spectrum_frequencies(self):
        axes = excitation._frequency_axes((8, 6), (0.5, 2.0))
        assert [a.shape for a in axes] == [(8, 1), (4,)]
        assert np.allclose(axes[0][:, 0], 2 * np.pi * np.fft.fftfreq(8, 0.5))
        assert np.allclose(axes[1], 2 * np.pi * np.fft.rfftfreq(6, 2.0))
        # the magnitudes keep the bits of the former (..., dim) stack's
        for cells, spacing in [((8, 6), (0.5, 2.0)), ((20, 16, 13), (0.7, 0.9, 1.3)),
                               ((48, 48, 48), (20.0 / 24,) * 3)]:
            xi = former_frequency_grid(cells, spacing)
            mag = excitation._frequency_magnitudes(cells, spacing)
            assert mag.tobytes() == np.sqrt(np.sum(xi * xi, axis=-1)).tobytes()


class TestVisibility:
    def test_single_cone_axis_invisible(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(30))
        assert angular_factor(ap, (1.0, 0.0)) == 0.0
        assert angular_factor(ap, (0.0, 1.0)) > 0.0

    @pytest.mark.parametrize("half_deg", [10.0, 30.0, 45.0, 60.0, 85.0])
    def test_2d_visible_iff_the_perpendicular_meets_the_cone(self, half_deg):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(half_deg))
        deg = np.arange(0.5, 180.0, 1.0)
        dirs = np.stack([np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))], 1)
        assert np.array_equal(angular_factor(ap, dirs) > 0,
                              np.abs(deg - 90.0) < half_deg)


class TestMargin:
    def test_single_narrow_cone_margin_zero(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(19.2))
        rep = ellipticity_margin([ap])
        assert rep.margin == 0.0
        assert rep.ratio == np.inf
        assert len(rep.invisible_directions) > 0

    def test_three_wide_cones_elliptic(self):
        rep = ellipticity_margin(fan_apertures(3, 35.0))
        assert rep.margin > 0
        assert rep.ratio >= 1.0
        assert len(rep.invisible_directions) == 0

    def test_single_3d_cone_margin_zero(self):
        ap = Aperture(dim=3, axis=(0, 0, 1), half_angle=np.deg2rad(19.2))
        assert ellipticity_margin([ap]).margin == 0.0

    def test_ten_coplanar_3d_cones_cover(self):
        aps = [Aperture(dim=3, axis=(np.cos(t), np.sin(t), 0.0),
                        half_angle=np.deg2rad(19.2))
               for t in np.deg2rad(np.arange(10) * 36.0)]
        assert ellipticity_margin(aps).margin > 0

    @staticmethod
    def _refused_without_warnings(axes):
        # an infinite summed factor would report margin inf, ratio nan; the
        # refusal comes with no overflow or invalid-value warning
        aps = [Aperture(dim=len(ax), axis=ax, half_angle=0.6, amplitude=1e308)
               for ax in axes]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="overflows"):
                ellipticity_margin(aps)

    def test_overflowing_amplitude_refused(self):
        self._refused_without_warnings(
            [(np.cos(t), np.sin(t)) for t in (0.0, 1.0, 2.0)])

    def test_overflowing_amplitude_refused_in_3d(self):
        self._refused_without_warnings([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def invert(scan, v, eps):
    """`invert_multiplier` with the cone operator of the scan's apertures
    on the grid of v."""
    return invert_multiplier(scan, v, ConeConvolution(scan.apertures, v.grid),
                             eps=eps)


class TestInversion:
    def _scan(self, grid, f, v, aps, focus_grid=None):
        fg = focus_grid if focus_grid is not None else grid
        return simulate_boundary_scan(f, v, ConeConvolution(aps, fg))

    def test_round_trip_extended_scan(self, grid128):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid128)
        v = constant_field(grid128, 1.0)
        scan = self._scan(grid128, f, v, aps, extended_grid(grid128))
        rec = invert(scan, v, 1e-3)
        assert rel_l2(rec.values, f.values) <= 0.05

    def test_round_trip_improves_with_refinement(self):
        errors = []
        for n in (64, 128, 256):
            g = make_grid(2, (-10, -10), (20, 20), (n, n))
            aps = fan_apertures(3, 35.0)
            f = two_bump_phantom(g)
            v = constant_field(g, 1.0)
            scan = self._scan(g, f, v, aps, extended_grid(g))
            rec = invert(scan, v, 1e-3)
            errors.append(rel_l2(rec.values, f.values))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    def test_zero_data_gives_zero(self, grid64):
        aps = fan_apertures(3, 35.0)
        v = constant_field(grid64, 1.0)
        scan = ConeScanData(grid64, [constant_field(grid64, 0.0) for _ in aps],
                            list(aps))
        rec = invert(scan, v, 1e-3)
        assert np.max(np.abs(rec.values)) <= 1e-14

    def test_scaling_linearity(self, grid64):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 1.0)
        scan = self._scan(grid64, f, v, aps)
        scaled = ConeScanData(grid64,
                              [ScalarField(grid64, 3.0 * s.values)
                               for s in scan.fields], list(aps))
        r1 = invert(scan, v, 1e-3)
        r3 = invert(scaled, v, 1e-3)
        assert np.allclose(r3.values, 3.0 * r1.values, rtol=1e-12, atol=1e-12)

    def test_forced_pseudo_inversion_recovers_visible_wedge(self, grid128):
        # single cone about e1: only frequencies near +-e2 are visible, so
        # the forced reconstruction's spectrum concentrates there
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(19.2))
        X = grid128.centers()
        r = np.hypot(X[..., 0] - 1.0, X[..., 1] + 1.0)
        f = ScalarField(grid128, (r <= 2.0).astype(float))
        v = constant_field(grid128, 1.0)
        scan = self._scan(grid128, f, v, [ap])
        rec = invert(scan, v, 1e-2)
        F = np.abs(np.fft.fftn(rec.values)) ** 2
        n = grid128.cells[0]
        kx = np.fft.fftfreq(n)[:, None]
        ky = np.fft.fftfreq(n)[None, :]
        ang = np.arctan2(np.abs(kx), np.abs(ky))  # 0 rad = xi along e2
        visible = F[ang <= np.deg2rad(19.2)].sum()
        invisible = F[ang >= np.deg2rad(70.8)].sum()
        assert visible > 5.0 * invisible

    @pytest.mark.parametrize("dim,n,bound", [(2, 128, 8.1), (3, 24, 6.5)])
    def test_working_set(self, dim, n, bound):
        # |xi| with the table and its work arrays, then the table as the
        # filter with the pad, multiply and crop: measured 7.4x (2D) and
        # 6.1x (3D) the table (13.6x and 9.8x with the (N, dim) direction
        # array, the full-table kernel sum and a separate filter)
        grid = make_grid(dim, (-10.0,) * dim, (20.0,) * dim, (n,) * dim)
        aps = build_apertures(DEFAULTS, dim)
        conv = ConeConvolution(aps, grid)
        rng = np.random.default_rng(3)
        scan = ConeScanData(grid, [ScalarField(grid, rng.random(grid.cells))
                                   for _ in aps], aps)
        v = ScalarField(grid, 0.5 + rng.random(grid.cells))
        _, peak = traced_peak(lambda: invert_multiplier(scan, v, conv))
        assert peak <= bound * conv.spectra[0].nbytes

    def test_grid_mismatch_rejected(self, grid64, grid128):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v64 = constant_field(grid64, 1.0)
        scan = self._scan(grid64, f, v64, aps)
        v128 = constant_field(grid128, 1.0)
        with pytest.raises(InvalidArgumentError):
            invert(scan, v128, 1e-3)


def reference_filter(conv, g, symbol, start):
    """The inversion's former FFT path: g zero-padded to the circular grid
    (or taken whole when it already has its shape), one full irfftn of its
    filtered spectrum, then the crop to n cells per axis from `start`."""
    pad = np.zeros(conv.shape)
    pad[tuple(slice(0, n) for n in g.shape)] = g
    crop = tuple(slice(k, k + n) for k, n in zip(start, conv.cells))
    return np.fft.irfftn(np.fft.rfftn(pad) * symbol, conv.shape,
                         tuple(range(len(conv.shape))))[crop]


def reference_invert(scan, v, eps, symbol_table=former_symbol_table):
    """`invert_multiplier` as it was before it filtered through
    `ConeConvolution.filter`: its own padding, full irfftn and crop, with
    the analytic symbol from `symbol_table`."""
    grid = v.grid
    conv = ConeConvolution(scan.apertures, grid)
    if scan.focus_grid == grid:
        start = (0,) * grid.dim
    else:
        start = excitation._nested_offset(grid, scan.focus_grid)
    m = symbol_table(scan.apertures, conv.shape, grid.spacing)
    xi = former_frequency_grid(conv.shape, grid.spacing)
    mag = np.sqrt(np.sum(xi * xi, axis=-1))
    xi_min = min(2.0 * np.pi / (n * h) for n, h in zip(conv.shape, grid.spacing))
    low = mag <= excitation.LOW_FREQ_BINS * xi_min * (1.0 + 1e-9)
    m[low] = kernel_spectrum(conv)[low]
    m_ref = float(np.median(m[m > 0]))
    denom = m ** 2 + (eps * m_ref) ** 2
    filt = np.divide(m, denom, out=np.zeros_like(m), where=denom > 0)
    rec = reference_filter(conv, scan.summed(), filt, start)
    v_floor = V_FLOOR_FRACTION * float(np.max(v.values))
    return rec / np.maximum(v.values, v_floor)


class TestFilterReference:
    """The inversion's pad, multiply and crop is `ConeConvolution.filter`,
    bit for bit the former padded irfftn and crop, in both scan layouts."""

    GRIDS = [make_grid(2, (-10.0, -10.0), (20.0, 20.0), (64, 64)),
             make_grid(2, (-6.0, -9.0), (12.0, 30.0), (24, 40)),
             make_grid(3, (-10.0,) * 3, (20.0,) * 3, (16, 16, 16)),
             make_grid(3, (-4.0, -5.0, -7.0), (9.6, 7.0, 16.8), (12, 10, 14))]
    IDS = ["2d-64", "2d-aniso", "3d-16", "3d-aniso"]

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_filter_equals_padded_irfftn(self, grid):
        aps = build_apertures(DEFAULTS, grid.dim)
        conv = ConeConvolution(aps, grid)
        rng = np.random.default_rng(grid.n_cells)
        symbol = rng.standard_normal(conv.spectra.shape[1:])
        g = rng.standard_normal(grid.cells)
        doubled = rng.standard_normal(conv.shape)
        start = tuple(n // 2 - 1 for n in grid.cells)
        assert np.array_equal(conv.filter(g, symbol),
                              reference_filter(conv, g, symbol, (0,) * grid.dim))
        assert np.array_equal(conv.filter(doubled, symbol, start),
                              reference_filter(conv, doubled, symbol, start))

    @pytest.mark.parametrize("doubled", [False, True], ids=["field", "doubled"])
    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_inversion_equals_former_path(self, grid, doubled):
        aps = build_apertures(DEFAULTS, grid.dim)
        fg = extended_grid(grid) if doubled else grid
        rng = np.random.default_rng(7)
        scan = ConeScanData(fg, [ScalarField(fg, rng.standard_normal(fg.cells))
                                 for _ in aps], aps)
        v = ScalarField(grid, 0.5 + rng.random(grid.cells))
        got = invert(scan, v, 1e-3).values
        ref = reference_invert(scan, v, 1e-3)
        if grid.dim == 2:
            assert np.array_equal(got, ref)
            return
        # the 3D table is the rule's interpolant (TABLE_RTOL_3D)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(got, reference_invert(scan, v, 1e-3, table))

    def test_zero_frequency_entry_is_zero(self):
        aps = build_apertures(DEFAULTS, 2)
        got = table(aps, (16, 12), (0.5, 0.7))
        assert got[0, 0] == 0.0
        assert np.all(np.delete(got.ravel(), 0) > 0.0)

    def test_empty_cone_set_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="at least one aperture"):
            total_symbol_table([], (16, 16), (0.5, 0.5))
