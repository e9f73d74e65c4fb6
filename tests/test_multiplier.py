"""Symbols, ellipticity, parametrix weights, and the explicit inversion."""

import warnings

import numpy as np
import pytest

from lumitomo import excitation, multiplier
from lumitomo.config import DEFAULTS, build_apertures
from lumitomo.diffusion import V_FLOOR_FRACTION
from lumitomo.errors import (InvalidArgumentError, StabilityViolationError,
                             UndefinedDirectionError)
from lumitomo.excitation import (Aperture, ConeConvolution, ConeScanData,
                                 cone_kernel, cone_transform)
from lumitomo.fields import ScalarField, make_grid
from lumitomo.multiplier import (angular_factor, ellipticity_margin,
                                 invert_multiplier, multiplier_symbol,
                                 parametrix_weights, roi_reconstruct,
                                 total_symbol_table, visible_direction)

from conftest import (centered_table, extended_grid, fan_apertures, rel_l2,
                      two_bump_phantom)


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
        v = ScalarField.full(grid, 1.0)
        scan = ConeScanData(grid, cone_transform(f, v, aps), aps)
        padded = tuple(2 * c for c in grid.cells)

        def outputs():
            return (total_symbol_table(aps, padded, grid.spacing),
                    invert_multiplier(scan, v, eps=1e-3, check_margin=False).values,
                    ellipticity_margin(aps).margin)

        table, rec, margin = outputs()
        monkeypatch.setattr(multiplier, "_distinct_apertures",
                            lambda apertures: [(ap, 1) for ap in apertures])
        loop_table, loop_rec, loop_margin = outputs()
        assert np.max(np.abs(table - loop_table)) <= 1e-13 * np.max(np.abs(loop_table))
        assert np.max(np.abs(rec - loop_rec)) <= 1e-13 * np.max(np.abs(loop_rec))
        assert abs(margin - loop_margin) <= 1e-13 * abs(loop_margin) + 1e-300


def reference_angular_factor(ap, omega):
    """The angular factor with the 3D taper rule run on every row, as it was
    before it was evaluated once per distinct |omega . axis|."""
    om = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    axis = np.asarray(ap.axis)
    if ap.dim == 2:
        perp = np.stack([-om[:, 1], om[:, 0]], axis=1)
        c = perp @ axis
        out = np.pi * (ap.profile(c) + ap.profile(-c))
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


def reference_summed_factor(distinct, dirs):
    """The summed factor with one `reference_angular_factor` call per
    distinct aperture on every row."""
    total = np.zeros(len(dirs))
    for ap, count in distinct:
        total += count * reference_angular_factor(ap, dirs)
    return total


# tilted axes with a z component, two half-angles, no taper and a full
# taper; one aperture twice and one about a negated axis
MIXED_3D = [Aperture(dim=3, axis=(0.3, 0.5, 0.81), half_angle=0.5, taper_width=0.0),
            Aperture(dim=3, axis=(-0.2, 0.7, -0.4), half_angle=0.3, taper_width=0.3),
            Aperture(dim=3, axis=(0.3, 0.5, 0.81), half_angle=0.5, taper_width=0.0),
            Aperture(dim=3, axis=(1.0, 0.0, 0.2), half_angle=0.3),
            Aperture(dim=3, axis=(0.2, -0.7, 0.4), half_angle=0.3, taper_width=0.3),
            Aperture(dim=3, axis=(0.0, 0.0, 1.0), half_angle=0.5, taper_width=0.5)]


class TestSymbolTableReference:
    """The 3D tables evaluate each aperture's factor once per distinct
    |omega . axis| and keep the bits of the per-row rule."""

    @pytest.mark.parametrize("aps,cells,spacing", [
        (build_apertures(DEFAULTS, 3), (48, 48, 48), (20.0 / 24,) * 3),
        (MIXED_3D, (20, 16, 13), (0.7, 0.9, 1.3))], ids=["defaults-48", "mixed"])
    def test_table_and_margin_are_bit_identical(self, aps, cells, spacing,
                                                monkeypatch):
        table = total_symbol_table(aps, cells, spacing)
        rep = ellipticity_margin(aps)
        monkeypatch.setattr(multiplier, "angular_factor", reference_angular_factor)
        monkeypatch.setattr(multiplier, "_summed_factor", reference_summed_factor)
        assert np.array_equal(table, total_symbol_table(aps, cells, spacing))
        ref = ellipticity_margin(aps)
        assert ((rep.margin, rep.max_factor, rep.ratio, rep.worst_direction)
                == (ref.margin, ref.max_factor, ref.ratio, ref.worst_direction))
        assert np.array_equal(rep.invisible_directions, ref.invisible_directions)

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
            distinct = [(ap, 3)]
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                got = multiplier._summed_factor(distinct, dirs)
            assert np.array_equal(got, reference_summed_factor(distinct, dirs))
            assert np.array_equal(angular_factor(ap, dirs),
                                  reference_angular_factor(ap, dirs))
        assert above_one > 0
        # no row meets the cone; an amplitude whose 4 pi multiple overflows,
        # which makes the rows that miss the cone inf * 0 = nan
        ap = MIXED_3D[0]
        assert np.array_equal(
            multiplier._summed_factor([(ap, 2)], np.array([ap.axis])), [0.0])
        huge = [(Aperture(dim=3, axis=AXIS_3D, half_angle=0.5, amplitude=1e308), 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = multiplier._summed_factor(huge, dirs)
            ref = reference_summed_factor(huge, dirs)
        assert np.any(np.isnan(ref)) and np.any(np.isinf(ref))
        assert np.array_equal(got, ref, equal_nan=True)


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
        padded = tuple(2 * c for c in grid.cells)
        xi = multiplier._frequency_grid(padded, grid.spacing)
        mag = np.sqrt(np.sum(xi * xi, axis=-1))
        xi_min = min(2.0 * np.pi / (c * h) for c, h in zip(padded, grid.spacing))
        low = mag <= multiplier.LOW_FREQ_BINS * xi_min * (1.0 + 1e-9)
        new = multiplier._kernel_spectrum(ConeConvolution(aps, grid))[low]
        old = reference_wrapped_kernel_spectrum(
            aps, padded, grid.spacing, grid.cell_volume)[..., :n + 1][low]
        # relative to the shell's largest entry: entry by entry the rim of
        # the shell (|xi| = LOW_FREQ_BINS * xi_min), where the entries are
        # smallest, moves by up to 6% (2D) and 42% (3D)
        assert np.max(np.abs(new - old)) <= tol * np.max(np.abs(old))

    def test_half_spectrum_frequencies(self):
        xi = multiplier._frequency_grid((8, 6), (0.5, 2.0))
        assert xi.shape == (8, 4, 2)
        assert np.allclose(xi[:, 0, 0], 2 * np.pi * np.fft.fftfreq(8, 0.5))
        assert np.allclose(xi[0, :, 1], 2 * np.pi * np.fft.rfftfreq(6, 2.0))


class TestVisibility:
    def test_single_cone_axis_invisible(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(30))
        assert not visible_direction([ap], (1.0, 0.0))
        assert visible_direction([ap], (0.0, 1.0))

    def test_non_unit_rejected(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.5)
        with pytest.raises(InvalidArgumentError):
            visible_direction([ap], (2.0, 0.0))


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


class TestParametrix:
    def test_identity_on_visible_directions(self):
        aps = fan_apertures(3, 35.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            xi = rng.standard_normal(2)
            q = parametrix_weights(aps, xi)
            r = np.array([multiplier_symbol(ap, xi) for ap in aps])
            assert float(q @ r) == pytest.approx(1.0, rel=1e-12)

    def test_single_cone_reciprocal(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.5)
        q = parametrix_weights([ap], (0.0, 1.0))
        assert q[0] == pytest.approx(1.0 / multiplier_symbol(ap, (0.0, 1.0)))

    def test_invisible_direction_raises(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(10))
        with pytest.raises(UndefinedDirectionError):
            parametrix_weights([ap], (1.0, 0.0))


class TestInversion:
    def _scan(self, grid, f, v, aps, focus_grid=None):
        fg = focus_grid if focus_grid is not None else grid
        return ConeScanData(fg, [cone_transform(f, v, ap, fg) for ap in aps],
                            list(aps))

    def test_round_trip_extended_scan(self, grid128):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid128)
        v = ScalarField.full(grid128, 1.0)
        scan = self._scan(grid128, f, v, aps, extended_grid(grid128))
        rec = invert_multiplier(scan, v, eps=1e-3)
        assert rel_l2(rec.values, f.values) <= 0.05

    def test_round_trip_improves_with_refinement(self):
        errors = []
        for n in (64, 128, 256):
            g = make_grid(2, (-10, -10), (20, 20), (n, n))
            aps = fan_apertures(3, 35.0)
            f = two_bump_phantom(g)
            v = ScalarField.full(g, 1.0)
            scan = self._scan(g, f, v, aps, extended_grid(g))
            rec = invert_multiplier(scan, v, eps=1e-3)
            errors.append(rel_l2(rec.values, f.values))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    def test_zero_data_gives_zero(self, grid64):
        aps = fan_apertures(3, 35.0)
        v = ScalarField.full(grid64, 1.0)
        scan = ConeScanData(grid64, [ScalarField.zeros(grid64) for _ in aps],
                            list(aps))
        rec = invert_multiplier(scan, v, eps=1e-3)
        assert np.max(np.abs(rec.values)) <= 1e-14

    def test_scaling_linearity(self, grid64):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 1.0)
        scan = self._scan(grid64, f, v, aps)
        scaled = ConeScanData(grid64,
                              [ScalarField(grid64, 3.0 * s.values)
                               for s in scan.fields], list(aps))
        r1 = invert_multiplier(scan, v, eps=1e-3)
        r3 = invert_multiplier(scaled, v, eps=1e-3)
        assert np.allclose(r3.values, 3.0 * r1.values, rtol=1e-12, atol=1e-12)

    def test_margin_zero_refused(self, grid64):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(19.2))
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 1.0)
        scan = self._scan(grid64, f, v, [ap])
        with pytest.raises(StabilityViolationError):
            invert_multiplier(scan, v, eps=1e-2)

    def test_forced_pseudo_inversion_recovers_visible_wedge(self, grid128):
        # single cone about e1: only frequencies near +-e2 are visible, so
        # the forced reconstruction's spectrum concentrates there
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(19.2))
        X = grid128.centers()
        r = np.hypot(X[..., 0] - 1.0, X[..., 1] + 1.0)
        f = ScalarField(grid128, (r <= 2.0).astype(float))
        v = ScalarField.full(grid128, 1.0)
        scan = self._scan(grid128, f, v, [ap])
        rec = invert_multiplier(scan, v, eps=1e-2, check_margin=False)
        F = np.abs(np.fft.fftn(rec.values)) ** 2
        n = grid128.cells[0]
        kx = np.fft.fftfreq(n)[:, None]
        ky = np.fft.fftfreq(n)[None, :]
        ang = np.arctan2(np.abs(kx), np.abs(ky))  # 0 rad = xi along e2
        visible = F[ang <= np.deg2rad(19.2)].sum()
        invisible = F[ang >= np.deg2rad(70.8)].sum()
        assert visible > 5.0 * invisible

    def test_grid_mismatch_rejected(self, grid64, grid128):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v64 = ScalarField.full(grid64, 1.0)
        scan = self._scan(grid64, f, v64, aps)
        v128 = ScalarField.full(grid128, 1.0)
        with pytest.raises(InvalidArgumentError):
            invert_multiplier(scan, v128, eps=1e-3)


def reference_filter(conv, g, symbol, start):
    """The inversion's former FFT path: g zero-padded to the circular grid
    (or taken whole when it already has its shape), one full irfftn of its
    filtered spectrum, then the crop to n cells per axis from `start`."""
    pad = np.zeros(conv.shape)
    pad[tuple(slice(0, n) for n in g.shape)] = g
    crop = tuple(slice(k, k + n) for k, n in zip(start, conv.cells))
    return np.fft.irfftn(np.fft.rfftn(pad) * symbol, conv.shape,
                         tuple(range(len(conv.shape))))[crop]


def reference_invert(scan, v, eps):
    """`invert_multiplier` as it was before it filtered through
    `ConeConvolution.filter`: its own padding, full irfftn and crop."""
    grid = v.grid
    conv = ConeConvolution(scan.apertures, grid)
    if scan.focus_grid == grid:
        start = (0,) * grid.dim
    else:
        start = excitation._nested_offset(grid, scan.focus_grid)
    m = total_symbol_table(scan.apertures, conv.shape, grid.spacing)
    xi = multiplier._frequency_grid(conv.shape, grid.spacing)
    mag = np.sqrt(np.sum(xi * xi, axis=-1))
    xi_min = min(2.0 * np.pi / (n * h) for n, h in zip(conv.shape, grid.spacing))
    low = mag <= multiplier.LOW_FREQ_BINS * xi_min * (1.0 + 1e-9)
    m[low] = multiplier._kernel_spectrum(conv)[low]
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
        assert np.array_equal(invert_multiplier(scan, v, eps=1e-3).values,
                              reference_invert(scan, v, 1e-3))

    def test_zero_frequency_entry_is_zero(self):
        aps = build_apertures(DEFAULTS, 2)
        table = total_symbol_table(aps, (16, 12), (0.5, 0.7))
        assert table[0, 0] == 0.0
        assert np.all(np.delete(table.ravel(), 0) > 0.0)

    def test_empty_cone_set_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="at least one aperture"):
            total_symbol_table([], (16, 16), (0.5, 0.5))


class TestRoiReconstruct:
    def _setup(self, grid):
        aps = fan_apertures(3, 35.0)
        X = grid.centers()
        r = np.hypot(X[..., 0] - 1.0, X[..., 1] + 1.0)
        f = ScalarField(grid, (r <= 2.0).astype(float))
        v = ScalarField.full(grid, 1.0)
        scan = ConeScanData(grid, [cone_transform(f, v, ap) for ap in aps],
                            list(aps))
        return aps, f, v, scan

    def test_edges_recovered_inside_mask(self, grid128):
        aps, f, v, scan = self._setup(grid128)
        rr = roi_reconstruct(scan, v, 1e-3, ((24, 104), (24, 104)))
        full = invert_multiplier(scan, v, 1e-3)
        gr = np.hypot(*np.gradient(rr.field.values))
        gf = np.hypot(*np.gradient(full.values))
        corr = np.corrcoef(gr[rr.mask], gf[rr.mask])[0, 1]
        assert corr > 0.9

    def test_empty_roi_near_constant(self, grid128):
        aps, f, v, scan = self._setup(grid128)
        rr = roi_reconstruct(scan, v, 1e-3, ((92, 126), (92, 126)))
        vals = rr.field.values[rr.mask]
        assert np.std(vals) <= 0.1 * np.max(f.values)

    def test_roi_touching_edge_rejected(self, grid128):
        aps, f, v, scan = self._setup(grid128)
        with pytest.raises(InvalidArgumentError):
            roi_reconstruct(scan, v, 1e-3, ((0, 60), (20, 80)))
        with pytest.raises(InvalidArgumentError):
            roi_reconstruct(scan, v, 1e-3, ((20, 30), (20, 80)))
