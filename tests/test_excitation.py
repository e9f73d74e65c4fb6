"""Apertures, cone/X-ray transforms, and boundary-scan simulation."""

import math
import warnings

import numpy as np
import pytest

from lumitomo.diffusion import (BoundaryField, assemble_operator,
                                boundary_flux, boundary_functional,
                                solve_adjoint_weight, solve_forward)
from lumitomo import excitation, pipeline
from lumitomo.algebraic import (lsqr, parametrix_preconditioner,
                                scan_linear_map)
from lumitomo.config import DEFAULTS, Settings, build_apertures
from lumitomo.errors import InvalidArgumentError
from lumitomo.excitation import (Aperture, ConeConvolution, ConeScanData,
                                 Sinogram, cone_kernel, cone_transform,
                                 full_physics_measurements,
                                 simulate_boundary_scan, xray_transform)
from lumitomo.fields import Grid, ScalarField, build_phantom, make_grid
from lumitomo.multiplier import invert_multiplier

from conftest import (cell_index, centered_table, constant_field,
                      extended_grid, fan_apertures, reference_cg, same_bits,
                      stacked_rows, traced_peak, two_bump_phantom)
from oracles import (cone_intensity, half_sampled_cone_kernel, kernel_shell,
                     loop_aperture_groups, low_shell, per_focus_measurements,
                     stacked_forward, stacked_linear_map,
                     tensordot_precondition)


def unit(theta):
    return (np.cos(theta), np.sin(theta))


class TestAperture:
    def test_axis_is_normalized(self):
        ap = Aperture(dim=2, axis=(3.0, 4.0), half_angle=0.4)
        assert np.hypot(*ap.axis) == pytest.approx(1.0)

    def test_default_taper_width(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.5)
        assert ap.taper_width == pytest.approx(0.075)

    def test_profile_on_axis_and_perpendicular(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(30), amplitude=2.0)
        assert ap.profile(1.0) == pytest.approx(2.0)
        assert ap.profile(-1.0) == pytest.approx(2.0)  # even
        assert ap.profile(0.0) == 0.0

    def test_evenness_random_directions(self):
        ap = Aperture(dim=2, axis=unit(0.7), half_angle=0.5)
        rng = np.random.default_rng(0)
        for th in rng.uniform(0, 2 * np.pi, 20):
            d = np.array(unit(th))
            assert ap.profile(d @ ap.axis) == pytest.approx(
                ap.profile(-d @ ap.axis))

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            Aperture(dim=2, axis=(0.0, 0.0), half_angle=0.4)
        with pytest.raises(InvalidArgumentError):
            Aperture(dim=2, axis=(1, 0), half_angle=2.0)


class TestConeIntensity:
    def test_on_axis_decay(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.4, amplitude=1.5)
        v1 = cone_intensity(ap, (0.0, 0.0), (-2.0, 0.0))
        v2 = cone_intensity(ap, (0.0, 0.0), (-4.0, 0.0))
        assert v1 == pytest.approx(1.5 / 2.0)
        assert v1 / v2 == pytest.approx(2.0)  # 1/r in 2D

    def test_outside_cone_zero(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.3)
        assert cone_intensity(ap, (0.0, 0.0), (0.0, 3.0)) == 0.0

    def test_singular_at_focus(self):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.3)
        with pytest.raises(InvalidArgumentError):
            cone_intensity(ap, (1.0, 1.0), (1.0, 1.0))


class TestConeTransform:
    def test_impulse_far_field(self, grid128):
        # single-cell mass seen from a distant focus is kernel * mass
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(25))
        vals = np.zeros(grid128.cells)
        src_idx = cell_index(grid128, (-5.0, 0.0))
        vals[src_idx] = 1.0
        f = ScalarField(grid128, vals)
        v = constant_field(grid128, 1.0)
        (out,) = cone_transform(f, v, ConeConvolution([ap], grid128))
        focus = (5.0, 0.3)
        expected = cone_intensity(ap, focus, (-5.0, 0.0)) * grid128.cell_volume
        got = out.values[cell_index(grid128, focus)]
        assert got == pytest.approx(expected, rel=1e-2)

    def test_zero_field(self, grid128):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.4)
        (out,) = cone_transform(constant_field(grid128, 0.0),
                                constant_field(grid128, 1.0),
                                ConeConvolution([ap], grid128))
        assert np.all(out.values == 0)

    def test_linearity_in_f_and_v(self, grid64):
        ap = Aperture(dim=2, axis=unit(1.1), half_angle=0.5)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 1.0)
        conv = ConeConvolution([ap], grid64)
        base = cone_transform(f, v, conv)[0].values
        doubled_f = cone_transform(ScalarField(grid64, 2 * f.values), v,
                                   conv)[0].values
        scaled_v = cone_transform(f, constant_field(grid64, 3.0),
                                  conv)[0].values
        assert np.allclose(doubled_f, 2 * base)
        assert np.allclose(scaled_v, 3 * base)

    def test_full_aperture_radial_center_value(self):
        # a = 1 everywhere: at the center of a radial f the transform equals
        # 2 pi * integral of f(r) dr (radial quadrature oracle)
        n = 256
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        # an axis at an irrational angle keeps every lattice offset strictly
        # inside the (almost) half-plane cones
        ap = Aperture(dim=2, axis=unit(0.37), half_angle=np.pi / 2 - 1e-9,
                      taper_width=0.0)
        X = g.centers()
        f = ScalarField(g, np.exp(-(X[..., 0] ** 2 + X[..., 1] ** 2) / 2.0))
        v = constant_field(g, 1.0)
        (out,) = cone_transform(f, v, ConeConvolution([ap], g))
        r = np.linspace(0, 10, 20001)
        oracle = 2 * np.pi * np.trapezoid(np.exp(-r ** 2 / 2), r)
        center = out.values[cell_index(g, (0.0, 0.0))]
        assert center == pytest.approx(oracle, rel=2e-2)

    def test_fft_path_matches_direct_loop(self, grid64):
        # same grid: FFT convolution equals the explicit quadrature loop
        ap = Aperture(dim=2, axis=unit(0.4), half_angle=0.5)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 1.0)
        fast = cone_transform(f, v, ConeConvolution([ap], grid64))[0].values
        K = centered_table(cone_kernel(ap, grid64))
        g = f.values * grid64.cell_volume
        c = tuple(n - 1 for n in grid64.cells)
        direct = np.zeros_like(fast)
        idx = np.indices(grid64.cells).reshape(2, -1).T
        for i, j in [(5, 9), (32, 32), (60, 12)]:
            off = K[c[0] + i - idx[:, 0], c[1] + j - idx[:, 1]]
            direct[i, j] = np.dot(off, g.ravel())
        for i, j in [(5, 9), (32, 32), (60, 12)]:
            assert fast[i, j] == pytest.approx(direct[i, j], rel=1e-12)

    def test_extended_focus_grid_agrees_with_direct(self, grid64):
        # nested focus grid: the embedded FFT path equals per-focus quadrature
        ap = Aperture(dim=2, axis=unit(0.4), half_angle=0.5)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 1.0)
        big = extended_grid(grid64)
        (out,) = cone_transform(f, v, ConeConvolution([ap], big))
        assert out.grid == big
        # compare a few foci against the direct sum
        centers = grid64.centers().reshape(-1, 2)
        g = (f.values * grid64.cell_volume).ravel()
        # exterior foci, where no self-cell correction enters
        for p in [(-15.0, 2.0), (12.0, -14.0)]:
            idx = cell_index(big, p)
            pc = big.centers()[idx]
            d = pc[None, :] - centers
            r = np.hypot(d[:, 0], d[:, 1])
            vals = ap.profile((d @ np.asarray(ap.axis)) / r) / r
            expected = float(np.dot(vals, g))
            got = out.values[idx]
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


def _pow2_shape(cells):
    return [int(2 ** np.ceil(np.log2(3 * n - 2))) for n in cells]


def pow2_forward(g, K):
    """Reference: linear convolution of g with the (2n-1)-wide kernel table,
    FFT-padded to the next power of two of 3n-2 per axis and cropped to the
    central block (the cone transform's FFT path before ConeConvolution)."""
    fshape, axes = _pow2_shape(g.shape), tuple(range(g.ndim))
    full = np.fft.irfftn(np.fft.rfftn(g, fshape, axes=axes)
                         * np.fft.rfftn(K, fshape, axes=axes), fshape, axes=axes)
    return full[tuple(slice(n - 1, 2 * n - 1) for n in g.shape)]


def pow2_adjoint(y, K):
    """Reference transpose of pow2_forward (the former LSQR adjoint)."""
    fshape, axes = _pow2_shape(y.shape), tuple(range(y.ndim))
    pad = np.zeros(fshape)
    pad[tuple(slice(n - 1, 2 * n - 1) for n in y.shape)] = y
    full = np.fft.irfftn(np.fft.rfftn(pad, axes=axes)
                         * np.conj(np.fft.rfftn(K, fshape, axes=axes)),
                         fshape, axes=axes)
    return full[tuple(slice(0, n) for n in y.shape)]


def rel_max(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


def apertures_3d():
    return [Aperture(dim=3, axis=ax, half_angle=0.5)
            for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]


class TestConeConvolution:
    @pytest.mark.parametrize("grid,aps", [
        # non-square, unequal spacing
        (make_grid(2, (-10, -6), (20, 12), (48, 64)), fan_apertures(3, 35.0)),
        (make_grid(3, (-8, -8, -8), (16, 16, 16), (16, 16, 16)),
         apertures_3d()),
    ], ids=["2d-48x64", "3d-16"])
    def test_matches_pow2_reference(self, grid, aps):
        rng = np.random.default_rng(11)
        g = rng.standard_normal(grid.cells)
        y = rng.standard_normal((len(aps),) + grid.cells)
        conv = ConeConvolution(aps, grid)
        kernels = [centered_table(cone_kernel(ap, grid)) for ap in aps]
        fwd = stacked_rows(conv, g)
        for j, K in enumerate(kernels):
            assert rel_max(fwd[j], pow2_forward(g, K)) <= 1e-12
        ref = sum(pow2_adjoint(yj, K) for yj, K in zip(y, kernels))
        assert rel_max(conv.adjoint(y), ref) <= 1e-12

    def test_nested_focus_grid_matches_pow2_reference(self, grid64):
        aps = fan_apertures(3, 35.0)
        big = extended_grid(grid64)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 0.5)
        g = np.zeros(big.cells)
        g[32:96, 32:96] = f.values * (0.5 * grid64.cell_volume)
        kernels = [centered_table(cone_kernel(ap, big)) for ap in aps]
        for out, K in zip(cone_transform(f, v, ConeConvolution(aps, big)),
                          kernels, strict=True):
            assert out.grid == big
            assert rel_max(out.values, pow2_forward(g, K)) <= 1e-12
        y = np.random.default_rng(12).standard_normal((len(aps),) + big.cells)
        ref = sum(pow2_adjoint(yj, K) for yj, K in zip(y, kernels))
        assert rel_max(ConeConvolution(aps, big).adjoint(y), ref) <= 1e-12

    def test_aperture_list_matches_single_apertures(self, grid64):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 1.0)
        fields = cone_transform(f, v, ConeConvolution(aps, grid64))
        assert len(fields) == 3
        for fld, ap in zip(fields, aps):
            (single,) = cone_transform(f, v, ConeConvolution([ap], grid64))
            assert np.array_equal(fld.values, single.values)

    def test_empty_cone_set_is_refused(self, grid64):
        with pytest.raises(InvalidArgumentError, match="at least one aperture"):
            ConeConvolution([], grid64)

    @pytest.mark.parametrize("grid,aps", [
        (make_grid(2, (-10, -10), (20, 20), (16, 16)), apertures_3d()),
        (make_grid(3, (-8, -8, -8), (16, 16, 16), (8, 8, 8)),
         fan_apertures(3, 35.0)),
    ], ids=["3d-cones-on-2d-grid", "2d-cones-on-3d-grid"])
    def test_apertures_of_another_dimension_are_refused(self, grid, aps):
        with pytest.raises(InvalidArgumentError,
                           match=f"must be {grid.dim}D to match the grid"):
            ConeConvolution(aps, grid)
        # one stray aperture in an otherwise matching set is refused too
        with pytest.raises(InvalidArgumentError, match="to match the grid"):
            ConeConvolution([Aperture(dim=grid.dim, axis=(1,) + (0,) * (
                grid.dim - 1), half_angle=0.5), aps[0]], grid)

    def test_operator_of_other_cones_or_grid_is_refused(self, grid64):
        # the cone operator carries the cone set and its grid; only the
        # inversion also takes the scan's cones, which must be the same
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 1.0)
        scan = simulate_boundary_scan(f, v, ConeConvolution(aps, grid64))
        coarse = ConeConvolution(aps, make_grid(2, grid64.origin,
                                                grid64.extent, (32, 32)))
        # the field grid's spacing, but its cells between the focus points
        shifted = ConeConvolution(aps, make_grid(
            2, tuple(o + 0.3 for o in grid64.origin), grid64.extent,
            grid64.cells))
        for conv in (coarse, shifted):
            with pytest.raises(InvalidArgumentError, match="aligned block"):
                cone_transform(f, v, conv)
        with pytest.raises(InvalidArgumentError):
            scan_linear_map(coarse, v)
        for conv in (ConeConvolution(aps[:2], grid64), coarse):
            with pytest.raises(InvalidArgumentError):
                invert_multiplier(scan, v, conv)


class PerConeConvolution:
    """Reference: `ConeConvolution` as it was before apertures that are the
    same double cone shared one spectrum; one kernel, spectrum and FFT per
    cone."""

    def __init__(self, apertures, grid):
        self.grid = grid
        self.cells = tuple(grid.cells)
        self.shape = tuple(2 * n for n in self.cells)
        self.axes = tuple(range(grid.dim))
        self.group = np.arange(len(apertures))
        self.spectra = np.stack([np.fft.rfftn(cone_kernel(ap, grid)).real
                                 for ap in apertures])

    def _inverse(self, X):
        for i, n in enumerate(self.cells[:-1]):
            X = np.fft.ifft(X, axis=i)[(slice(None),) * i + (slice(0, n),)]
        return np.fft.irfft(X, self.shape[-1], axis=-1)[..., :self.cells[-1]]

    def forward(self, g):
        return np.stack(list(self.rows(g)))

    def rows(self, g):
        G = np.fft.rfftn(g, self.shape, axes=self.axes)
        for S in self.spectra:
            yield self._inverse(G * S)

    def adjoint(self, y):
        acc = np.zeros(self.spectra.shape[1:], dtype=complex)
        for yj, S in zip(y, self.spectra):
            acc += np.fft.rfftn(yj, self.shape, axes=self.axes) * S
        return self._inverse(acc)


def paired_fan_2d():
    """Four 2D cones, two of them the double cones of the other two."""
    return [Aperture(dim=2, axis=unit(np.deg2rad(deg)), half_angle=0.5)
            for deg in (0.0, 70.0, 180.0, 250.0)]


def paired_axes_3d():
    return [Aperture(dim=3, axis=ax, half_angle=0.5)
            for ax in ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 1),
                       (0, -1, 0), (-1, -1, -1))]


DUPLICATED = [
    # non-square, unequal spacing
    (make_grid(2, (-10, -6), (20, 12), (48, 64)), paired_fan_2d(), 2),
    (make_grid(3, (-8, -8, -8), (16, 16, 16), (16, 16, 16)),
     paired_axes_3d(), 3),
]


class TestDistinctCones:
    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_matches_per_cone_reference(self, grid, aps, n_distinct):
        rng = np.random.default_rng(21)
        g = rng.standard_normal(grid.cells)
        y = rng.standard_normal((len(aps),) + grid.cells)
        conv, ref = ConeConvolution(aps, grid), PerConeConvolution(aps, grid)
        assert conv.spectra.shape[0] == n_distinct
        fwd = stacked_rows(conv, g)
        # one row per distinct cone, which each of its apertures reads
        assert fwd.shape == (n_distinct,) + grid.cells
        assert rel_max(fwd[conv.group], ref.forward(g)) <= 1e-12
        # the per-cone adjoint of y is the adjoint of each cone's sum of y
        summed = np.stack([y[conv.group == i].sum(axis=0)
                           for i in range(n_distinct)])
        assert rel_max(conv.adjoint(summed), ref.adjoint(y)) <= 1e-12

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_adjoint_weights_scale_the_rows(self, grid, aps, n_distinct):
        rng = np.random.default_rng(27)
        y = rng.standard_normal((n_distinct,) + grid.cells)
        weights = 0.5 + rng.random(n_distinct)
        scale = weights.reshape((-1,) + (1,) * grid.dim)
        conv = ConeConvolution(aps, grid)
        assert np.array_equal(conv.adjoint(y, weights), conv.adjoint(y * scale))

    def test_bit_identical_without_duplicates(self, grid64):
        aps = fan_apertures(3, 35.0)
        rng = np.random.default_rng(22)
        g = rng.standard_normal(grid64.cells)
        y = rng.standard_normal((3,) + grid64.cells)
        conv, ref = ConeConvolution(aps, grid64), PerConeConvolution(aps, grid64)
        assert conv.spectra.shape[0] == 3
        assert np.array_equal(stacked_rows(conv, g), ref.forward(g))
        assert np.array_equal(conv.adjoint(y), ref.adjoint(y))

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_scan_is_bit_identical_to_stacked_copies(self, grid, aps,
                                                     n_distinct):
        # the former forward stacked one inverse FFT per group and indexed
        # the stack by group; rows gives the unindexed rows, and
        # cone_transform gives each aperture its group's row
        f = ScalarField(grid, np.random.default_rng(26).random(grid.cells))
        v = constant_field(grid, 0.5)
        conv = ConeConvolution(aps, grid)
        G = np.fft.rfftn(f.values * (v.values * grid.cell_volume),
                         conv.shape, axes=(0, 1, 2)[:grid.dim])
        stacked = np.stack([conv._inverse(G * S, np.empty(grid.cells))
                            for S in conv.spectra])
        assert np.array_equal(stacked_rows(conv, f.values * (v.values
                                                        * grid.cell_volume)),
                              stacked)
        fields = cone_transform(f, v, conv)
        assert np.array_equal([fld.values for fld in fields],
                              stacked[conv.group])
        # the apertures of one distinct cone share its read-only field
        assert len({id(fld) for fld in fields}) == n_distinct
        assert not any(fld.values.flags.writeable for fld in fields)

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_rows_are_the_stacked_loop_bit_for_bit(self, grid, aps,
                                                   n_distinct):
        # each row comes out of one work array, overwritten by the next
        g = np.random.default_rng(28).standard_normal(grid.cells)
        conv = ConeConvolution(aps, grid)
        ref = stacked_forward(conv, g)
        for _ in range(2):
            assert stacked_rows(conv, g).tobytes() == ref.tobytes()

    def test_default_cones_are_five_spectra(self):
        grid = make_grid(2, (-10, -10), (20, 20), (32, 32))
        aps = build_apertures(DEFAULTS, 2)
        conv = ConeConvolution(aps, grid)
        assert conv.spectra.shape[0] == 5
        assert list(conv.group) == [0, 1, 2, 3, 4] * 2
        # the grouping that the symbol table takes from the operator
        assert (list(zip(conv.distinct, conv.counts))
                == excitation._distinct_apertures(aps))

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_dot_test_with_duplicates(self, grid, aps, n_distinct):
        v = ScalarField(grid, 1.0 + np.random.default_rng(23).random(grid.cells))
        linmap = scan_linear_map(ConeConvolution(aps, grid), v)
        assert linmap.n_data == n_distinct * grid.n_cells
        assert linmap.dot_test(seed=5) <= 1e-12

    def test_lsqr_iterates_match_per_cone_reference(self):
        # LSQR on one row per distinct cone, with the floor, against LSQR on
        # the per-cone operator and one data row per cone.  The two share
        # every history column in exact arithmetic, ||A||'s running estimate
        # too: it is the trace of the Lanczos matrix of A^T A started from
        # A^T b, and both systems have the same A^T A and A^T b.  LSQR
        # drifts from roundoff as it runs (~1e-3 of the maximum by 50
        # iterations), so the two are compared after 20; at iterations
        # 13-15 ||r|| differs by up to 0.5% here and ||A^T r|| and the
        # relative column by up to 13% before they meet again (the last row
        # to 1e-12), so only the last one is compared
        grid = make_grid(2, (-10, -10), (20, 20), (48, 48))
        aps = build_apertures(DEFAULTS, 2)
        v = ScalarField(grid, 1.0 + np.random.default_rng(24).random(grid.cells))
        f = two_bump_phantom(grid).values.ravel()
        stacked = stacked_linear_map(PerConeConvolution(aps, grid), v)
        data = stacked.forward(f)
        noise = np.random.default_rng(25).random(data.size)
        data += 1e-3 * np.max(data) * noise
        x_ref, history_ref = lsqr(stacked, data, max_iters=20, atol=0.0)
        conv = ConeConvolution(aps, grid)
        scan = ConeScanData(grid, [ScalarField(grid, x) for x in
                                   data.reshape((len(aps),) + grid.cells)],
                            aps)
        b, floor = pipeline._reduced_data(scan, conv)
        x, history = lsqr(scan_linear_map(conv, v), b, max_iters=20,
                          atol=0.0, residual_floor=floor)
        assert len(history) == len(history_ref) == 21
        assert rel_max(x, x_ref) <= 1e-6
        assert history[-1, 0] == history_ref[-1, 0]
        assert np.all(np.abs(history[-1, 1:] - history_ref[-1, 1:])
                      <= 1e-6 * history_ref[-1, 1:])


# the default cones, and repeated double cones mixed with a cone that
# appears once (counts 2, 2, 1 and 2, 2, 2, 1)
STREAMED = [
    (make_grid(2, (-10, -10), (20, 20), (64, 64)), build_apertures(DEFAULTS, 2)),
    (make_grid(2, (-10, -6), (20, 12), (48, 64)),
     paired_fan_2d() + [Aperture(dim=2, axis=unit(np.deg2rad(120.0)),
                                 half_angle=0.3)]),
    (make_grid(3, (-10, -10, -10), (20, 20, 20), (16, 16, 16)),
     build_apertures(DEFAULTS, 3)),
    (make_grid(3, (-8, -8, -8), (16, 16, 16), (16, 16, 16)),
     paired_axes_3d() + [Aperture(dim=3, axis=(0, 0, 1), half_angle=0.4)]),
    # at most LOW_FREQ_BINS cells on an axis, whose wrapped shell bins
    # overlap, and unequal spacings on every axis
    (make_grid(2, (-2, -10), (4, 20), (5, 40)), build_apertures(DEFAULTS, 2)),
    (make_grid(3, (-6, -8, -3), (12, 16, 6), (12, 20, 8)),
     build_apertures(DEFAULTS, 3)),
]
STREAMED_IDS = ["2d-default", "2d-mixed", "3d-default", "3d-mixed",
                "2d-5-cells", "3d-anisotropic"]


class TestStreamedSpectra:
    """A cone operator that does not hold its spectra (the scan of a
    multiplier-only run) builds one at a time on each pass: the same rows
    as the held operator, and the same low-shell sum, bit for bit, whether
    kept from the held build, from a pass of the rows or formed by a pass
    of its own."""

    @pytest.mark.parametrize("grid,aps", STREAMED, ids=STREAMED_IDS)
    def test_rows_and_shell_sum_equal_the_held_operator(self, grid, aps):
        held = ConeConvolution(aps, grid)
        streamed = ConeConvolution(aps, grid, held=False)
        assert streamed.spectra is None
        assert streamed.distinct == held.distinct
        shell = np.nonzero(low_shell(held))
        for conv in (held, streamed):
            assert len(conv.shell_index) == grid.dim
            for got, want in zip(conv.shell_index, shell):
                assert np.array_equal(got, want)
        g = np.random.default_rng(41).standard_normal(grid.cells)
        assert stacked_rows(streamed, g).tobytes() == \
            stacked_rows(held, g).tobytes()
        reference = kernel_shell(held).tobytes()
        assert (streamed.shell_sum() * grid.cell_volume).tobytes() == reference
        assert (held.shell_sum() * grid.cell_volume).tobytes() == reference
        # without a pass of the rows (the reconstruct verb), a pass of its own
        fresh = ConeConvolution(aps, grid, held=False)
        assert (fresh.shell_sum() * grid.cell_volume).tobytes() == reference
        f = ScalarField(grid, np.abs(g))
        v = ScalarField(grid, 0.5 + np.abs(g[::-1]))
        assert [fld.values.tobytes() for fld in cone_transform(f, v, streamed)] \
            == [fld.values.tobytes() for fld in cone_transform(f, v, held)]

    def test_each_pass_builds_each_kernel_once(self, monkeypatch):
        grid, aps = STREAMED[1]
        built = []
        cone_kernel = excitation.cone_kernel
        monkeypatch.setattr(excitation, "cone_kernel",
                            lambda ap, grid: built.append(ap)
                            or cone_kernel(ap, grid))
        conv = ConeConvolution(aps, grid, held=False)
        assert built == []
        for _ in conv.rows(np.ones(grid.cells)):
            pass
        assert built == list(conv.distinct)
        # the scan's pass kept the sum: no kernel is built for it
        total = conv.shell_sum()
        assert len(built) == 3
        assert conv.shell_sum() is total
        # a later pass leaves the kept sum as it is
        for _ in conv.rows(np.ones(grid.cells)):
            pass
        assert len(built) == 6
        assert conv.shell_sum() is total
        # a pass cut short keeps nothing: the sum needs a pass of its own
        other = ConeConvolution(aps, grid, held=False)
        next(other.rows(np.ones(grid.cells)))
        assert len(built) == 7
        assert other.shell_sum().tobytes() == total.tobytes()
        assert len(built) == 7 + 3
        assert other.shell_sum() is other.shell_sum()
        # the held build is the pass that keeps it
        held = ConeConvolution(aps, grid)
        assert len(built) == 13
        assert held.shell_sum().tobytes() == total.tobytes()
        assert len(built) == 13

    def test_lsqr_needs_the_held_spectra(self):
        grid, aps = STREAMED[1]
        conv = ConeConvolution(aps, grid, held=False)
        v = constant_field(grid, 1.0)
        with pytest.raises(InvalidArgumentError, match="holds its spectra"):
            conv.adjoint(np.ones((len(conv.distinct),) + grid.cells))
        with pytest.raises(InvalidArgumentError, match="holds its spectra"):
            parametrix_preconditioner(conv, v)

    def test_streamed_scan_holds_a_fixed_number_of_spectra(self):
        # beside its distinct rows the streamed scan (operator built in the
        # call) peaked at 9.77-9.84 spectra's bytes at 24^3 for 1 to 16
        # distinct cones: the FFT of the source, one complex work spectrum,
        # one kernel table and its sample blocks; the held operator at
        # 8.05 to 21.02, about one more spectrum per distinct cone
        grid = make_grid(3, (-10.0,) * 3, (20.0,) * 3, (24, 24, 24))
        rng = np.random.default_rng(42)
        f = ScalarField(grid, rng.random(grid.cells))
        v = ScalarField(grid, 0.5 + rng.random(grid.cells))
        spectrum = 8 * math.prod(ConeConvolution(
            build_apertures(DEFAULTS, 3), grid, held=False)._half)

        def over_rows(count, held):
            aps = build_apertures(dict(DEFAULTS, **{"cones.count": str(count)}), 3)
            scan, peak = traced_peak(lambda: simulate_boundary_scan(
                f, v, ConeConvolution(aps, grid, held=held)))
            rows = len({id(fld) for fld in scan.fields}) * f.values.nbytes
            return (peak - rows) / spectrum

        # the two cones of count 2 are one double cone about (1, 0, 0),
        # whose kernel is sampled on a quarter of the offsets (two axis
        # components are 0.0, see `cone_kernel`); every larger set has a
        # cone with one such component, whose sample blocks set the peak
        streamed = [over_rows(count, False) for count in (2, 6, 16, 32)]
        assert max(streamed) <= 10.5
        assert max(streamed[1:]) - min(streamed[1:]) <= 0.25
        assert streamed[0] <= min(streamed[1:])
        assert over_rows(32, True) - over_rows(2, True) >= 12.0


def near_threshold_apertures(rng, dim, count):
    """Random apertures with repeats: copies of earlier ones with the axis
    negated, or moved by (1 +- 1e-3) * 1e-12 along one component (set on
    the frozen aperture, past the normalisation), or with one parameter
    changed."""
    params = [(0.3, 0.05, 1.0), (0.3, 0.05, 2.0), (0.4, 0.05, 1.0), (0.3, 0.0, 1.0)]
    aps = []
    for _ in range(count):
        kind = rng.integers(5) if aps else 0
        if kind == 0:
            half, taper, amp = params[rng.integers(len(params))]
            aps.append(Aperture(dim=dim, axis=tuple(rng.standard_normal(dim)),
                                half_angle=half, taper_width=taper, amplitude=amp))
            continue
        ap = aps[rng.integers(len(aps))]
        axis = np.array(ap.axis)
        if kind == 1:
            axis = -axis
        elif kind in (2, 3):
            axis[rng.integers(dim)] += rng.choice([-1.0, 1.0]) * 1e-12 * (
                1.0 - 1e-3 if kind == 2 else 1.0 + 1e-3)
        copy = Aperture(dim=dim, axis=ap.axis, half_angle=ap.half_angle,
                        taper_width=ap.taper_width,
                        amplitude=ap.amplitude * (1.5 if kind == 4 else 1.0))
        object.__setattr__(copy, "axis", tuple(axis))
        aps.append(copy)
    return aps


class TestApertureGroups:
    @pytest.mark.parametrize("dim", [2, 3, "mixed"])
    def test_matches_the_pairwise_loop(self, dim):
        rng = np.random.default_rng({2: 31, 3: 32, "mixed": 33}[dim])
        for _ in range(20):
            if dim == "mixed":
                aps = (near_threshold_apertures(rng, 2, 30)
                       + near_threshold_apertures(rng, 3, 30))
                aps = [aps[i] for i in rng.permutation(len(aps))]
            else:
                aps = near_threshold_apertures(rng, dim, 60)
            distinct, group = excitation._aperture_groups(aps)
            ref_distinct, ref_group = loop_aperture_groups(aps)
            assert group == ref_group
            assert all(a is b for a, b in zip(distinct, ref_distinct))
            assert len(distinct) == len(ref_distinct)
            assert excitation._distinct_apertures(aps) == [
                (ap, ref_group.count(i)) for i, ap in enumerate(ref_distinct)]

    def test_axes_either_side_of_the_tolerance(self):
        # axes 1e-12 * (1, 1 - 1e-3, 1 + 1e-3) from (0, 1) in x (exactly:
        # the norm rounds to 1), and negated ones; the last is 1.001e-12
        # from the negation of (0, 1) and 2.002e-12 from that of the first
        # that started its own group
        aps = [Aperture(dim=2, axis=axis, half_angle=0.3)
               for axis in [(0.0, 1.0), (1e-12, 1.0), (0.999e-12, 1.0),
                            (1.001e-12, 1.0), (-1e-12, -1.0), (1.001e-12, -1.0)]]
        distinct, group = excitation._aperture_groups(aps)
        assert group == [0, 0, 0, 1, 0, 2]
        assert (distinct, group) == loop_aperture_groups(aps)


def operator_calls(conv, seed):
    """forward, adjoint (also with the rows weighted) and filter of `conv`
    on random inputs: filter on a grid-shaped field, and on one of the
    circular grid's shape cropped from a block offset (the multiplier's
    extended scan)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(conv.cells)
    y = rng.standard_normal((len(conv.spectra),) + conv.cells)
    symbol = rng.random(conv.spectra.shape[1:])
    weights = np.sqrt(conv.counts)
    g2 = rng.standard_normal(conv.shape)
    start = tuple(n // 2 for n in conv.cells)
    return [lambda: stacked_rows(conv, g), lambda: conv.adjoint(y),
            lambda: conv.adjoint(y, weights),
            lambda: conv.filter(g, symbol),
            lambda: conv.filter(g2, symbol, start)]


class TestWorkspace:
    """`ConeConvolution`'s FFT work arrays: each call makes its own, and no
    result is one of them."""

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_results_do_not_change_on_later_calls(self, grid, aps,
                                                  n_distinct):
        conv = ConeConvolution(aps, grid)
        calls = operator_calls(conv, 32)
        later = operator_calls(conv, 33)
        results = [call() for call in calls]
        saved = [r.copy() for r in results]
        for call in later:
            call()
        for r, s in zip(results, saved):
            assert r.tobytes() == s.tobytes()


def xray_per_ray(g, angles, offsets):
    """The bilinear sampler that Joseph's method replaced in `xray_transform`,
    kept as the old path's reference: samples half a grid spacing apart along
    one line at a time, corners masked to the grid."""
    grid = g.grid
    step = 0.5 * min(grid.spacing)
    half_diag = 0.5 * np.sqrt(sum(e ** 2 for e in grid.extent))
    center = np.array([grid.origin[a] + 0.5 * grid.extent[a] for a in range(2)])
    ts = np.arange(-half_diag, half_diag + step, step)
    nx, ny = grid.cells
    vals = np.zeros((angles.size, offsets.size))
    for ia, th in enumerate(angles):
        d = np.array([np.cos(th), np.sin(th)])
        perp = np.array([-np.sin(th), np.cos(th)])
        for iz, z in enumerate(offsets):
            pts = center[None, :] + z * perp[None, :] + ts[:, None] * d[None, :]
            fx = (pts[:, 0] - grid.origin[0]) / grid.spacing[0] - 0.5
            fy = (pts[:, 1] - grid.origin[1]) / grid.spacing[1] - 0.5
            i0 = np.floor(fx).astype(int)
            j0 = np.floor(fy).astype(int)
            tx = fx - i0
            ty = fy - j0
            out = np.zeros(len(pts))
            for di, wx in ((0, 1.0 - tx), (1, tx)):
                for dj, wy in ((0, 1.0 - ty), (1, ty)):
                    ii = i0 + di
                    jj = j0 + dj
                    ok = (ii >= 0) & (ii < nx) & (jj >= 0) & (jj < ny)
                    w = wx * wy
                    out[ok] += w[ok] * g.values[ii[ok], jj[ok]]
            vals[ia, iz] = np.sum(out) * step
    return vals


def joseph_per_ray(g, angles, offsets):
    """Joseph's method one line at a time, the reference for `xray_transform`:
    a sample at each cell centre of the dominant axis, linear across it,
    neighbours masked to the grid."""
    grid = g.grid
    vals = np.zeros((angles.size, offsets.size))
    for ia, th in enumerate(angles):
        d = (np.cos(th), np.sin(th))
        perp = (-d[1], d[0])
        dom = 0 if abs(d[0]) >= abs(d[1]) else 1
        oth = 1 - dom
        cells = g.values if dom == 0 else g.values.T
        n_dom, n_oth = cells.shape
        h, slope = grid.spacing[oth], d[oth] / d[dom]
        steps = (np.arange(n_dom) - 0.5 * (n_dom - 1)) * (grid.spacing[dom] * slope / h)
        for iz, z in enumerate(offsets):
            f = (0.5 * (n_oth - 1) + z * ((perp[oth] - perp[dom] * slope) / h)) + steps
            i0 = np.floor(f).astype(int)
            w = f - i0
            out = np.zeros(n_dom)
            for k, wk in ((0, 1.0 - w), (1, w)):
                jj = i0 + k
                ok = (jj >= 0) & (jj < n_oth)
                out[ok] += wk[ok] * cells[np.arange(n_dom)[ok], jj[ok]]
            vals[ia, iz] = np.sum(out) * (grid.spacing[dom] / abs(d[dom]))
    return vals


# pi/2 has cos ~ 6e-17; pi/4 and 3pi/4 sit on the dominant-axis switch
SMALL_ANGLES = np.array([0.0, np.pi / 4, np.pi / 2, 0.3, 2.2, 3 * np.pi / 4])


def small_grid():
    # non-square, unequal spacing 0.25 x 0.3, centred at (0, 1); offsets
    # +-6 (angle 0) and +-3 (angle pi/2) run along its edges, +-3.125 half a
    # cell outside, where the outer cells' weight reaches zero
    g = make_grid(2, (-3.0, -5.0), (6.0, 12.0), (24, 40))
    offsets = np.concatenate([np.linspace(-7.0, 7.0, 57),
                              [-6.0, -3.125, -3.0, 3.0, 3.125, 6.0]])
    return g, offsets


def small_gaussian(g):
    X = g.centers()
    return ScalarField(g, np.exp(-((X[..., 0] - 0.5) ** 2
                                   + (X[..., 1] - 1.5) ** 2) / 2.0))


# SMALL_ANGLES, both sides of the pi/4 switch, a negative angle and one
# above pi
CULL_ANGLES = np.concatenate([SMALL_ANGLES, [np.pi / 4 - 1e-9, np.pi / 4 + 1e-9,
                                             -0.8, 3.6]])


def cull_offsets():
    """small_grid's offsets shuffled, with duplicates and offsets beyond
    `reach` (7.3 on the small grid) on both sides."""
    _, offsets = small_grid()
    offsets = np.random.default_rng(9).permutation(offsets)
    return np.concatenate([offsets[:30], [0.3, -2.0, 0.3, -50.0],
                           offsets[30:], [-2.0, 7.5, 1e6, offsets[3]]])


def cull_fields():
    """(name, values) on small_grid: one nonzero cell at each corner and in
    the middle of each edge, support touching the border, a -0.0
    background, a band of -0.0 alone, all +0.0 and nonzero everywhere."""
    g, _ = small_grid()
    nx, ny = g.cells
    rng = np.random.default_rng(8)
    cases = []
    for i in (0, nx // 2, nx - 1):
        for j in (0, ny // 2, ny - 1):
            if (i, j) != (nx // 2, ny // 2):
                v = np.zeros(g.cells)
                v[i, j] = 1.0 + rng.random()
                cases.append((f"cell-{i}-{j}", v))
    v = np.zeros(g.cells)
    v[nx - 6:, 3:9] = rng.uniform(0.5, 1.5, (6, 6))
    v[2:5, :4] = rng.uniform(0.5, 1.5, (3, 4))
    cases.append(("border-blocks", v))
    v = np.full(g.cells, -0.0)
    v[7:11, 12:15] = rng.uniform(0.5, 1.5, (4, 3))
    cases.append(("negative-zero-background", v))
    v = np.zeros(g.cells)
    v[:, 10:20] = -0.0
    cases.append(("negative-zero-band", v))
    cases.append(("all-zero", np.zeros(g.cells)))
    cases.append(("dense", rng.uniform(0.5, 1.5, g.cells)))
    return cases


def unculled_xray(monkeypatch, f, angles, offsets):
    """`xray_transform` with the support's box set to the whole grid, so
    that every line meeting the grid is sampled on every row."""
    with monkeypatch.context() as m:
        m.setattr(excitation, "_support_box",
                  lambda values: [(0, n - 1) for n in values.shape])
        return xray_transform(f, angles, offsets).values


class TestXrayTransform:
    @pytest.mark.parametrize("block", [excitation.XRAY_BLOCK_SAMPLES, 250])
    def test_matches_joseph_per_ray(self, monkeypatch, block):
        monkeypatch.setattr(excitation, "XRAY_BLOCK_SAMPLES", block)
        g, offsets = small_grid()
        f = ScalarField(g, np.random.default_rng(4).uniform(0.5, 1.5, g.cells))
        angles = SMALL_ANGLES
        sino = xray_transform(f, angles, offsets)
        assert np.array_equal(sino.values, joseph_per_ray(f, angles, offsets))

    @pytest.mark.parametrize("name, values", cull_fields(),
                             ids=[name for name, _ in cull_fields()])
    def test_culled_lines_are_joseph_per_ray(self, monkeypatch, name, values):
        # bitwise: equal to the per-ray reference, and byte for byte (the
        # signs of zeros too) to every line sampled on every row, also with
        # blocks of a few lines, whose edges fall inside the kept band
        g, _ = small_grid()
        f = ScalarField(g, values)
        offsets = cull_offsets()
        ref = joseph_per_ray(f, CULL_ANGLES, offsets)
        full = unculled_xray(monkeypatch, f, CULL_ANGLES, offsets)
        for block in (excitation.XRAY_BLOCK_SAMPLES, 100, 1):
            monkeypatch.setattr(excitation, "XRAY_BLOCK_SAMPLES", block)
            sino = xray_transform(f, CULL_ANGLES, offsets).values
            assert np.array_equal(sino, ref)
            assert sino.tobytes() == full.tobytes()
        if name.startswith("cell"):
            # most lines miss a single cell
            assert 0 < np.count_nonzero(sino) < 0.2 * sino.size
        assert np.any(sino) == (name not in ("all-zero", "negative-zero-band"))

    def test_close_to_bilinear_sampler(self, grid128):
        # smooth fields: measured 2.3e-4 (128^2) and 3.9e-3 (24x40) of the max
        f = two_bump_phantom(grid128)
        angles = np.arange(0, 180, 15) * (np.pi / 180)
        half_diag = 0.5 * np.sqrt(800.0)
        offsets = np.linspace(-half_diag, half_diag, 256)
        new = xray_transform(f, angles, offsets).values
        old = xray_per_ray(f, angles, offsets)
        assert np.max(np.abs(new - old)) <= 1e-3 * np.max(np.abs(old))
        g, offsets = small_grid()
        f = small_gaussian(g)
        angles = SMALL_ANGLES
        new = xray_transform(f, angles, offsets).values
        old = xray_per_ray(f, angles, offsets)
        assert np.max(np.abs(new - old)) <= 1e-2 * np.max(np.abs(old))

    @pytest.mark.parametrize("angle, offsets", [(0.0, [-5.5, 0.0, 2.5, 5.5]),
                                                (0.2, [-4.0, 0.0, 2.5, 4.0])])
    def test_constant_field_box_chord(self, angle, offsets):
        # each line crosses both x edges and keeps both y neighbours in
        # the grid, so its integral is the chord 6 / |cos angle| of the box
        g, _ = small_grid()
        sino = xray_transform(ScalarField(g, np.ones(g.cells)),
                              np.array([angle]), np.array(offsets))
        assert np.max(np.abs(sino.values - 6.0 / abs(np.cos(angle)))) <= 1e-12

    def test_dominant_axis_switch_is_continuous(self):
        # measured 1.1e-3 of the maximum
        g, offsets = small_grid()
        f = small_gaussian(g)
        for c in (np.pi / 4, 3 * np.pi / 4):
            s = xray_transform(f, np.array([c - 1e-9, c + 1e-9]), offsets).values
            assert np.max(np.abs(s[0] - s[1])) <= 5e-3 * np.max(np.abs(s))

    def test_disk_chord_lengths(self):
        n = 255
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        X = g.centers()
        disk = ScalarField(g, (X[..., 0] ** 2 + X[..., 1] ** 2 <= 9.0).astype(float))
        sino = xray_transform(disk, np.array([0.0]), np.array([0.0, 1.0, 3.5]))
        assert sino.values[0, 0] == pytest.approx(6.0, abs=0.1)
        assert sino.values[0, 1] == pytest.approx(2 * np.sqrt(8.0), abs=0.1)
        assert sino.values[0, 2] == 0.0

    def test_zero_field(self, grid64):
        sino = xray_transform(constant_field(grid64, 0.0),
                              np.linspace(0, np.pi, 10), np.linspace(-5, 5, 11))
        assert np.all(sino.values == 0)

    def test_translation_shifts_offsets(self):
        n = 128
        g = make_grid(2, (-10, -10), (20, 20), (n, n))
        X = g.centers()
        blob0 = ScalarField(g, np.exp(-(X[..., 0] ** 2 + X[..., 1] ** 2)))
        blob1 = ScalarField(g, np.exp(-(X[..., 0] ** 2 + (X[..., 1] - 1.0) ** 2)))
        offsets = np.linspace(-5, 5, 101)
        s0 = xray_transform(blob0, np.array([0.0]), offsets)
        s1 = xray_transform(blob1, np.array([0.0]), offsets)
        # shifting f by +1 in y shifts the angle-0 profile by +1 in offset
        shift = offsets[np.argmax(s1.values[0])] - offsets[np.argmax(s0.values[0])]
        assert shift == pytest.approx(1.0, abs=0.11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_geometry_rejected_before_computing(self, bad):
        g, offsets = small_grid()
        f = small_gaussian(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError):
                xray_transform(f, np.array([0.0, bad]), offsets)
            with pytest.raises(InvalidArgumentError):
                xray_transform(f, SMALL_ANGLES, np.append(offsets, bad))

    def test_far_offsets_read_exact_zeros(self):
        # a field that is non-zero up to its edges, on the small grid and on
        # copies scaled so that the squares of their extents overflow or
        # underflow (built as a Grid: make_grid keeps spacings in
        # SPACING_RANGE).  Lines far outside, whose fractional indices would
        # overflow, are clipped onto the zero padding without a
        # floating-point exception or warning; the lines that meet the grid
        # are not clipped and equal the per-ray reference
        g0, near0 = small_grid()
        top = np.finfo(np.float64).max
        for scale in (1.0, 1e160, 1e-170):
            g = Grid(2, tuple(scale * x for x in g0.origin),
                     tuple(scale * e for e in g0.extent), g0.cells)
            near = scale * near0
            f = ScalarField(g, np.random.default_rng(5).uniform(0.5, 1.5, g.cells))
            far = np.array([-top, -1e308, -1e300, -1e6 * scale,
                            1e6 * scale, 1e300, 1e308, top])
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                sino = xray_transform(f, SMALL_ANGLES, np.concatenate([near, far]))
            assert np.array_equal(sino.offsets[near.size:], far)
            assert np.all(sino.values[:, near.size:] == 0.0)
            assert np.array_equal(sino.values[:, :near.size],
                                  joseph_per_ray(f, SMALL_ANGLES, near))

    def test_default_run_xlct_sinogram_is_joseph_per_ray(self, tmp_path):
        # the clip and the skipped lines leave every line that meets the
        # support alone: the default run's sinogram against the per-ray
        # reference on every angle, on every offset within two columns of
        # the columns that read the support, and on every 15th offset, the
        # two extreme ones included
        from lumitomo.cli import main
        from lumitomo.ltfio import read_field, read_sinogram
        assert main(["run-xlct", "-o", str(tmp_path)]) == 0
        sino = read_sinogram(tmp_path / "sinogram.ltf")
        g = ScalarField(read_field(tmp_path / "truth.ltf").grid,
                        read_field(tmp_path / "weight.ltf").values
                        * read_field(tmp_path / "truth.ltf").values)
        band = np.flatnonzero(np.any(sino.values != 0, axis=0))
        cols = np.unique(np.r_[0:sino.offsets.size:15, sino.offsets.size - 1,
                               max(band[0] - 2, 0):band[-1] + 3])
        assert cols.size < 0.4 * sino.offsets.size
        assert np.array_equal(sino.values[:, cols],
                              joseph_per_ray(g, sino.angles, sino.offsets[cols]))

    def test_sinogram_validation(self):
        with pytest.raises(InvalidArgumentError):
            Sinogram(np.zeros(3), np.zeros(4), np.zeros((4, 3)))


def reference_samples(ap, grid, x_focus):
    """The kernel at x_focus - y over the cell centres y, flat, with the
    arithmetic of the former per-focus loops (`_direct_cone_sum` and the
    cone source of the full-physics chain)."""
    centers = grid.centers().reshape(-1, grid.dim)
    d = np.asarray(x_focus, float)[None, :] - centers
    r = np.sqrt(np.sum(d * d, axis=1))
    near = r < 0.49 * min(grid.spacing)
    r_safe = np.where(near, 1.0, r)
    vals = ap.profile((d @ np.asarray(ap.axis)) / r_safe) / r_safe ** (grid.dim - 1)
    vals[near] = excitation._self_cell_weight(ap, grid)
    return vals


def reference_cone_kernel(ap, grid):
    """The lattice kernel table with the arithmetic it had before it shared
    `_kernel_samples`."""
    offsets = [np.arange(-(n - 1), n) * h for n, h in zip(grid.cells, grid.spacing)]
    d = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    r = np.sqrt(np.sum(d * d, axis=-1))
    center = tuple(n - 1 for n in grid.cells)
    r_safe = r.copy()
    r_safe[center] = 1.0
    cosang = np.tensordot(d, np.asarray(ap.axis), axes=([-1], [0])) / r_safe
    K = ap.profile(cosang) / r_safe ** (grid.dim - 1)
    K[center] = excitation._self_cell_weight(ap, grid)
    return K


def wrapped_table(T):
    """A (2n-1)-per-axis kernel table copied into a zero circular grid of 2n
    cells per axis at its offsets modulo 2n, as `ConeConvolution` wrapped
    `cone_kernel`'s table before the table was written there directly."""
    cells = tuple((m + 1) // 2 for m in T.shape)
    K = np.zeros(tuple(2 * n for n in cells))
    K[np.ix_(*[np.arange(-(n - 1), n) % (2 * n) for n in cells])] = T
    return K


def former_spectra(apertures, grid):
    """`ConeConvolution.spectra` by their former construction, kept as the
    reference: per distinct aperture the half table with the radius from
    np.sum, np.concatenate with its mirror, `wrapped_table` and
    np.fft.rfftn."""
    distinct, _ = excitation._aperture_groups(apertures)
    offsets = [np.arange(-(n - 1), n) * h for n, h in zip(grid.cells, grid.spacing)]
    offsets[0] = offsets[0][:grid.cells[0]]
    d = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    r = np.sqrt(np.sum(d * d, axis=-1))
    near = r < 0.49 * min(grid.spacing)
    r_safe = np.where(near, 1.0, r)
    spectra = []
    for ap in distinct:
        cosang = np.tensordot(d, np.asarray(ap.axis), axes=([-1], [0])) / r_safe
        half = ap.profile(cosang) / r_safe ** (grid.dim - 1)
        half[near] = excitation._self_cell_weight(ap, grid)
        K = wrapped_table(np.concatenate([half, np.flip(half[:-1])]))
        spectra.append(np.fft.rfftn(K, axes=tuple(range(grid.dim))).real)
    return np.stack(spectra)


SAMPLER_CASES = [
    (make_grid(2, (-10, -6), (20, 12), (24, 36)), fan_apertures(3, 35.0)),
    (make_grid(3, (-10, -10, -10), (20, 20, 20), (12, 12, 12)),
     [Aperture(dim=3, axis=(1, 1, 1), half_angle=0.5),
      Aperture(dim=3, axis=(0, 0, 1), half_angle=0.4, taper_width=0.0)]),
]


# The table alone: grids whose first axis has one cell (the mirrored half
# is empty) and odd-by-even grids of anisotropic cells (the mirror's edge
# rows); make_grid refuses fewer than 4 cells per axis.
KERNEL_CASES = SAMPLER_CASES + [
    (Grid(2, (0.0, 0.0), (1.0, 9.0), (1, 9)), fan_apertures(3, 35.0)),
    (Grid(3, (0.0, 0.0, 0.0), (1.0, 5.0, 7.0), (1, 5, 7)),
     SAMPLER_CASES[1][1]),
    (make_grid(2, (-1, -2), (7 * 0.3, 8 * 0.7), (7, 8)),
     fan_apertures(3, 35.0)),
    (make_grid(3, (0, 0, 0), (5 * 0.3, 6 * 0.7, 4 * 1.1), (5, 6, 4)),
     SAMPLER_CASES[1][1] + [Aperture(dim=3, axis=(-0.2, 0.7, -0.4),
                                     half_angle=0.3, taper_width=0.3)]),
]


class TestKernelSampler:
    """One sampler serves the lattice table and the cone sources; each
    keeps the bits of the code it replaced."""

    @pytest.mark.parametrize("grid,aps", KERNEL_CASES)
    def test_cone_kernel_is_bit_identical(self, grid, aps):
        for ap in aps:
            K = cone_kernel(ap, grid)
            assert K.shape == tuple(2 * n for n in grid.cells)
            assert K.tobytes() == wrapped_table(
                reference_cone_kernel(ap, grid)).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("grid,aps", KERNEL_CASES)
    def test_cone_kernel_blocks_are_bit_identical(self, grid, aps, rows,
                                                  monkeypatch):
        # one row per block from a block shorter than a row, and blocks of
        # two or three rows, the last one shorter on most grids
        row = math.prod(2 * n - 1 for n in grid.cells[1:])
        block = 1 if rows == 1 else rows * row + row - 1
        monkeypatch.setattr(excitation, "KERNEL_BLOCK_SAMPLES", block)
        for ap in aps:
            assert cone_kernel(ap, grid).tobytes() == wrapped_table(
                reference_cone_kernel(ap, grid)).tobytes()

    @pytest.mark.parametrize("block", [None, 1, 40],
                             ids=["default", "row-blocks", "40-samples"])
    @pytest.mark.parametrize("grid", [
        make_grid(2, (-1, -2), (7 * 0.3, 8 * 0.7), (7, 8)),
        Grid(2, (0.0, 0.0), (1.0, 9.0), (1, 9)),
        make_grid(3, (0, 0, 0), (5 * 0.3, 6 * 0.7, 4 * 1.1), (5, 6, 4)),
        Grid(3, (0.0, 0.0, 0.0), (1.0, 5.0, 7.0), (1, 5, 7))],
        ids=["2d", "2d-one-row", "3d", "3d-one-row"])
    def test_reflected_axes_are_the_half_sampled_kernel(self, grid, block,
                                                        monkeypatch):
        # axes with one zero component (first, middle or last, +0.0 or
        # -0.0), with two, and with none; a later axis whose component is
        # 0.0 is sampled at its offsets <= 0 only
        axes = {2: [(0, 1), (1, 0), (1, -0.0), (0.6, 0.8)],
                3: [(0, 0.6, 0.8), (0.6, 0, 0.8), (0.6, 0.8, 0),
                    (0.6, -0.0, 0.8), (0, 0, 1), (0, 1, 0), (-1, 0, 0),
                    (0.2, 0.7, -0.4)]}[grid.dim]
        if block is not None:
            monkeypatch.setattr(excitation, "KERNEL_BLOCK_SAMPLES", block)
        shapes = []
        kernel_samples = excitation._kernel_samples
        monkeypatch.setattr(excitation, "_kernel_samples",
                            lambda ap, grid, d, w: shapes.append(d.shape)
                            or kernel_samples(ap, grid, d, w))
        for axis in axes:
            for ap in (Aperture(dim=grid.dim, axis=axis, half_angle=0.5),
                       Aperture(dim=grid.dim, axis=axis, half_angle=0.3,
                                taper_width=0.0)):
                del shapes[:]
                K = cone_kernel(ap, grid)
                assert same_bits(K, half_sampled_cone_kernel(ap, grid))
                widths = tuple(n if ap.axis[k] == 0.0 else 2 * n - 1
                               for k, n in enumerate(grid.cells) if k > 0)
                assert all(shape[1:-1] == widths for shape in shapes)
                assert sum(shape[0] for shape in shapes) == grid.cells[0]

    def test_build_holds_the_spectra_and_one_kernel(self):
        # the stack, one complex work spectrum, one kernel table and one
        # block of samples: measured 2.09x the stack (3.58x when every
        # complex spectrum lived until np.stack and the kernel was sampled
        # in one call)
        grid = make_grid(3, (-10, -10, -10), (20, 20, 20), (32, 32, 32))
        conv, peak = traced_peak(
            lambda: ConeConvolution(build_apertures(DEFAULTS, 3), grid))
        assert peak <= 2.5 * conv.spectra.nbytes

    @pytest.mark.parametrize("grid,aps", KERNEL_CASES + [
        (make_grid(2, (-10, -10), (20, 20), (32, 32)),
         build_apertures(DEFAULTS, 2)),
        (make_grid(3, (-10, -10, -10), (20, 20, 20), (12, 12, 12)),
         build_apertures(DEFAULTS, 3))])
    def test_spectra_are_bit_identical_to_the_former_construction(self, grid,
                                                                   aps):
        assert ConeConvolution(aps, grid).spectra.tobytes() == \
            former_spectra(aps, grid).tobytes()

    @pytest.mark.parametrize("grid,aps", SAMPLER_CASES)
    def test_cone_source_is_bit_identical(self, grid, aps, tissue_medium,
                                          monkeypatch):
        # the sources the full-physics chain solves for, sampled on the
        # support of f, against the dense K * f; one f vanishes on part of
        # the grid
        op = assemble_operator(grid, tissue_medium)
        h = BoundaryField.constant(grid, 1.0)
        sources = []
        monkeypatch.setattr(excitation, "solve_forward",
                            lambda op, s: sources.append(s) or s)
        monkeypatch.setattr(excitation, "boundary_flux", lambda op, u: h.values)
        z = grid.centers()[..., -1]
        foci = [grid.centers()[(2,) * grid.dim], np.full(grid.dim, 0.3)]
        partial = ScalarField(grid, np.maximum(np.cos(z), 0.0))
        assert 0 < np.count_nonzero(partial.values) < partial.values.size
        for f in (ScalarField(grid, np.cos(z) + 2.0), partial):
            for ap in aps:
                del sources[:]
                full_physics_measurements(op, h, f, ap, foci)
                for x, got in zip(foci, sources, strict=True):
                    ref = reference_samples(ap, grid, x) * f.values.ravel()
                    assert np.array_equal(got.ravel(), ref)


class TestBoundaryScan:
    def test_fast_vs_full_physics(self, tissue_medium):
        g = make_grid(2, (-10, -10), (20, 20), (32, 32))
        op = assemble_operator(g, tissue_medium)
        h = BoundaryField.constant(g, 1.0)
        f = two_bump_phantom(g)
        ap = Aperture(dim=2, axis=(1, 0), half_angle=np.deg2rad(19.2))
        # lattice foci within 3 mm of the centre, as the spot check's
        points = [(i, j) for i in (11, 14, 17, 20) for j in (11, 14, 17, 20)]
        v = solve_adjoint_weight(op, h)
        scan = simulate_boundary_scan(f, v, ConeConvolution([ap], g))
        fast = np.array([scan.fields[0].values[p] for p in points])
        full = full_physics_measurements(op, h, f, ap,
                                         [g.centers()[p] for p in points])
        scale = np.max(np.abs(fast))
        mismatch = np.max(np.abs(fast - full))
        assert mismatch <= 1e-10 * scale

    def test_zero_phantom_both_modes(self, tissue_medium):
        g = make_grid(2, (-10, -10), (20, 20), (16, 16))
        op = assemble_operator(g, tissue_medium)
        h = BoundaryField.constant(g, 1.0)
        f = constant_field(g, 0.0)
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.4)
        points = [(i, j) for i in (5, 7, 8, 10) for j in (5, 7, 8, 10)]
        scan = simulate_boundary_scan(f, solve_adjoint_weight(op, h),
                                      ConeConvolution([ap], g))
        assert np.max(np.abs(scan.fields[0].values)) <= 1e-12
        full = full_physics_measurements(op, h, f, ap,
                                         [g.centers()[p] for p in points])
        assert np.max(np.abs(full)) <= 1e-12

    def test_full_physics_matches_former_spot_check_loop(self, grid64,
                                                         tissue_medium):
        # the loop the pipeline's spot check ran before it called
        # full_physics_measurements, with the former cone source
        op = assemble_operator(grid64, tissue_medium)
        h = BoundaryField.constant(grid64, 1.3)
        truth = two_bump_phantom(grid64)
        ap = fan_apertures(3, 35.0)[1]
        centers = grid64.centers()
        points = [(16, 16), (16, 40), (40, 28)]
        expected = []
        for p in points:
            s = reference_samples(ap, grid64, centers[p]) * truth.values.ravel()
            expected.append(boundary_functional(
                h, boundary_flux(op, solve_forward(op, s))))
        got = full_physics_measurements(op, h, truth, ap,
                                        [centers[p] for p in points])
        assert np.array_equal(got, expected)

    def test_fast_mode_linearity(self, grid64, tissue_medium):
        op = assemble_operator(grid64, tissue_medium)
        h = BoundaryField.constant(grid64, 1.0)
        f = two_bump_phantom(grid64)
        f2 = ScalarField(grid64, 2 * f.values)
        aps = fan_apertures(3, 35.0)
        v = solve_adjoint_weight(op, h)
        conv = ConeConvolution(aps, grid64)
        s1 = simulate_boundary_scan(f, v, conv)
        s2 = simulate_boundary_scan(f2, v, conv)
        for a, b in zip(s1.fields, s2.fields):
            assert np.allclose(2 * a.values, b.values)

    def test_scan_data_grid_check(self, grid64, grid128):
        f = constant_field(grid64, 0.0)
        ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
        ConeScanData(grid64, [f], [ap])
        with pytest.raises(InvalidArgumentError, match="share the focus grid"):
            ConeScanData(grid128, [f], [ap])

    @pytest.mark.parametrize("n_fields,n_apertures", [(3, 1), (1, 3), (0, 0),
                                                      (2, 0)])
    def test_scan_data_needs_one_aperture_per_field(self, grid64, n_fields,
                                                    n_apertures):
        aps = fan_apertures(3, 35.0)[:n_apertures]
        fields = [constant_field(grid64, 0.0) for _ in range(n_fields)]
        with pytest.raises(InvalidArgumentError, match="one aperture per field, got"):
            ConeScanData(grid64, fields, aps)


def dense_full_physics(op, h, f, ap, foci):
    """The full-physics chain as it was: per focus, the dense source K * f
    over every cell (the self-cell quadrature redone per focus), a forward
    solve by the former CG loop, then the boundary functional."""
    out = []
    for x in foci:
        s = reference_samples(ap, op.grid, x) * f.values.ravel()
        u, _ = reference_cg(op, s)
        out.append(boundary_functional(h, boundary_flux(op, u)))
    return np.array(out)


def config_case(*items):
    """Settings, phantom, operator, datum, weight and cones of DEFAULTS
    with overrides."""
    settings = Settings(
        dict(DEFAULTS, **dict(item.split("=", 1) for item in items)))
    truth = build_phantom(settings.phantom, settings.grid)
    op, h, v = pipeline._diffusion(settings, {})
    return settings, truth, op, h, v, settings.apertures


GRID_3D = ("grid.dim=3", "grid.origin=-10,-10,-10", "grid.extent=20,20,20",
           "grid.cells=16,16,16",
           "phantom.inclusions=2.5,2.5,0,1.5,5.0; -3.5,0,0,1.5,10.0")


class TestFullPhysicsReference:
    """The support-sampled chain and the test-first CG give the former
    dense chain's measurements bit for bit."""

    def test_default_spot_check_points(self, monkeypatch):
        settings, truth, op, h, v, aps = config_case()
        clean = simulate_boundary_scan(
            truth, v, pipeline._cone_operator(aps, truth.grid, {}))
        calls = []

        def checked(op, h, f, ap, foci, stats):
            got = full_physics_measurements(op, h, f, ap, foci, stats)
            assert np.array_equal(got, dense_full_physics(op, h, f, ap, foci))
            calls.append(len(foci))
            return got

        monkeypatch.setattr(pipeline, "full_physics_measurements", checked)
        pipeline._spot_check(op, h, truth, clean,
                              pipeline._spot_points(settings.spot_checks,
                                                    truth.grid), {})
        assert calls == [9]

    @pytest.mark.parametrize("items,foci", [
        (("grid.cells=64,64",), "off-lattice"),
        (GRID_3D, "lattice"),
        (GRID_3D, "off-lattice"),
        (("grid.cells=64,64", "phantom.background=0.5"), "lattice")],
        ids=["2d-off-lattice-4x4", "3d-lattice", "3d-off-lattice",
             "2d-background"])
    def test_matches_dense_chain(self, items, foci):
        _, truth, op, h, _, aps = config_case(*items)
        grid = truth.grid
        centers = grid.centers().reshape(-1, grid.dim)
        if foci == "lattice":
            # cells of the support, where the self-cell weight is sampled,
            # and cells spread over the grid
            support = np.flatnonzero(truth.values)
            points = np.concatenate([centers[support[::support.size // 4]],
                                     centers[::centers.shape[0] // 4]])
        else:
            points = make_grid(grid.dim, (-4.1,) * grid.dim, (8.0,) * grid.dim,
                               (4,) * grid.dim).centers().reshape(-1, grid.dim)
        if "phantom.background=0.5" in items:
            assert np.all(truth.values != 0.0)
        else:
            assert np.count_nonzero(truth.values) < truth.values.size
        for ap in aps[:2]:
            assert np.array_equal(
                full_physics_measurements(op, h, truth, ap, points),
                dense_full_physics(op, h, truth, ap, points))

    def test_zero_source_foci_skip_the_solve(self, monkeypatch):
        # 37 of the default 100 spot-check foci see no phantom cell through
        # the first cone; each measures +0.0, what its solve would give
        settings, truth, op, h, v, aps = config_case("run.spot_checks=100")
        clean = simulate_boundary_scan(
            truth, v, pipeline._cone_operator(aps, truth.grid, {}))
        solved, measured = [], []

        def counted_solve(op, s):
            solved.append(s)
            return solve_forward(op, s)

        def kept(op, h, f, ap, foci, stats):
            measured.append(full_physics_measurements(op, h, f, ap, foci,
                                                      stats))
            return measured[-1]

        monkeypatch.setattr(excitation, "solve_forward", counted_solve)
        monkeypatch.setattr(pipeline, "full_physics_measurements", kept)
        report = {}
        pipeline._spot_check(op, h, truth, clean,
                              pipeline._spot_points(settings.spot_checks,
                                                    truth.grid), report)
        (got,) = measured
        assert got.size == 100 and len(solved) == 63
        assert (report["spot_check.solves"], report["spot_check.skipped"],
                report["spot_check.cg_iterations"]) == ("63", "37", "63")
        assert np.count_nonzero(got) == 63
        assert not np.any(np.signbit(got))
        zero = boundary_functional(h, boundary_flux(
            op, solve_forward(op, np.zeros(truth.grid.cells))))
        assert zero == 0.0 and not np.signbit(zero)

    def test_samples_only_the_support_and_weighs_the_self_cell_once(
            self, monkeypatch):
        # every focus is sampled once, in order, on the support only, in
        # blocks of at most KERNEL_BLOCK_SAMPLES offsets and at least one
        # focus (the default bound, bounds of 3, 2 and 1 foci, and one
        # below the support); the self-cell quadrature runs once a call
        _, truth, op, h, _, aps = config_case("grid.cells=64,64")
        support = np.count_nonzero(truth.values)
        centers = truth.grid.centers().reshape(-1, 2)[
            np.flatnonzero(truth.values)]
        foci = truth.grid.centers()[20:44:6, 20:44:12].reshape(-1, 2)
        assert len(foci) == 8
        sampled, quadratures = [], []
        kernel_samples = excitation._kernel_samples
        angular_integral = Aperture.angular_integral

        def counted_samples(ap, grid, d, self_weight):
            sampled.append(d.copy())
            return kernel_samples(ap, grid, d, self_weight)

        def counted_integral(ap):
            quadratures.append(ap)
            return angular_integral(ap)

        monkeypatch.setattr(excitation, "_kernel_samples", counted_samples)
        monkeypatch.setattr(Aperture, "angular_integral", counted_integral)
        default = excitation.KERNEL_BLOCK_SAMPLES
        for bound, sizes in [(default, [8]), (3 * support + 2, [3, 3, 2]),
                             (2 * support + 1, [2] * 4), (support, [1] * 8),
                             (support - 1, [1] * 8)]:
            monkeypatch.setattr(excitation, "KERNEL_BLOCK_SAMPLES", bound)
            del sampled[:], quadratures[:]
            full_physics_measurements(op, h, truth, aps[0], foci)
            assert quadratures == [aps[0]]
            for d in sampled:
                assert d.ndim == 3 and d.shape[1:] == (support, 2)
                assert d.shape[0] == 1 or d.shape[0] * support <= bound
            assert [d.shape[0] for d in sampled] == sizes
            assert np.concatenate(sampled).tobytes() == \
                (foci[:, None, :] - centers).tobytes()


def lattice_foci(grid, count):
    """The cell centres of `pipeline._spot_points` for `count` checks."""
    centers = grid.centers()
    return [centers[p] for p in pipeline._spot_points(count, grid)]


GRID_24 = GRID_3D[:3] + ("grid.cells=24,24,24",) + GRID_3D[4:]
GRID_20x16x10 = GRID_3D[:3] + ("grid.cells=20,16,10",) + GRID_3D[4:]


class TestBlockedSpotCheck:
    """`full_physics_measurements` samples a block of foci per call; each
    measurement keeps the bits of one sampling per focus, with the forward
    solve's mode products in np.tensordot and the flux a loop over the
    boundary sides (`oracles.per_focus_measurements`)."""

    @pytest.mark.parametrize("items,count,cones", [
        (("run.spot_checks=100",), 100, 1),
        (("phantom.inclusions=0,0,15,5.0",), 4, 1),
        (("cones.count=7", "cones.start_deg=13"), 9, 7),
        (GRID_24, 16, 2),
        (GRID_20x16x10, 9, 2)],
        ids=["128^2-100-foci", "grid-filling", "7-tilted-cones", "24^3",
             "20x16x10"])
    def test_blocks_are_the_per_focus_loop(self, items, count, cones,
                                           monkeypatch):
        _, truth, op, h, _, aps = config_case(*items)
        grid = truth.grid
        foci = lattice_foci(grid, count)
        blocks = []
        kernel_samples = excitation._kernel_samples
        monkeypatch.setattr(excitation, "_kernel_samples",
                            lambda ap, grid, d, w: blocks.append(d.shape[0])
                            or kernel_samples(ap, grid, d, w))
        for ap in aps[:cones]:
            del blocks[:]
            got = full_physics_measurements(op, h, truth, ap, foci)
            with monkeypatch.context() as m:
                m.setattr(op, "_precondition",
                          lambda r: tensordot_precondition(op, r, boxed=True))
                want = per_focus_measurements(op, h, truth, ap, foci)
            assert same_bits(got, want)
            assert np.count_nonzero(got) > 0
            support = np.count_nonzero(truth.values)
            assert sum(blocks) == count
            assert blocks[0] == min(count, max(
                1, excitation.KERNEL_BLOCK_SAMPLES // support))
        if "phantom.inclusions=0,0,15,5.0" in items:
            # the inclusion fills the grid: one focus per block
            assert np.count_nonzero(truth.values) == grid.n_cells
            assert blocks == [1] * count
        elif count == 100:
            # 252 support cells: blocks of 65 foci
            assert blocks == [65, 35]

    def test_sampler_working_set_is_one_block(self, monkeypatch):
        # 4,225 foci, the largest spot-check lattice at 128^2, with the
        # solve chain stubbed: beside the foci and the results, only one
        # block's sample arrays are live (measured 11.4 block-sized double
        # arrays of KERNEL_BLOCK_SAMPLES; all the foci in one call, 414)
        _, truth, op, h, _, aps = config_case("run.spot_checks=4225")
        foci = lattice_foci(truth.grid, 4225)
        assert len(foci) == 4225
        monkeypatch.setattr(excitation, "solve_forward", lambda op, s: None)
        monkeypatch.setattr(excitation, "boundary_flux", lambda op, u: None)
        monkeypatch.setattr(excitation, "boundary_functional",
                            lambda h, q: 1.0)
        got, peak = traced_peak(
            lambda: full_physics_measurements(op, h, truth, aps[0], foci))
        assert got.shape == (4225,) and 0 < np.count_nonzero(got) < 4225
        assert peak <= 16 * 8 * excitation.KERNEL_BLOCK_SAMPLES

    @pytest.mark.parametrize("items", [(), GRID_24], ids=["2d", "3d"])
    def test_zero_support_measures_zero_without_a_solve(self, items,
                                                        monkeypatch):
        _, truth, op, h, _, aps = config_case(*items)
        zero = ScalarField(truth.grid, np.zeros(truth.grid.cells))
        monkeypatch.setattr(excitation, "solve_forward",
                            lambda op, s: pytest.fail("solved a zero source"))
        foci = lattice_foci(truth.grid, 9)
        got = full_physics_measurements(op, h, zero, aps[0], foci)
        assert same_bits(got, np.zeros(9))
        assert full_physics_measurements(op, h, zero, aps[0], []).shape == (0,)


def spot_sources(monkeypatch, items, count):
    """The grid-shaped nonzero sources of the spot check of `count` lattice
    foci on the config `items`, from `full_physics_measurements` with the
    solve stubbed; and the operator."""
    _, truth, op, h, _, aps = config_case(*items)
    sources = []
    with monkeypatch.context() as m:
        m.setattr(excitation, "solve_forward",
                  lambda op, s: sources.append(s.reshape(op.grid.cells))
                  or np.zeros(op.grid.cells))
        full_physics_measurements(op, h, truth, aps[0],
                                  lattice_foci(truth.grid, count))
    return op, sources


class TestSupportBoxPrecondition:
    """`_precondition`'s forward mode products contract only the bounding
    box of a spot-check source's support: the full contraction's terms in
    fewer K-blocks, within 4e-15 of the output's largest magnitude, and
    bit for bit the box contraction of `oracles.tensordot_precondition`."""

    @pytest.mark.parametrize("items", [
        ("grid.cells=64,64",), (), ("grid.cells=512,512",),
        ("grid.cells=600,200",), GRID_24,
        GRID_3D[:3] + ("grid.cells=48,48,48",) + GRID_3D[4:]],
        ids=["64^2", "128^2", "512^2", "600x200", "24^3", "48^3"])
    def test_box_is_the_full_contraction_within_roundoff(self, items,
                                                         monkeypatch):
        op, sources = spot_sources(monkeypatch, items, 25)
        assert len(sources) >= 9
        for r in sources:
            box = [np.flatnonzero(np.any(r, axis=tuple(
                a for a in range(r.ndim) if a != ax))) for ax in range(r.ndim)]
            assert any(ix[-1] - ix[0] + 1 < n
                       for ix, n in zip(box, r.shape))  # a proper sub-box
            got = op._precondition(r.copy())
            full = tensordot_precondition(op, r.copy())
            assert np.max(np.abs(got - full)) <= 4e-15 * np.max(np.abs(full))
            assert same_bits(got, tensordot_precondition(op, r.copy(),
                                                         boxed=True))
