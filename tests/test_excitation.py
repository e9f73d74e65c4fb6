"""Apertures, cone/X-ray transforms, and boundary-scan simulation."""

import contextlib
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from lumitomo.diffusion import (BoundaryField, assemble_operator,
                                boundary_flux, boundary_functional,
                                solve_adjoint_weight, solve_forward)
from lumitomo import algebraic, excitation, pipeline
from lumitomo.algebraic import (compose, lsqr, parametrix_preconditioner,
                                scan_linear_map)
from lumitomo.config import DEFAULTS, build_apertures
from lumitomo.errors import InvalidArgumentError
from lumitomo.excitation import (Aperture, ConeConvolution, ConeScanData,
                                 Sinogram, aperture_eval, cone_intensity,
                                 cone_kernel, cone_transform,
                                 full_physics_measurements,
                                 simulate_boundary_scan, xray_transform)
from lumitomo.fields import Grid, ScalarField, make_grid
from lumitomo.multiplier import invert_multiplier

from conftest import (centered_table, extended_grid, fan_apertures,
                      reference_cg, two_bump_phantom)


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
        assert aperture_eval(ap, (1.0, 0.0)) == pytest.approx(2.0)
        assert aperture_eval(ap, (-1.0, 0.0)) == pytest.approx(2.0)  # even
        assert aperture_eval(ap, (0.0, 1.0)) == 0.0

    def test_evenness_random_directions(self):
        ap = Aperture(dim=2, axis=unit(0.7), half_angle=0.5)
        rng = np.random.default_rng(0)
        for th in rng.uniform(0, 2 * np.pi, 20):
            d = np.array(unit(th))
            assert aperture_eval(ap, d) == pytest.approx(aperture_eval(ap, -d))

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            Aperture(dim=2, axis=(0.0, 0.0), half_angle=0.4)
        with pytest.raises(InvalidArgumentError):
            Aperture(dim=2, axis=(1, 0), half_angle=2.0)
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.4)
        with pytest.raises(InvalidArgumentError):
            aperture_eval(ap, (2.0, 0.0))  # not a unit vector


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
        src_idx = grid128.index_of((-5.0, 0.0))
        vals[src_idx] = 1.0
        f = ScalarField(grid128, vals)
        v = ScalarField.full(grid128, 1.0)
        out = cone_transform(f, v, ap)
        focus = (5.0, 0.3)
        expected = cone_intensity(ap, focus, (-5.0, 0.0)) * grid128.cell_volume
        got = out.values[grid128.index_of(focus)]
        assert got == pytest.approx(expected, rel=1e-2)

    def test_zero_field(self, grid128):
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.4)
        out = cone_transform(ScalarField.zeros(grid128),
                             ScalarField.full(grid128, 1.0), ap)
        assert np.all(out.values == 0)

    def test_linearity_in_f_and_v(self, grid64):
        ap = Aperture(dim=2, axis=unit(1.1), half_angle=0.5)
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 1.0)
        base = cone_transform(f, v, ap).values
        doubled_f = cone_transform(ScalarField(grid64, 2 * f.values), v, ap).values
        scaled_v = cone_transform(f, ScalarField.full(grid64, 3.0), ap).values
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
        v = ScalarField.full(g, 1.0)
        out = cone_transform(f, v, ap)
        r = np.linspace(0, 10, 20001)
        oracle = 2 * np.pi * np.trapezoid(np.exp(-r ** 2 / 2), r)
        center = out.values[g.index_of((0.0, 0.0))]
        assert center == pytest.approx(oracle, rel=2e-2)

    def test_fft_path_matches_direct_loop(self, grid64):
        # same grid: FFT convolution equals the explicit quadrature loop
        ap = Aperture(dim=2, axis=unit(0.4), half_angle=0.5)
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 1.0)
        fast = cone_transform(f, v, ap).values
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
        v = ScalarField.full(grid64, 1.0)
        big = extended_grid(grid64)
        out = cone_transform(f, v, ap, big)
        assert out.grid == big
        # compare a few foci against the direct sum
        centers = grid64.centers().reshape(-1, 2)
        g = (f.values * grid64.cell_volume).ravel()
        # exterior foci, where no self-cell correction enters
        for p in [(-15.0, 2.0), (12.0, -14.0)]:
            idx = big.index_of(p)
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
        fwd = conv.forward(g)
        for j, K in enumerate(kernels):
            assert rel_max(fwd[j], pow2_forward(g, K)) <= 1e-12
        ref = sum(pow2_adjoint(yj, K) for yj, K in zip(y, kernels))
        assert rel_max(conv.adjoint(y), ref) <= 1e-12

    def test_nested_focus_grid_matches_pow2_reference(self, grid64):
        aps = fan_apertures(3, 35.0)
        big = extended_grid(grid64)
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 0.5)
        g = np.zeros(big.cells)
        g[32:96, 32:96] = f.values * (0.5 * grid64.cell_volume)
        kernels = [centered_table(cone_kernel(ap, big)) for ap in aps]
        for out, K in zip(cone_transform(f, v, aps, big), kernels):
            assert out.grid == big
            assert rel_max(out.values, pow2_forward(g, K)) <= 1e-12
        y = np.random.default_rng(12).standard_normal((len(aps),) + big.cells)
        ref = sum(pow2_adjoint(yj, K) for yj, K in zip(y, kernels))
        assert rel_max(ConeConvolution(aps, big).adjoint(y), ref) <= 1e-12

    def test_aperture_list_matches_single_apertures(self, grid64):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 1.0)
        fields = cone_transform(f, v, aps)
        assert len(fields) == 3
        for fld, ap in zip(fields, aps):
            assert np.array_equal(fld.values, cone_transform(f, v, ap).values)

    def test_shared_operator_gives_the_same_bits(self, grid64):
        aps = fan_apertures(3, 35.0)
        conv = ConeConvolution(aps, grid64)
        f = two_bump_phantom(grid64)
        v = ScalarField(grid64,
                        1.0 + np.random.default_rng(13).random(grid64.cells))
        scan = simulate_boundary_scan(f, v, aps)
        shared = simulate_boundary_scan(f, v, aps, conv=conv)
        for a, b in zip(scan.fields, shared.fields, strict=True):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(invert_multiplier(scan, v).values,
                              invert_multiplier(scan, v, conv=conv).values)
        x = f.values.ravel()
        own, given = scan_linear_map(aps, v), scan_linear_map(aps, v, conv=conv)
        y = own.forward(x)
        assert np.array_equal(y, given.forward(x))
        assert np.array_equal(own.adjoint(y), given.adjoint(y))

    def test_empty_cone_set_is_refused(self, grid64):
        with pytest.raises(InvalidArgumentError, match="at least one aperture"):
            ConeConvolution([], grid64)

    def test_operator_of_other_cones_or_grid_is_refused(self, grid64):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 1.0)
        scan = simulate_boundary_scan(f, v, aps)
        coarse = make_grid(2, grid64.origin, grid64.extent, (32, 32))
        for conv in (ConeConvolution(aps[:2], grid64),
                     ConeConvolution(aps, coarse)):
            with pytest.raises(InvalidArgumentError):
                cone_transform(f, v, aps, conv=conv)
            with pytest.raises(InvalidArgumentError):
                invert_multiplier(scan, v, conv=conv)
            with pytest.raises(InvalidArgumentError):
                scan_linear_map(aps, v, conv=conv)


class PerConeConvolution:
    """Reference: `ConeConvolution` as it was before apertures that are the
    same double cone shared one spectrum; one kernel, spectrum and FFT per
    cone."""

    def __init__(self, apertures, grid):
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
        G = np.fft.rfftn(g, self.shape, axes=self.axes)
        return np.stack([self._inverse(G * S) for S in self.spectra])

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
        fwd = conv.forward(g)
        assert fwd.shape == (len(aps),) + grid.cells
        assert rel_max(fwd, ref.forward(g)) <= 1e-12
        assert rel_max(conv.adjoint(y), ref.adjoint(y)) <= 1e-12
        # a cone and its double cone get the same row
        first = [list(conv.group).index(i) for i in conv.group]
        assert np.array_equal(fwd, fwd[first])

    def test_bit_identical_without_duplicates(self, grid64):
        aps = fan_apertures(3, 35.0)
        rng = np.random.default_rng(22)
        g = rng.standard_normal(grid64.cells)
        y = rng.standard_normal((3,) + grid64.cells)
        conv, ref = ConeConvolution(aps, grid64), PerConeConvolution(aps, grid64)
        assert conv.spectra.shape[0] == 3
        assert np.array_equal(conv.forward(g), ref.forward(g))
        assert np.array_equal(conv.adjoint(y), ref.adjoint(y))

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_forward_is_bit_identical_to_stacked_copies(self, grid, aps,
                                                        n_distinct):
        # the former forward stacked one inverse FFT per group and indexed
        # the stack by group; each group now fills its rows of one array
        g = np.random.default_rng(26).standard_normal(grid.cells)
        conv = ConeConvolution(aps, grid)
        G = np.fft.rfftn(g, conv.shape, axes=(0, 1, 2)[:grid.dim])
        stacked = np.stack([conv._inverse(G * S, np.empty(grid.cells))
                            for S in conv.spectra])[conv.group]
        assert np.array_equal(conv.forward(g), stacked)

    def test_default_cones_are_five_spectra(self):
        grid = make_grid(2, (-10, -10), (20, 20), (32, 32))
        conv = ConeConvolution(build_apertures(DEFAULTS, 2), grid)
        assert conv.spectra.shape[0] == 5
        assert list(conv.group) == [0, 1, 2, 3, 4] * 2

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_dot_test_with_duplicates(self, grid, aps, n_distinct):
        v = ScalarField(grid, 1.0 + np.random.default_rng(23).random(grid.cells))
        linmap = scan_linear_map(aps, v)
        assert linmap.n_data == len(aps) * grid.n_cells
        assert linmap.dot_test(seed=5) <= 1e-12

    def test_lsqr_iterates_match_per_cone_reference(self, monkeypatch):
        # LSQR drifts from roundoff as it runs (~1e-3 of the maximum by 50
        # iterations), so the two operators are compared after 20; the
        # residual estimates of iterations 13-15 differ by up to 0.5% here
        # before they meet again, so only the last one is compared
        grid = make_grid(2, (-10, -10), (20, 20), (48, 48))
        aps = build_apertures(DEFAULTS, 2)
        v = ScalarField(grid, 1.0 + np.random.default_rng(24).random(grid.cells))
        f = two_bump_phantom(grid).values.ravel()

        def solve():
            linmap = scan_linear_map(aps, v)
            data = linmap.forward(f)
            noise = np.random.default_rng(25).random(data.size)
            data += 1e-3 * np.max(data) * noise
            return lsqr(linmap, data, max_iters=20, atol=0.0)

        x, history = solve()
        monkeypatch.setattr(algebraic, "ConeConvolution", PerConeConvolution)
        x_ref, history_ref = solve()
        assert len(history) == len(history_ref) == 21
        assert rel_max(x, x_ref) <= 1e-6
        assert rel_max(history[-1], history_ref[-1]) <= 1e-6


def operator_calls(conv, seed):
    """forward, adjoint and filter of `conv` on random inputs: filter on a
    grid-shaped field, and on one of the circular grid's shape cropped from
    a block offset (the multiplier's extended scan)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(conv.cells)
    y = rng.standard_normal((len(conv.group),) + conv.cells)
    symbol = rng.random(conv.spectra.shape[1:])
    g2 = rng.standard_normal(conv.shape)
    start = tuple(n // 2 for n in conv.cells)
    return [lambda: conv.forward(g), lambda: conv.adjoint(y),
            lambda: conv.filter(g, symbol),
            lambda: conv.filter(g2, symbol, start)]


class TestWorkspace:
    """`ConeConvolution.reusing_buffers`: the same bytes from reused FFT work
    arrays, which never escape and live only while the block runs."""

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_bytes_equal_inside_and_outside_the_block(self, grid, aps,
                                                      n_distinct):
        conv = ConeConvolution(aps, grid)
        calls = operator_calls(conv, 31)
        outside = [call().tobytes() for call in calls]
        with conv.reusing_buffers():
            # twice: the second pass runs on work arrays the first filled
            for _ in range(2):
                assert [call().tobytes() for call in calls] == outside

    @pytest.mark.parametrize("grid,aps,n_distinct", DUPLICATED,
                             ids=["2d-48x64", "3d-16"])
    def test_results_do_not_change_on_later_calls(self, grid, aps,
                                                  n_distinct):
        conv = ConeConvolution(aps, grid)
        calls = operator_calls(conv, 32)
        later = operator_calls(conv, 33)
        with conv.reusing_buffers():
            results = [call() for call in calls]
            saved = [r.copy() for r in results]
            for call in later:
                call()
            for r, s in zip(results, saved):
                assert r.tobytes() == s.tobytes()

    def test_buffers_are_dropped_on_exit_and_on_an_exception(self, grid64):
        conv = ConeConvolution(fan_apertures(3, 35.0), grid64)
        forward = operator_calls(conv, 34)[0]
        for fail in (False, True):
            with pytest.raises(ZeroDivisionError) if fail else \
                    contextlib.nullcontext():
                with conv.reusing_buffers():
                    forward()
                    refs = [weakref.ref(b) for b in conv._buffers.values()]
                    assert refs
                    if fail:
                        1 / 0
            assert conv._buffers is None
            gc.collect()
            assert all(ref() is None for ref in refs)

    def test_not_reentrant(self, grid64):
        conv = ConeConvolution(fan_apertures(3, 35.0), grid64)
        with conv.reusing_buffers():
            with pytest.raises(RuntimeError, match="not reentrant"):
                with conv.reusing_buffers():
                    pass
            # the refused entry leaves the outer block's buffers alone
            assert conv._buffers is not None
        assert conv._buffers is None

    def test_calls_in_the_block_allocate_only_their_results(self):
        grid = make_grid(2, (-10, -10), (20, 20), (64, 64))
        conv = ConeConvolution(build_apertures(DEFAULTS, 2), grid)
        calls = operator_calls(conv, 35)
        # the result, numpy's buffer for casting a real spectrum to complex
        # in a product, and a few views
        bound = np.getbufsize() * np.dtype(complex).itemsize + 16384

        def peak_over_result(call):
            tracemalloc.start()
            try:
                size = call().nbytes
                return tracemalloc.get_traced_memory()[1] - size
            finally:
                tracemalloc.stop()

        with conv.reusing_buffers():
            for call in calls:
                call()
                assert peak_over_result(call) <= bound
        # outside the block every call makes its own FFT arrays
        assert all(peak_over_result(call) > bound for call in calls)

    def test_preconditioned_lsqr_bytes_equal_with_the_block(self):
        grid = make_grid(2, (-10, -10), (20, 20), (32, 32))
        aps = build_apertures(DEFAULTS, 2)
        v = ScalarField(grid, 1.0 + np.random.default_rng(36).random(grid.cells))
        conv = ConeConvolution(aps, grid)
        linmap = compose(scan_linear_map(aps, v, conv=conv),
                         parametrix_preconditioner(conv, v))
        data = scan_linear_map(aps, v, conv=conv).forward(
            two_bump_phantom(grid).values.ravel())
        data += 1e-3 * np.max(data) * np.random.default_rng(37).random(data.size)
        x, history = lsqr(linmap, data, max_iters=15, atol=0.0)
        with conv.reusing_buffers():
            x_ws, history_ws = lsqr(linmap, data, max_iters=15, atol=0.0)
        assert len(history) == 16
        assert x_ws.tobytes() == x.tobytes()
        assert np.asarray(history_ws).tobytes() == np.asarray(history).tobytes()


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


class TestXrayTransform:
    @pytest.mark.parametrize("block", [excitation.XRAY_BLOCK_SAMPLES, 250])
    def test_matches_joseph_per_ray(self, monkeypatch, block):
        monkeypatch.setattr(excitation, "XRAY_BLOCK_SAMPLES", block)
        g, offsets = small_grid()
        f = ScalarField(g, np.random.default_rng(4).uniform(0.5, 1.5, g.cells))
        angles = SMALL_ANGLES
        sino = xray_transform(f, angles, offsets)
        assert np.array_equal(sino.values, joseph_per_ray(f, angles, offsets))

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
        sino = xray_transform(ScalarField.zeros(grid64),
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
        # the clip leaves every line that meets the grid alone: the default
        # run's sinogram against the per-ray reference on every angle and
        # every 15th offset, the two extreme ones included
        from lumitomo.cli import main
        from lumitomo.ltfio import read_field, read_sinogram
        assert main(["run-xlct", "-o", str(tmp_path)]) == 0
        sino = read_sinogram(tmp_path / "sinogram.ltf")
        g = ScalarField(read_field(tmp_path / "truth.ltf").grid,
                        read_field(tmp_path / "weight.ltf").values
                        * read_field(tmp_path / "truth.ltf").values)
        cols = np.r_[0:sino.offsets.size:15, sino.offsets.size - 1]
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
    """One sampler serves the lattice table, the direct sums and the cone
    sources; each keeps the bits of the code it replaced."""

    @pytest.mark.parametrize("grid,aps", KERNEL_CASES)
    def test_cone_kernel_is_bit_identical(self, grid, aps):
        for ap in aps:
            K = cone_kernel(ap, grid)
            assert K.shape == tuple(2 * n for n in grid.cells)
            assert K.tobytes() == wrapped_table(
                reference_cone_kernel(ap, grid)).tobytes()

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
    def test_off_lattice_direct_sums_are_bit_identical(self, grid, aps):
        f = ScalarField(grid, np.cos(grid.centers()[..., 0]) + 2.0)
        v = ScalarField.full(grid, 0.7)
        g = (f.values * (v.values * grid.cell_volume)).ravel()
        # foci on every third cell centre (self-cell weight), then foci
        # between centres
        for focus in (make_grid(grid.dim, grid.origin, grid.extent,
                                tuple(n // 3 for n in grid.cells)),
                      make_grid(grid.dim, tuple(o + 0.3 for o in grid.origin),
                                tuple(0.5 * e for e in grid.extent),
                                (4,) * grid.dim)):
            for ap, out in zip(aps, cone_transform(f, v, aps, focus)):
                ref = [np.dot(reference_samples(ap, grid, x), g)
                       for x in focus.centers().reshape(-1, grid.dim)]
                assert np.array_equal(out.values.ravel(), ref)

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
                            lambda op, s: sources.append(s.values) or s)
        monkeypatch.setattr(excitation, "boundary_flux",
                            lambda op, u, mode: h)
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
        focus = make_grid(2, (-4, -4), (8, 8), (4, 4))
        v = solve_adjoint_weight(op, h)
        fast = simulate_boundary_scan(f, v, [ap], focus_grid=focus)
        full = full_physics_measurements(op, h, f, ap,
                                         focus.centers().reshape(-1, 2))
        scale = np.max(np.abs(fast.fields[0].values))
        mismatch = np.max(np.abs(fast.fields[0].values.ravel() - full))
        assert mismatch <= 2e-2 * scale

    def test_zero_phantom_both_modes(self, tissue_medium):
        g = make_grid(2, (-10, -10), (20, 20), (16, 16))
        op = assemble_operator(g, tissue_medium)
        h = BoundaryField.constant(g, 1.0)
        f = ScalarField.zeros(g)
        ap = Aperture(dim=2, axis=(1, 0), half_angle=0.4)
        focus = make_grid(2, (-4, -4), (8, 8), (4, 4))
        scan = simulate_boundary_scan(f, solve_adjoint_weight(op, h), [ap],
                                      focus_grid=focus)
        assert np.max(np.abs(scan.fields[0].values)) <= 1e-12
        full = full_physics_measurements(op, h, f, ap,
                                         focus.centers().reshape(-1, 2))
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
            u = solve_forward(op, ScalarField(grid64, s.reshape(grid64.cells)))
            expected.append(boundary_functional(
                h, boundary_flux(op, u, mode="consistent")))
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
        s1 = simulate_boundary_scan(f, v, aps)
        s2 = simulate_boundary_scan(f2, v, aps)
        for a, b in zip(s1.fields, s2.fields):
            assert np.allclose(2 * a.values, b.values)

    def test_scan_data_grid_check(self, grid64, grid128):
        f = ScalarField.zeros(grid64)
        ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
        ConeScanData(grid64, [f], [ap])
        with pytest.raises(InvalidArgumentError, match="share the focus grid"):
            ConeScanData(grid128, [f], [ap])

    @pytest.mark.parametrize("n_fields,n_apertures", [(3, 1), (1, 3), (0, 0),
                                                      (2, 0)])
    def test_scan_data_needs_one_aperture_per_field(self, grid64, n_fields,
                                                    n_apertures):
        aps = fan_apertures(3, 35.0)[:n_apertures]
        fields = [ScalarField.zeros(grid64) for _ in range(n_fields)]
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
        out.append(boundary_functional(
            h, boundary_flux(op, ScalarField(op.grid, u), mode="consistent")))
    return np.array(out)


def config_case(*items):
    """Config, phantom, operator, datum, weight and cones of DEFAULTS with
    overrides."""
    cfg = dict(DEFAULTS, **dict(item.split("=", 1) for item in items))
    truth = pipeline._phantom(cfg)
    op, h, v = pipeline._diffusion(cfg, truth.grid, {})
    return cfg, truth, op, h, v, build_apertures(cfg, truth.grid.dim)


GRID_3D = ("grid.dim=3", "grid.origin=-10,-10,-10", "grid.extent=20,20,20",
           "grid.cells=16,16,16",
           "phantom.inclusions=2.5,2.5,0,1.5,5.0; -3.5,0,0,1.5,10.0")


class TestFullPhysicsReference:
    """The support-sampled chain and the test-first CG give the former
    dense chain's measurements bit for bit."""

    def test_default_spot_check_points(self, monkeypatch):
        cfg, truth, op, h, v, aps = config_case()
        clean, _ = pipeline._cone_scan(truth, v, aps, {})
        calls = []

        def checked(op, h, f, ap, foci):
            got = full_physics_measurements(op, h, f, ap, foci)
            assert np.array_equal(got, dense_full_physics(op, h, f, ap, foci))
            calls.append(len(foci))
            return got

        monkeypatch.setattr(pipeline, "full_physics_measurements", checked)
        pipeline._spot_check(op, h, truth, clean,
                              pipeline._spot_points(cfg, truth.grid), {})
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
        cfg, truth, op, h, v, aps = config_case("run.spot_checks=100")
        clean, _ = pipeline._cone_scan(truth, v, aps, {})
        solved, measured = [], []

        def counted_solve(op, s):
            solved.append(s)
            return solve_forward(op, s)

        def kept(op, h, f, ap, foci):
            measured.append(full_physics_measurements(op, h, f, ap, foci))
            return measured[-1]

        monkeypatch.setattr(excitation, "solve_forward", counted_solve)
        monkeypatch.setattr(pipeline, "full_physics_measurements", kept)
        pipeline._spot_check(op, h, truth, clean,
                              pipeline._spot_points(cfg, truth.grid), {})
        (got,) = measured
        assert got.size == 100 and len(solved) == 63
        assert np.count_nonzero(got) == 63
        assert not np.any(np.signbit(got))
        zero = boundary_functional(h, boundary_flux(
            op, solve_forward(op, ScalarField.zeros(truth.grid)),
            mode="consistent"))
        assert zero == 0.0 and not np.signbit(zero)

    def test_samples_only_the_support_and_weighs_the_self_cell_once(
            self, monkeypatch):
        _, truth, op, h, _, aps = config_case("grid.cells=64,64")
        support = np.count_nonzero(truth.values)
        sampled, quadratures = [], []
        kernel_samples = excitation._kernel_samples
        angular_integral = Aperture.angular_integral

        def counted_samples(ap, grid, d, self_weight):
            sampled.append(d.shape)
            return kernel_samples(ap, grid, d, self_weight)

        def counted_integral(ap):
            quadratures.append(ap)
            return angular_integral(ap)

        monkeypatch.setattr(excitation, "_kernel_samples", counted_samples)
        monkeypatch.setattr(Aperture, "angular_integral", counted_integral)
        foci = truth.grid.centers()[20:44:6, 32]
        full_physics_measurements(op, h, truth, aps[0], foci)
        assert sampled == [(support, 2)] * len(foci)
        assert quadratures == [aps[0]]
