"""LSQR solver, scan operator adjointness, noise, and the error metric."""

import numpy as np
import pytest

from lumitomo import algebraic, pipeline
from lumitomo.algebraic import (LinearMap, apply_noise, compose,
                                lsqr, lsqr_stop_reason,
                                parametrix_preconditioner, relative_error,
                                scan_linear_map, whole_grid_error)
from lumitomo.config import DEFAULTS, Settings, build_apertures, load_config
from lumitomo.errors import (EmptyMaskError, InvalidArgumentError,
                             InvalidOperatorError)
from lumitomo.excitation import (Aperture, ConeConvolution, ConeScanData,
                                 cone_transform)
from lumitomo.fields import ScalarField, make_grid

from conftest import (constant_field, fan_apertures, traced_peak,
                      two_bump_phantom)
from oracles import stacked_data, stacked_linear_map


def dense_map(A):
    return LinearMap(n_data=A.shape[0], n_model=A.shape[1],
                     forward=lambda x: A @ x, adjoint=lambda y: A.T @ y)


class TestLsqr:
    def test_recovers_well_conditioned_dense_solution(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((40, 12))
        x_true = rng.standard_normal(12)
        x, hist = lsqr(dense_map(A), A @ x_true, max_iters=200, atol=1e-12)
        # compare against the normal-equations solution from lstsq
        x_ref = np.linalg.lstsq(A, A @ x_true, rcond=None)[0]
        assert np.max(np.abs(x - x_ref)) <= 1e-9
        assert np.max(np.abs(x - x_true)) <= 1e-9

    def test_least_squares_on_inconsistent_data(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((50, 10))
        b = rng.standard_normal(50)
        x, _ = lsqr(dense_map(A), b, max_iters=300, atol=1e-13)
        x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.max(np.abs(x - x_ref)) <= 1e-8

    def test_history_shape_and_monotone_residual(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        _, hist = lsqr(dense_map(A), b, max_iters=100, atol=1e-13)
        assert hist.ndim == 2 and hist.shape[1] == 4
        assert np.all(np.diff(hist[:, 1]) <= 1e-12)

    def test_zero_data_returns_zero(self):
        A = np.eye(5)
        x, hist = lsqr(dense_map(A), np.zeros(5))
        assert np.all(x == 0)

    def test_bad_adjoint_rejected(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((10, 10))
        B = rng.standard_normal((10, 10))
        bad = LinearMap(10, 10, lambda x: A @ x, lambda y: B.T @ y)
        with pytest.raises(InvalidOperatorError):
            lsqr(bad, np.ones(10))

    def test_data_left_unchanged(self):
        # lsqr updates its vectors in place; neither `data` nor an operator
        # that hands back its own input may be written through
        rng = np.random.default_rng(8)
        A = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        kept = b.copy()
        lsqr(dense_map(A), b, max_iters=20)
        assert np.array_equal(b, kept)
        identity = LinearMap(30, 30, lambda x: x, lambda y: y)
        x, _ = lsqr(identity, b, max_iters=5)
        assert np.array_equal(b, kept)
        assert np.max(np.abs(x - b)) <= 1e-12

    def test_data_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            lsqr(dense_map(np.eye(4)), np.ones(5))

    def test_discrepancy_stop(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((40, 10))
        b = A @ rng.standard_normal(10) + 0.5 * rng.standard_normal(40)
        _, full = lsqr(dense_map(A), b, max_iters=100, atol=1e-13)
        stop = 0.5 * (full[2, 1] + full[3, 1])
        x, hist = lsqr(dense_map(A), b, max_iters=100, atol=1e-13,
                       stop_residual=stop)
        assert hist[-1][0] == 3
        assert np.array_equal(hist, full[:4])
        assert lsqr_stop_reason(hist, 100, stop) == "discrepancy"
        assert np.linalg.norm(b - A @ x) == pytest.approx(hist[-1][1],
                                                          rel=1e-10)
        # data already within the noise level: x = 0, no iteration
        x, hist = lsqr(dense_map(A), b, stop_residual=np.linalg.norm(b))
        assert np.all(x == 0) and hist.shape == (1, 4)
        assert lsqr_stop_reason(hist, 100, np.linalg.norm(b)) == "discrepancy"

    def test_relative_normal_residual_column(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        _, hist = lsqr(dense_map(A), b, max_iters=100, atol=1e-10)
        # inconsistent data stop on the relative normal residual, the
        # fourth column, the first time it meets atol
        assert hist[0][3] == 1.0
        assert hist[-1][3] <= 1e-10 < np.min(hist[:-1, 3])
        # ||A|| is LSQR's Frobenius-norm estimate, at most ||A||_F
        frobenius = np.linalg.norm(A)
        assert np.all(hist[1:, 3] >= hist[1:, 2] / (frobenius * hist[1:, 1])
                      * (1 - 1e-12))

    def test_consistent_system_stops_on_the_residual(self):
        # singular values from 1 to 1e-2 keep ||A^T r|| / (||A|| ||r||)
        # far above atol while ||r|| goes to 0: the consistent-system test
        # ||r|| <= atol (||b|| + ||A|| ||x||) has to end the run
        rng = np.random.default_rng(12)
        U = np.linalg.qr(rng.standard_normal((80, 40)))[0]
        V = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        A = U @ np.diag(np.logspace(0, -2, 40)) @ V.T
        x_true = rng.standard_normal(40)
        b = A @ x_true
        x, hist = lsqr(dense_map(A), b, max_iters=500, atol=1e-8)
        assert lsqr_stop_reason(hist, 500) == "atol"
        assert hist[-1][0] < 500 and hist[-1][3] > 1e-3
        assert np.linalg.norm(A @ x - b) <= 1e-6 * np.linalg.norm(b)
        assert np.max(np.abs(x - x_true)) <= 1e-5

    def test_stop_reason(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        _, hist = lsqr(dense_map(A), b, max_iters=100, atol=1e-10)
        assert hist[-1][0] < 100
        assert lsqr_stop_reason(hist, 100) == "atol"
        _, hist = lsqr(dense_map(A), b, max_iters=3, atol=1e-10)
        assert lsqr_stop_reason(hist, 3) == "cap"
        _, hist = lsqr(dense_map(A), np.zeros(30), max_iters=3)
        assert lsqr_stop_reason(hist, 3) == "zero"

    @staticmethod
    def repeated_rows(seed):
        """A stacked matrix whose three row blocks appear 1, 2 and 3 times,
        data for it, and the reduction of both to one block each:
        sqrt(c) * block, sqrt(c) * the mean of its data, and the norm of
        the data's deviations from those means."""
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((3, 7, 5))
        counts = [1, 2, 3]
        group = [i for i, c in enumerate(counts) for _ in range(c)]
        A = np.vstack([blocks[i] for i in group])
        b = rng.standard_normal((len(group), 7))
        means = np.stack([b[np.equal(group, i)].mean(axis=0)
                          for i in range(3)])
        floor = np.linalg.norm(b - means[group])
        root = np.sqrt(counts)[:, None]
        return (A, b.ravel(), np.vstack(blocks * root[..., None]),
                (means * root).ravel(), floor)

    def test_residual_floor_gives_the_stacked_iterates(self):
        # the reduced system has the stacked one's normal equations, and the
        # floor adds the constant part of the residual back: the same x,
        # ||r||, ||A^T r|| and relative column at every iteration (the
        # running ||A|| estimate is the trace of the Lanczos matrix of A^T A
        # started from A^T b, the same for both systems)
        A, b, A_red, b_red, floor = self.repeated_rows(14)
        for max_iters in (2, 4, 50):
            x, hist = lsqr(dense_map(A), b, max_iters=max_iters, atol=1e-13)
            x_red, hist_red = lsqr(dense_map(A_red), b_red,
                                   max_iters=max_iters, atol=1e-13,
                                   residual_floor=floor)
            assert hist_red.shape == hist.shape
            assert np.max(np.abs(x_red - x)) <= 1e-10 * np.max(np.abs(x))
            # relative to each column's start: ||A^T r|| falls to roundoff
            assert np.max(np.abs(hist_red[:, 1:] - hist[:, 1:])
                          / hist[0, 1:]) <= 1e-12
            assert np.all(hist_red[:, 1] >= floor)
        stop = 0.5 * (hist[2, 1] + hist[3, 1])
        _, hist = lsqr(dense_map(A), b, max_iters=50, stop_residual=stop)
        _, hist_red = lsqr(dense_map(A_red), b_red, max_iters=50,
                           stop_residual=stop, residual_floor=floor)
        assert len(hist_red) == len(hist) == 4
        assert (lsqr_stop_reason(hist_red, 50, stop)
                == lsqr_stop_reason(hist, 50, stop) == "discrepancy")

    def test_residual_floor_alone(self):
        # data whose reduction is zero: x = 0, and the residual is the floor
        A, b, A_red, _, floor = self.repeated_rows(15)
        x, hist = lsqr(dense_map(A_red), np.zeros(A_red.shape[0]),
                       residual_floor=floor)
        assert np.all(x == 0)
        assert np.array_equal(hist, [[0, floor, 0.0, 0.0]])
        assert lsqr_stop_reason(hist, 500) == "zero"
        # a stop at or above the floor ends the run before an iteration
        _, hist = lsqr(dense_map(A_red), np.ones(A_red.shape[0]),
                       stop_residual=np.hypot(np.sqrt(A_red.shape[0]), floor),
                       residual_floor=floor)
        assert hist.shape == (1, 4)


class TestScanLinearMap:
    def test_dot_test_machine_precision(self, grid64):
        aps = fan_apertures(3, 35.0)
        v = constant_field(grid64, 1.0)
        linmap = scan_linear_map(ConeConvolution(aps, grid64), v)
        assert linmap.dot_test(seed=1) <= 1e-12

    def test_dot_test_3d(self):
        g = make_grid(3, (-8, -8, -8), (16, 16, 16), (16, 16, 16))
        aps = [Aperture(dim=3, axis=ax, half_angle=0.5)
               for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
        v = ScalarField(g, 1.0 + np.random.default_rng(2).random(g.cells))
        conv = ConeConvolution(aps, g)
        assert scan_linear_map(conv, v).dot_test(seed=3) <= 1e-12

    def test_forward_is_the_stacked_cone_transform(self, grid64):
        # the scan and LSQR apply one operator
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = ScalarField(grid64, 1.0 + np.random.default_rng(4).random(grid64.cells))
        conv = ConeConvolution(aps, grid64)
        stacked = np.concatenate([fld.values.ravel()
                                  for fld in cone_transform(f, v, conv)])
        forward = scan_linear_map(conv, v).forward(f.values.ravel())
        assert np.array_equal(forward, stacked)

    def test_shapes(self, grid64):
        aps = fan_apertures(2, 30.0)
        v = constant_field(grid64, 1.0)
        linmap = scan_linear_map(ConeConvolution(aps, grid64), v)
        assert linmap.n_model == grid64.n_cells
        assert linmap.n_data == 2 * grid64.n_cells
        out = linmap.forward(np.zeros(linmap.n_model))
        assert out.shape == (linmap.n_data,)

    def test_lsqr_recovers_phantom(self, grid64):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = constant_field(grid64, 1.0)
        linmap = scan_linear_map(ConeConvolution(aps, grid64), v)
        data = linmap.forward(f.values.ravel())
        x, _ = lsqr(linmap, data, max_iters=200, atol=1e-10)
        rec = x.reshape(grid64.cells)
        err = np.linalg.norm(rec - f.values) / np.linalg.norm(f.values)
        assert err <= 0.05


def random_weight(grid, seed):
    return ScalarField(grid, 0.5 + np.random.default_rng(seed).random(grid.cells))


PRECONDITIONED = [
    (make_grid(2, (-10, -6), (20, 12), (48, 64)),
     [Aperture(dim=2, axis=(np.cos(a), np.sin(a)), half_angle=0.5)
      for a in np.deg2rad([0.0, 70.0, 180.0, 250.0, 120.0])]),
    (make_grid(3, (-8, -8, -8), (16, 16, 16), (16, 16, 16)),
     [Aperture(dim=3, axis=ax, half_angle=0.5)
      for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (1, 1, 1))]),
]


def plain_capped_lsqr(data, v, conv, max_iters=200, atol=1e-8):
    """The pipeline's former LSQR: no preconditioner, no stop at the noise
    level, one data row per aperture, clipped at zero; kept as the
    reference for the preconditioned one."""
    x, _ = lsqr(stacked_linear_map(conv, v), stacked_data(data),
                max_iters=max_iters, atol=atol)
    return ScalarField(v.grid, np.maximum(x, 0.0).reshape(v.grid.cells))


def held_scene(settings):
    """Truth, weight, the held cone operator and the clean scan of the
    `scan` stages of a run with `settings`."""
    truth, v, _, clean = pipeline._simulate(settings, {}, inverts=False)
    return truth, v, ConeConvolution(settings.apertures, truth.grid), clean


@pytest.fixture(scope="module")
def default_scene():
    """Truth, weight, cone operator and clean scan of the default run: the
    scan of the noise-free default is the clean one.  The scan streams its
    spectra; the operator returned holds them, as LSQR's does."""
    return held_scene(Settings(load_config()))


class TestParametrixPreconditioner:
    @pytest.mark.parametrize("grid,aps", PRECONDITIONED, ids=["2d", "3d"])
    def test_dot_tests(self, grid, aps):
        v = random_weight(grid, 1)
        conv = ConeConvolution(aps, grid)
        M = parametrix_preconditioner(conv, v)
        assert M.dot_test(seed=1) <= 1e-12
        AM = compose(scan_linear_map(conv, v), M)
        assert (AM.n_data, AM.n_model) == (len(conv.spectra) * grid.n_cells,
                                           grid.n_cells)
        assert AM.dot_test(seed=2) <= 1e-12

    @pytest.mark.parametrize("grid,aps", PRECONDITIONED, ids=["2d", "3d"])
    def test_symbol_sums_over_every_cone(self, grid, aps):
        # cones of one double cone share a spectrum but each counts in
        # sum_j S_j^2: the same M from one spectrum per cone
        v = random_weight(grid, 4)
        conv = ConeConvolution(aps, grid)
        assert len(conv.spectra) < len(aps)
        power = np.sum(conv.spectra[conv.group] ** 2, axis=0)
        symbol = 1.0 / np.sqrt(power + algebraic.PARAMETRIX_MIX * power.max())
        z = np.random.default_rng(5).standard_normal(grid.cells)
        expected = conv.filter(z, symbol) / (v.values * grid.cell_volume)
        got = parametrix_preconditioner(conv, v).forward(z.ravel())
        assert np.max(np.abs(got - expected.ravel())) <= \
            1e-12 * np.max(np.abs(expected))

    def test_compose_refuses_mismatched_maps(self):
        with pytest.raises(InvalidArgumentError):
            compose(dense_map(np.ones((3, 4))), dense_map(np.ones((5, 2))))

    @pytest.mark.parametrize("grid,aps", PRECONDITIONED, ids=["2d", "3d"])
    def test_refuses_an_operator_of_another_grid(self, grid, aps):
        other = make_grid(grid.dim, grid.origin, grid.extent,
                          tuple(n + 2 for n in grid.cells))
        with pytest.raises(InvalidArgumentError):
            parametrix_preconditioner(ConeConvolution(aps, grid),
                                      random_weight(other, 1))

    @pytest.mark.parametrize("mix", [1e-1, 1e-3])
    def test_converges_to_the_least_squares_solution(self, monkeypatch, mix):
        # the preconditioner changes the iterates, not the solution: run to
        # convergence, x = M z is the dense least-squares solution whatever
        # the mixing term
        grid = make_grid(2, (-4, -4), (8, 8), (12, 12))
        aps = [Aperture(dim=2, axis=(np.cos(a), np.sin(a)), half_angle=0.6)
               for a in np.deg2rad([0.0, 60.0, 120.0])]
        v = random_weight(grid, 2)
        conv = ConeConvolution(aps, grid)
        A = scan_linear_map(conv, v)
        dense = np.stack([A.forward(e) for e in np.eye(grid.n_cells)], axis=1)
        b = np.random.default_rng(3).standard_normal(A.n_data)
        ref = np.linalg.lstsq(dense, b, rcond=None)[0]
        monkeypatch.setattr(algebraic, "PARAMETRIX_MIX", mix)
        M = parametrix_preconditioner(conv, v)
        z, hist = lsqr(compose(A, M), b, max_iters=2000, atol=1e-13)
        assert lsqr_stop_reason(hist, 2000) == "atol"
        x = M.forward(z)
        assert np.max(np.abs(x - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("photons", ["1e2", "1e3"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_worse_than_plain_capped_lsqr(self, default_scene, photons,
                                             seed):
        truth, v, conv, clean = default_scene
        settings = Settings(load_config(None, [
            "noise.kind=poisson", f"noise.photons={photons}",
            f"run.seed={seed}", "recon.method=lsqr"]), inverts=True)
        report = {}
        data = pipeline._noisy_scan(clean, settings, report)
        fields, _ = pipeline._reconstruct(
            settings, pipeline._ScanSums(data, conv, settings.method), v,
            conv, report)
        assert report["lsqr.stop_reason"] == "discrepancy"
        error = relative_error(truth, fields["recon_lsqr"], 0.5)[1]
        reference = relative_error(truth, plain_capped_lsqr(data, v, conv),
                                   0.5)[1]
        assert error <= reference


# cone sets whose distinct cones have 3, 2 and 1 apertures
MIXED = [
    # non-square, unequal spacing
    (make_grid(2, (-10, -6), (20, 12), (48, 64)),
     [Aperture(dim=2, axis=(np.cos(a), np.sin(a)), half_angle=0.5)
      for a in np.deg2rad([0.0, 180.0, 0.0, 70.0, 250.0, 120.0])]),
    (make_grid(3, (-8, -8, -8), (16, 16, 16), (16, 16, 16)),
     [Aperture(dim=3, axis=ax, half_angle=0.5)
      for ax in ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 1), (0, -1, 0),
                 (1, 0, 0))]),
]


class TestRowPath:
    """A x of the scan operator one distinct cone's row at a time: LSQR
    adds each row into u in place and forms its dot test row by row."""

    @staticmethod
    def problem():
        # 64^2 with the default cones, as in a `both` run: 5 distinct
        # double cones, so a data vector takes 5 * 64^2 * 8 = 160 KB and a
        # model vector 32 KB
        grid = make_grid(2, (-10, -10), (20, 20), (64, 64))
        conv = ConeConvolution(build_apertures(DEFAULTS, 2), grid)
        v = random_weight(grid, 51)
        A = compose(scan_linear_map(conv, v),
                    parametrix_preconditioner(conv, v))
        return grid, conv, A

    def test_in_place_row_update_is_the_stacked_update(self):
        grid, conv, A = self.problem()
        assert A.by_rows
        rng = np.random.default_rng(53)
        u0, x = rng.standard_normal(A.n_data), rng.standard_normal(A.n_model)
        alpha = float(rng.random())
        ref = u0.copy()
        ref *= -alpha
        ref += A.forward(x)
        u = u0.copy()
        u *= -alpha
        A.add_forward(x, u)
        assert u.tobytes() == ref.tobytes()

    def test_lsqr_holds_one_data_vector(self, monkeypatch):
        # beyond its inputs: the data-sized u, or the dot test's y before u
        # exists; x, v, w and the operators' model-sized temporaries (5.2
        # model vectors here); numpy's buffer for casting a real spectrum in
        # a complex product; and the FFT arrays of one operator call, two
        # complex half spectra of the circular grid, the irfft output of
        # the last pass and the row
        grid, conv, A = self.problem()
        b = np.random.default_rng(52).random(A.n_data)
        model = grid.n_cells * np.dtype(float).itemsize
        cast = np.getbufsize() * np.dtype(complex).itemsize
        half = np.prod(conv._half) * np.dtype(complex).itemsize
        irfft = grid.n_cells * 2 * np.dtype(float).itemsize
        bound = b.nbytes + 7 * model + cast + 2 * half + irfft + model
        _, peak = traced_peak(lambda: lsqr(A, b, max_iters=5, atol=0.0))
        assert peak <= bound
        # a stacked A x next to u or y is a second data vector
        monkeypatch.setattr(LinearMap, "add_forward",
                            lambda self, x, out: out.__iadd__(self.forward(x)))
        _, peak = traced_peak(lambda: lsqr(A, b, max_iters=5, atol=0.0))
        assert peak > bound


def scan_of(grid, aps, values):
    """A `ConeScanData` of one field per aperture from stacked values."""
    return ConeScanData(grid, [ScalarField(grid, x) for x in
                               values.reshape((len(aps),) + grid.cells)],
                        aps)


class TestDistinctConeMap:
    """`scan_linear_map` on the distinct cones with `pipeline._reduced_data`
    against the stacked operator and data of every aperture (`oracles`)."""

    @pytest.mark.parametrize("grid,aps", MIXED, ids=["2d", "3d"])
    def test_normal_equations_and_dot_test(self, grid, aps):
        v = random_weight(grid, 41)
        conv = ConeConvolution(aps, grid)
        assert list(conv.counts) == [3, 2, 1]
        A, A_red = stacked_linear_map(conv, v), scan_linear_map(conv, v)
        assert A_red.n_data == 3 * grid.n_cells
        rng = np.random.default_rng(42)
        x = rng.standard_normal(grid.n_cells)
        b = rng.standard_normal(A.n_data)
        b_red, floor = pipeline._reduced_data(scan_of(grid, aps, b), conv)

        def rel(a, ref):
            return np.max(np.abs(a - ref)) / np.max(np.abs(ref))

        assert rel(A_red.adjoint(A_red.forward(x)),
                   A.adjoint(A.forward(x))) <= 1e-12
        assert rel(A_red.adjoint(b_red.ravel()), A.adjoint(b)) <= 1e-12
        # the residual splits into the reduced one and the floor
        stacked = np.linalg.norm(A.forward(x) - b)
        reduced = np.linalg.norm(A_red.forward(x) - b_red.ravel())
        assert np.hypot(reduced, floor) == pytest.approx(stacked, rel=1e-12)
        assert A_red.dot_test(seed=7) <= 1e-12

    @pytest.mark.parametrize("grid,aps", MIXED, ids=["2d", "3d"])
    def test_equal_fields_have_a_zero_floor(self, grid, aps):
        # the fields of each cone equal bit for bit, as in a noise-free
        # scan: one field, or the two of a double cone, are their own mean,
        # so the floor is exactly 0 and the reduced data are sqrt(c) times
        # the field; three equal fields give a mean within roundoff
        rows = np.random.default_rng(44).random((3,) + grid.cells)
        for subset, counts in ((aps[:2] + aps[3:], [2, 2, 1]),
                               (aps, [3, 2, 1])):
            conv = ConeConvolution(subset, grid)
            assert list(conv.counts) == counts
            b_red, floor = pipeline._reduced_data(
                scan_of(grid, subset, rows[conv.group]), conv)
            weights = np.sqrt(conv.counts).reshape((-1,) + (1,) * grid.dim)
            exact = conv.counts <= 2
            assert np.array_equal(b_red[exact], (rows * weights)[exact])
            if counts[0] <= 2:
                assert floor == 0.0
            else:
                assert floor <= 1e-15 * np.linalg.norm(rows[0])
                assert (np.max(np.abs(b_red[0] - rows[0] * weights[0]))
                        <= 1e-15 * np.max(rows[0] * weights[0]))


def stacked_lsqr(settings, data, v, conv):
    """The pipeline's LSQR as it ran on one data row per aperture: the
    stacked operator and data, with the same preconditioner, stop at the
    noise level and clip; returns (x, history, stop reason)."""
    b = stacked_data(data)
    stop = (0.0 if settings.photons is None else
            np.sqrt(max(float(np.sum(b)), 0.0) / settings.photons))
    precond = parametrix_preconditioner(conv, v)
    z, history = lsqr(compose(stacked_linear_map(conv, v), precond), b,
                      max_iters=settings.lsqr_iters,
                      atol=settings.lsqr_atol, stop_residual=stop)
    x = np.maximum(precond.forward(z), 0.0).reshape(v.grid.cells)
    return x, history, lsqr_stop_reason(history, settings.lsqr_iters, stop)


SCENE_3D = ["grid.dim=3", "grid.origin=-10,-10,-10", "grid.extent=20,20,20",
            "grid.cells=24,24,24",
            "phantom.inclusions=2.5,2.5,0,1.5,5.0; -3.5,0,0,1.5,10.0"]


@pytest.fixture(scope="module")
def scene_3d():
    """Truth, weight, cone operator and clean scan of the 3D 24^3 run."""
    return held_scene(Settings(load_config(None, SCENE_3D)))


class TestLsqrOnTheDistinctCones:
    """The pipeline's LSQR against the stacked path on the default cones,
    5 double cones measured twice, with Poisson noise at 1e6 photons.  The
    two are one solution in exact arithmetic.  In floating point the
    bidiagonalizations drift apart: at 128^2 the solutions differ by 3.6e-5
    (seed 1) and 1.2e-3 (seed 7) of their maximum, as much as the stacked
    path moves when its data are perturbed by 1e-15 relative (1.2e-5 and
    1.5e-3), and the last history row's ||A^T r|| and relative column
    differ by up to 10% (LSQR's running ||A|| estimate by 2%).  In 3D 24^3
    (9 iterations) every history entry agrees to 5e-15.  The tolerances
    are a few times the drift measured."""

    @pytest.mark.parametrize("dim,seed,tol,hist_tol",
                             [(2, 1, 2e-4, 0.3), (2, 7, 5e-3, 0.3),
                              (3, 1, 1e-10, 1e-12)],
                             ids=["2d-seed1", "2d-seed7", "3d-seed1"])
    def test_same_solution_iterations_and_stop(self, request, dim, seed, tol,
                                               hist_tol):
        truth, v, conv, clean = request.getfixturevalue(
            "default_scene" if dim == 2 else "scene_3d")
        settings = Settings(load_config(None, (SCENE_3D if dim == 3 else [])
                                        + ["noise.kind=poisson",
                                           f"run.seed={seed}",
                                           "recon.method=lsqr"]),
                            inverts=True)
        report = {}
        data = pipeline._noisy_scan(clean, settings, report)
        fields, history = pipeline._reconstruct(
            settings, pipeline._ScanSums(data, conv, settings.method), v,
            conv, report)
        x_ref, history_ref, reason = stacked_lsqr(settings, data, v, conv)
        assert report["lsqr.stop_reason"] == reason == "discrepancy"
        assert int(report["lsqr.iterations"]) == int(history_ref[-1, 0])
        x = fields["recon_lsqr"].values
        assert np.max(np.abs(x - x_ref)) <= tol * np.max(np.abs(x_ref))
        # ||r||, ||A^T r|| and ||A^T r|| / (||A|| ||r||) of the last iterate
        assert np.all(np.abs(history[-1, 1:] - history_ref[-1, 1:])
                      <= hist_tol * history_ref[-1, 1:])


class TestNoise:
    def test_deterministic_for_fixed_seed(self):
        data = np.linspace(0.0, 5.0, 100)
        a = apply_noise(data, 1e4, 77)
        b = apply_noise(data, 1e4, 77)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        data = np.linspace(0.1, 5.0, 100)
        a = apply_noise(data, 1e4, 1)
        b = apply_noise(data, 1e4, 2)
        assert not np.array_equal(a, b)

    def test_relative_fluctuation_scales_with_photons(self):
        data = np.full(4000, 2.0)
        lo = apply_noise(data, 1e2, 0)
        hi = apply_noise(data, 1e6, 0)
        assert np.std(hi) < 0.2 * np.std(lo)
        # unbiased to sampling accuracy
        assert np.mean(hi) == pytest.approx(2.0, rel=1e-3)

    def test_negative_data_rejected(self):
        with pytest.raises(InvalidArgumentError):
            apply_noise(np.array([1.0, -0.1]), 1e4, 0)

    def test_invalid_model(self):
        for photons in (0.0, -1e4, np.nan):
            with pytest.raises(InvalidArgumentError):
                apply_noise(np.ones(3), photons, 0)


class TestRelativeError:
    def test_exact_recon_zero_error(self, grid64):
        f = two_bump_phantom(grid64)
        signed, absolute = relative_error(f, f, eps_bg=0.5)
        assert signed == 0.0 and absolute == 0.0

    def test_uniform_overshoot(self, grid64):
        f = two_bump_phantom(grid64)
        rec = ScalarField(grid64, 1.1 * f.values)
        signed, absolute = relative_error(f, rec, eps_bg=0.5)
        assert signed == pytest.approx(0.1, rel=1e-12)
        assert absolute == pytest.approx(0.1, rel=1e-12)

    def test_empty_mask_raises(self, grid64):
        f = two_bump_phantom(grid64)
        with pytest.raises(EmptyMaskError):
            relative_error(f, f, eps_bg=100.0)

    def test_grid_mismatch(self, grid64, grid128):
        with pytest.raises(InvalidArgumentError):
            relative_error(two_bump_phantom(grid64),
                           two_bump_phantom(grid128), eps_bg=0.5)

    def test_negative_threshold(self, grid64):
        f = two_bump_phantom(grid64)
        with pytest.raises(InvalidArgumentError):
            relative_error(f, f, eps_bg=-1.0)


class TestWholeGridError:
    def test_hand_made_truth_and_reconstruction(self):
        # truth 4 and 2 inside the mask (eps_bg 0.5) and 0.25 outside it;
        # the reconstruction errs by -1 on the 4 and +0.5 on the 0.25, and
        # puts -1 of false mass in a cell where the truth is 0
        grid = make_grid(2, (0, 0), (4, 4), (4, 4))
        truth, recon = np.zeros((4, 4)), np.zeros((4, 4))
        truth[0, :2], truth[1, 0] = (4.0, 2.0), 0.25
        recon[0, :2], recon[1, 0], recon[3, 3] = (3.0, 2.0), 0.75, -1.0
        truth, recon = ScalarField(grid, truth), ScalarField(grid, recon)
        l2, background = whole_grid_error(truth, recon, 0.5)
        assert l2 == pytest.approx(np.sqrt(2.25 / 20.0625), rel=1e-15)
        assert background == pytest.approx(1.75 / 6.25, rel=1e-15)
        assert whole_grid_error(truth, truth, 0.5) == (0.0, 0.25 / 6.25)
        assert whole_grid_error(truth, recon, 5.0)[1] == pytest.approx(
            6.75 / 6.25, rel=1e-15)

    def test_refusals(self, grid64, grid128):
        f = two_bump_phantom(grid64)
        with pytest.raises(InvalidArgumentError, match="grids must match"):
            whole_grid_error(f, two_bump_phantom(grid128), 0.5)
        zero = constant_field(grid64, 0.0)
        with pytest.raises(InvalidArgumentError, match="zero everywhere"):
            whole_grid_error(zero, f, 0.5)
