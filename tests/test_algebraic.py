"""LSQR solver, scan operator adjointness, noise, and the error metric."""

import numpy as np
import pytest

from lumitomo.algebraic import (LinearMap, NoiseModel, apply_noise, lsqr,
                                lsqr_stop_reason, relative_error,
                                scan_linear_map)
from lumitomo.errors import (EmptyMaskError, InvalidArgumentError,
                             InvalidOperatorError)
from lumitomo.excitation import Aperture, cone_transform
from lumitomo.fields import ScalarField, make_grid

from conftest import fan_apertures, two_bump_phantom


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
        assert hist.ndim == 2 and hist.shape[1] == 3
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


class TestScanLinearMap:
    def test_dot_test_machine_precision(self, grid64):
        aps = fan_apertures(3, 35.0)
        v = ScalarField.full(grid64, 1.0)
        linmap = scan_linear_map(aps, v)
        assert linmap.dot_test(seed=1) <= 1e-12

    def test_dot_test_3d(self):
        g = make_grid(3, (-8, -8, -8), (16, 16, 16), (16, 16, 16))
        aps = [Aperture(dim=3, axis=ax, half_angle=0.5)
               for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
        v = ScalarField(g, 1.0 + np.random.default_rng(2).random(g.cells))
        assert scan_linear_map(aps, v).dot_test(seed=3) <= 1e-12

    def test_forward_is_the_stacked_cone_transform(self, grid64):
        # the scan and LSQR apply one operator
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = ScalarField(grid64, 1.0 + np.random.default_rng(4).random(grid64.cells))
        stacked = np.concatenate([fld.values.ravel()
                                  for fld in cone_transform(f, v, aps)])
        forward = scan_linear_map(aps, v).forward(f.values.ravel())
        assert np.array_equal(forward, stacked)

    def test_shapes(self, grid64):
        aps = fan_apertures(2, 30.0)
        v = ScalarField.full(grid64, 1.0)
        linmap = scan_linear_map(aps, v)
        assert linmap.n_model == grid64.n_cells
        assert linmap.n_data == 2 * grid64.n_cells
        out = linmap.forward(np.zeros(linmap.n_model))
        assert out.shape == (linmap.n_data,)

    def test_lsqr_recovers_phantom(self, grid64):
        aps = fan_apertures(3, 35.0)
        f = two_bump_phantom(grid64)
        v = ScalarField.full(grid64, 1.0)
        linmap = scan_linear_map(aps, v)
        data = linmap.forward(f.values.ravel())
        x, _ = lsqr(linmap, data, max_iters=200, atol=1e-10)
        rec = x.reshape(grid64.cells)
        err = np.linalg.norm(rec - f.values) / np.linalg.norm(f.values)
        assert err <= 0.05


class TestNoise:
    def test_deterministic_for_fixed_seed(self):
        model = NoiseModel(photons_per_unit=1e4, seed=77)
        data = np.linspace(0.0, 5.0, 100)
        a = apply_noise(model, data)
        b = apply_noise(model, data)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        data = np.linspace(0.1, 5.0, 100)
        a = apply_noise(NoiseModel(1e4, seed=1), data)
        b = apply_noise(NoiseModel(1e4, seed=2), data)
        assert not np.array_equal(a, b)

    def test_relative_fluctuation_scales_with_photons(self):
        data = np.full(4000, 2.0)
        lo = apply_noise(NoiseModel(1e2, seed=0), data)
        hi = apply_noise(NoiseModel(1e6, seed=0), data)
        assert np.std(hi) < 0.2 * np.std(lo)
        # unbiased to sampling accuracy
        assert np.mean(hi) == pytest.approx(2.0, rel=1e-3)

    def test_negative_data_rejected(self):
        with pytest.raises(InvalidArgumentError):
            apply_noise(NoiseModel(1e4, seed=0), np.array([1.0, -0.1]))

    def test_invalid_model(self):
        with pytest.raises(InvalidArgumentError):
            NoiseModel(photons_per_unit=0.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            NoiseModel(photons_per_unit=1e4, seed=0, kind="gaussian")


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
