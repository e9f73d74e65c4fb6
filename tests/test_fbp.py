"""Filtered backprojection and weight division."""

import numpy as np
import pytest

from lumitomo import excitation
from lumitomo.errors import InvalidArgumentError, WeightDegeneracyWarning
from lumitomo.excitation import Sinogram, xray_transform
from lumitomo.fbp import FbpFilter, _backproject, divide_by_weight, fbp
from lumitomo.fields import ScalarField, make_grid

from conftest import constant_field, rel_l2, traced_peak, two_bump_phantom
from oracles import one_shot_fbp


def make_sinogram(f, n_angles=180, n_offsets=363):
    g = f.grid
    angles = np.arange(n_angles) * (np.pi / n_angles)
    half_diag = 0.5 * np.sqrt(sum(e ** 2 for e in g.extent))
    offsets = np.linspace(-half_diag, half_diag, n_offsets)
    return xray_transform(f, angles, offsets)


def test_filter_validation():
    with pytest.raises(InvalidArgumentError):
        FbpFilter(kind="sharpen")
    with pytest.raises(InvalidArgumentError):
        FbpFilter(kind="ramp", cutoff=0.0)
    filt = FbpFilter(kind="ramp", cutoff=1.0)
    resp = filt.response(np.array([0.0, 0.1, 0.2]), nyquist=0.25)
    assert resp[0] == 0.0
    assert np.all(np.diff(resp) > 0)


def test_hann_tapers_high_frequencies():
    freqs = np.linspace(0, 0.25, 10)
    ramp = FbpFilter(kind="ramp", cutoff=1.0).response(freqs, 0.25)
    hann = FbpFilter(kind="ramp-hann", cutoff=1.0).response(freqs, 0.25)
    assert hann[-2] < 0.5 * ramp[-2]
    assert np.allclose(hann[:2], ramp[:2], rtol=0.1)


def test_round_trip_smooth_phantom():
    g = make_grid(2, (-10, -10), (20, 20), (256, 256))
    f = two_bump_phantom(g)
    rec = fbp(make_sinogram(f), g, FbpFilter(kind="ramp", cutoff=1.0))
    assert rel_l2(rec.values, f.values) <= 0.05


def test_round_trip_improves_with_more_angles():
    g = make_grid(2, (-10, -10), (20, 20), (128, 128))
    f = two_bump_phantom(g)
    e_few = rel_l2(fbp(make_sinogram(f, 45), g,
                       FbpFilter(kind="ramp", cutoff=1.0)).values, f.values)
    e_many = rel_l2(fbp(make_sinogram(f, 180), g,
                        FbpFilter(kind="ramp", cutoff=1.0)).values, f.values)
    assert e_many < e_few


def test_too_few_angles_rejected():
    g = make_grid(2, (-10, -10), (20, 20), (32, 32))
    sino = Sinogram(np.linspace(0, np.pi, 4, endpoint=False),
                    np.linspace(-5, 5, 11), np.zeros((4, 11)))
    with pytest.raises(InvalidArgumentError):
        fbp(sino, g)


def test_nonuniform_offsets_rejected():
    g = make_grid(2, (-10, -10), (20, 20), (32, 32))
    offsets = np.array([-1.0, 0.0, 0.5, 3.0])
    sino = Sinogram(np.linspace(0, np.pi, 10, endpoint=False), offsets,
                    np.zeros((10, 4)))
    with pytest.raises(InvalidArgumentError):
        fbp(sino, g)


def small_sinogram(offsets):
    return Sinogram(np.linspace(0, np.pi, 10, endpoint=False), offsets,
                    np.ones((10, len(offsets))))


@pytest.mark.parametrize("offsets", [[0.0], [1.0, 1.0, 1.0], [3.0, 2.0, 1.0]],
                         ids=["one", "equal", "decreasing"])
def test_bad_offset_steps_rejected(offsets):
    # one offset used to raise a raw IndexError; equal and decreasing ones
    # returned an all-zero image (dz <= 0 zeroes every filter response)
    g = make_grid(2, (-10, -10), (20, 20), (32, 32))
    with pytest.raises(InvalidArgumentError):
        fbp(small_sinogram(np.array(offsets)), g)


def masked_backprojection(filtered, angles, offsets, grid):
    """The backprojection loop that `_backproject` replaced, kept as its
    reference: neighbours clipped into the profile, then masked by
    `np.where`."""
    n = offsets.size
    dz = offsets[1] - offsets[0]
    centers = grid.centers()
    X = centers[..., 0] - (grid.origin[0] + 0.5 * grid.extent[0])
    Y = centers[..., 1] - (grid.origin[1] + 0.5 * grid.extent[1])
    out = np.zeros(grid.cells)
    for ia, th in enumerate(angles):
        z = -np.sin(th) * X + np.cos(th) * Y
        pos = (z - offsets[0]) / dz
        i0 = np.floor(pos).astype(int)
        t = pos - i0
        i0c = np.clip(i0, 0, n - 1)
        i1c = np.clip(i0 + 1, 0, n - 1)
        prof = filtered[ia]
        left = np.where((i0 >= 0) & (i0 < n), (1.0 - t) * prof[i0c], 0.0)
        right = np.where((i0 + 1 >= 0) & (i0 + 1 < n), t * prof[i1c], 0.0)
        out += left + right
    return out


@pytest.mark.parametrize("half_width", [2.0, 6.5, 40.0],
                         ids=["inside", "edges", "beyond"])
def test_backprojection_matches_masked_reference(half_width):
    # the 24 x 40 grid (spacing 0.25 x 0.3) reaches 3 and 6 from its centre
    # along x and y, and 6.7 along its diagonal
    g = make_grid(2, (-3.0, -5.0), (6.0, 12.0), (24, 40))
    rng = np.random.default_rng(7)
    angles = np.concatenate([[0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4],
                             rng.uniform(0, np.pi, 12)])
    offsets = np.linspace(-half_width, half_width, 37)
    filtered = rng.standard_normal((angles.size, offsets.size))
    new = _backproject(np.pad(filtered, ((0, 0), (2, 2))), angles, offsets, g)
    assert np.array_equal(new, masked_backprojection(filtered, angles, offsets, g))


def random_sinogram(n_angles, n_offsets, seed=5):
    rng = np.random.default_rng(seed)
    return Sinogram(rng.uniform(0, np.pi, n_angles),
                    np.linspace(-7.0, 7.0, n_offsets),
                    rng.standard_normal((n_angles, n_offsets)))


@pytest.mark.parametrize("rows", [1, 7, 45, None],
                         ids=["one-angle", "non-divisor", "all", "default"])
@pytest.mark.parametrize("filt", [FbpFilter(), FbpFilter(kind="ramp", cutoff=1.0)],
                         ids=["ramp-hann", "ramp"])
def test_blocked_filter_equals_one_shot(monkeypatch, rows, filt):
    # 45 angles of 100 offsets (npad 256): blocks of `rows` angles, or of
    # the default 32
    g = make_grid(2, (-3.0, -5.0), (6.0, 12.0), (24, 40))
    sino = random_sinogram(45, 100)
    if rows is not None:
        monkeypatch.setattr(excitation, "XRAY_BLOCK_SAMPLES", rows * 256)
    got = fbp(sino, g, filt).values
    assert got.tobytes() == one_shot_fbp(sino, g, filt).values.tobytes()


def test_fbp_working_set_is_about_one_profile_array():
    # 720 x 1024 lines: the padded profiles take 720 * 1028 * 8 = 5.9 MB;
    # the whole sinogram's spectrum, its product with the response and the
    # irfft output took 11.8 MB each, and np.pad's copy another 5.9 MB
    g = make_grid(2, (-10.0, -10.0), (20.0, 20.0), (16, 16))
    sino = random_sinogram(720, 1024)
    profiles = 720 * (1024 + 4) * 8
    _, peak = traced_peak(lambda: fbp(sino, g))
    assert peak <= 1.25 * profiles


def test_divide_by_weight_plain():
    g = make_grid(2, (0, 0), (1, 1), (8, 8))
    num = constant_field(g, 6.0)
    den = constant_field(g, 2.0)
    out = divide_by_weight(num, den)
    assert np.allclose(out.values, 3.0)


def test_divide_by_weight_warns_on_degenerate_support():
    # a mixed-sign weight: non-positive on half the support, floored at
    # 1e-6 of its maximum there
    g = make_grid(2, (0, 0), (1, 1), (8, 8))
    num = constant_field(g, 1.0)
    w = np.full(g.cells, 2.0)
    w[:4] = -1.0
    with pytest.warns(WeightDegeneracyWarning):
        out = divide_by_weight(num, ScalarField(g, w))
    assert np.all(out.values[:4] == 1.0 / 2e-6)
    assert np.all(out.values[4:] == 0.5)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_divide_by_weight_refuses_a_weight_positive_nowhere(value):
    g = make_grid(2, (0, 0), (1, 1), (8, 8))
    with pytest.raises(InvalidArgumentError, match="positive somewhere"):
        divide_by_weight(constant_field(g, 1.0), constant_field(g, value))
