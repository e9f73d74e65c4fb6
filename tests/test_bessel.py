"""The Bessel oracles of the closed-form disk weight against mpmath and
series identities."""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from lumitomo.errors import InvalidArgumentError

from oracles import bessel_i0, bessel_i1


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 0.4822, 1.0, 4.82, 10.0, 25.0, 50.0])
def test_i0_matches_mpmath(x):
    ref = float(mpmath.besseli(0, x))
    assert bessel_i0(x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 0.4822, 1.0, 4.82, 10.0, 25.0, 50.0])
def test_i1_matches_mpmath(x):
    ref = float(mpmath.besseli(1, x))
    assert bessel_i1(x) == pytest.approx(ref, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("bessel", [bessel_i0, bessel_i1])
def test_negative_argument_refused(bessel):
    with pytest.raises(InvalidArgumentError):
        bessel(-1e-3)


def test_monotone_growth():
    x = np.linspace(0.0, 30.0, 301)
    i0 = np.array([bessel_i0(t) for t in x])
    assert np.all(i0 >= 1.0)
    assert bessel_i1(0.0) == 0.0
    assert np.all(np.diff(i0) > 0)


def test_derivative_identity():
    # I0'(x) = I1(x): check by central differences
    h = 1e-6
    for x in np.linspace(0.5, 20.0, 64):
        deriv = (bessel_i0(x + h) - bessel_i0(x - h)) / (2 * h)
        assert deriv == pytest.approx(bessel_i1(x), rel=1e-8)
