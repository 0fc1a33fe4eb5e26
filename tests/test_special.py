"""Accuracy of camt's numpy special functions against scipy's.

scipy is a test dependency only: camt.simulation and camt.baselines use
camt._special, and these tests pin it to the scipy functions it replaces.
"""

import warnings
from statistics import NormalDist

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from camt._special import ar1, expit, ndtr, ndtri


def _float_lists(lo, hi):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False), min_size=1, max_size=50
    )


def _steps(a, b):
    """Number of representable doubles between a and b (same sign)."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


# ----------------------------------------------------------------------
# ndtr


def _assert_ndtr_close(z):
    ref = scipy.special.ndtr(z)
    got = ndtr(z)
    keep = ref >= 1e-300
    assert np.all(np.abs(got[keep] - ref[keep]) <= 1e-12 * ref[keep])
    # below 1e-300 both sides are subnormal or zero
    assert np.all(np.abs(got[~keep]) < 1e-299)


def test_ndtr_matches_scipy_on_a_dense_grid():
    rng = np.random.default_rng(0)
    edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0)])  # where the formulas switch
    z = np.concatenate([
        np.linspace(-38.0, 38.0, 400_001),
        rng.uniform(-38.0, 38.0, 200_000),
        rng.standard_normal(200_000),
        np.nextafter(edges, 0.0),
        edges,
        np.nextafter(edges, np.inf),
    ])
    _assert_ndtr_close(np.concatenate([z, -z]))


@settings(deadline=None)
@given(_float_lists(-38.0, 38.0))
def test_ndtr_matches_scipy(values):
    _assert_ndtr_close(np.array(values))


def test_ndtr_special_values_and_shapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ndtr(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -38.0, 38.0]))
    assert np.isnan(out[0])
    assert out[1:].tolist() == [1.0, 0.0, 0.5, 0.5, 0.0, 1.0]
    far = np.array([-37.5, -37.7, -40.0])  # underflow to 0 where scipy's does
    assert np.array_equal(ndtr(far) == 0.0, scipy.special.ndtr(far) == 0.0)
    grid = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    assert ndtr(grid).shape == (2, 3)
    assert np.array_equal(ndtr(grid).ravel(), ndtr(grid.ravel()))
    assert isinstance(ndtr(0.3), np.floating) and ndtr(0.3) == ndtr(np.array([0.3]))[0]
    assert ndtr(np.empty(0)).shape == (0,)


def test_ndtr_upper_tail_keeps_relative_precision():
    # 1 - Phi(z) as ndtr(-z): no cancellation against 1
    z = np.array([5.0, 10.0, 20.0, 30.0])
    assert np.all(np.abs(ndtr(-z) / scipy.special.ndtr(-z) - 1.0) <= 1e-12)
    assert np.all(ndtr(-z) > 0.0)


# ----------------------------------------------------------------------
# ndtri


def _assert_ndtri_close(p):
    ref = scipy.special.ndtri(p)
    got = ndtri(p)
    assert np.all(np.abs(got - ref) <= 4e-15 * np.abs(ref))


def test_ndtri_matches_scipy_on_a_dense_grid():
    rng = np.random.default_rng(1)
    p = np.concatenate([
        10.0 ** rng.uniform(-300.0, 0.0, 300_000),
        rng.random(300_000),
        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 100_000),
        # the boundaries of the formulas: |p - 1/2| = 0.425 and r = 5
        [1e-300, 0.075, 0.925, np.exp(-25.0), 0.5, 1.0 - 1e-16, np.nextafter(1.0, 0.0)],
    ])
    _assert_ndtri_close(p[(p >= 1e-300) & (p <= 1.0 - 1e-16)])


@settings(deadline=None)
@given(_float_lists(1e-300, 1.0 - 1e-16))
def test_ndtri_matches_scipy(values):
    _assert_ndtri_close(np.array(values))


def test_ndtri_special_values_and_shapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ndtri(np.array([0.0, 1.0, np.nan, -0.1, 1.1, np.inf, -np.inf, 0.5]))
    assert out[0] == -np.inf and out[1] == np.inf
    assert np.isnan(out[2:7]).all()
    assert out[7] == 0.0
    assert ndtri(np.full((2, 2), 0.3)).shape == (2, 2)
    assert isinstance(ndtri(0.3), np.floating)
    assert ndtri(np.empty(0)).shape == (0,)


def test_ndtri_is_statistics_normal_quantile():
    # the same AS241 coefficients as the standard library's NormalDist;
    # only the log may round differently
    rng = np.random.default_rng(2)
    p = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 2000), rng.random(2000)])
    ref = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
    assert np.all(np.abs(ndtri(p) - ref) <= 1e-15 * np.abs(ref))


def test_ndtri_inverts_ndtr():
    # below zero, where ndtr(z) carries its full relative precision
    z = np.linspace(-37.0, 0.0, 10_001)
    assert np.all(np.abs(ndtri(ndtr(z)) - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))


# ----------------------------------------------------------------------
# expit


def test_expit_matches_scipy():
    # numpy's exp differs from the C library's by one ulp on about 2% of
    # arguments, and the division can double that step; scipy's own
    # expit is two steps from the correctly rounded value on about 0.04%
    # of [-30, 30], so one step is not attainable for any implementation
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-30.0, 30.0, 500_000), rng.standard_normal(100_000)])
    assert _steps(expit(x), scipy.special.expit(x)).max() <= 2
    wide = rng.uniform(-700.0, 700.0, 200_000)
    ref = scipy.special.expit(wide)
    assert np.all(np.abs(expit(wide) - ref) <= 1e-15 * ref)


@settings(deadline=None)
@given(_float_lists(-30.0, 30.0))
def test_expit_matches_scipy_within_two_steps(values):
    x = np.array(values)
    assert _steps(expit(x), scipy.special.expit(x)).max() <= 2


def test_expit_limits_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expit(np.array([-1000.0, -np.inf, 0.0, np.inf, 1000.0]))
    assert out.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]


# ----------------------------------------------------------------------
# AR(1)


@pytest.mark.parametrize("rho", [0.75, -0.75, 0.99, 0.0])
def test_ar1_matches_lfilter(rho):
    eps = np.random.default_rng(4).standard_normal(100_000)
    ref = lfilter([1.0], [1.0, -rho], eps)
    assert np.max(np.abs(ar1(eps, rho) - ref)) <= 1e-12


def test_ar1_small_inputs():
    assert ar1(np.empty(0), 0.5).shape == (0,)
    assert ar1(np.array([2.0]), 0.5).tolist() == [2.0]
    assert ar1(np.array([1.0, 0.0, 0.0, 1.0]), 0.5).tolist() == [1.0, 0.5, 0.25, 1.125]
    eps = np.array([1.0, 2.0])
    ar1(eps, 0.5)
    assert eps.tolist() == [1.0, 2.0]  # the input is left as it was
