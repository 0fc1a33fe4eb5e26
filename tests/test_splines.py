"""Tests for the natural cubic spline basis and knot placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camt.splines import _equiquantile_knots, _evaluate_basis, spline_basis


def test_knots_are_empirical_equiquantiles():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, 5_000)
    knots = _equiquantile_knots(x, 6)
    expected = np.quantile(x, np.arange(1, 7) / 7.0)
    assert np.array_equal(knots, expected)


@st.composite
def _sample(draw):
    """A sample for 2-20 knots, of n_knots to 300 values: continuous draws
    of any scale, or at least n_knots distinct values, each repeated any
    number of times (ties)."""
    n_knots = draw(st.integers(2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(n_knots, 300))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    if draw(st.booleans()):
        x = rng.standard_normal(size) * scale
    else:
        pool = rng.standard_normal(draw(st.integers(n_knots, n_knots + 3))) * scale
        x = np.concatenate([pool, rng.choice(pool, size)])
    return x, n_knots


@settings(max_examples=400, deadline=None)
@given(_sample())
def test_knots_equal_numpys_linear_quantiles(case):
    x, n_knots = case
    want = np.quantile(x, np.arange(1, n_knots + 1) / (n_knots + 1))
    try:
        got = _equiquantile_knots(x, n_knots)
    except ValueError as exc:
        assert "degenerate covariate" in str(exc)
        assert np.unique(x).size < n_knots or np.any(np.diff(want) <= 0.0)
    else:
        assert np.array_equal(got, want)


def test_knots_approach_theoretical_quantiles():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 200_000)
    knots = _equiquantile_knots(x, 6)
    assert np.max(np.abs(knots - np.arange(1, 7) / 7.0)) < 0.01


def test_knots_validation():
    with pytest.raises(ValueError, match="^n_knots must be an integer of at least 2, got 1$"):
        spline_basis(np.arange(10.0), 1)
    with pytest.raises(ValueError):
        spline_basis(np.arange(3.0), 4)
    with pytest.raises(ValueError, match="degenerate covariate"):
        spline_basis(np.full(100, 3.14), 4)
    # balanced 0/1: the quantiles 0, 0.5, 1 are distinct, the values are not
    with pytest.raises(ValueError, match="fewer than 3 distinct values"):
        spline_basis(np.arange(100.0) % 2, 3)
    assert np.array_equal(spline_basis(np.arange(99.0) % 3, 3)[1], [0.0, 1.0, 2.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            spline_basis(np.append(np.arange(10.0), bad), 3)


def test_basis_shape_and_leading_columns():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(500)
    basis, knots = spline_basis(x, 6)
    assert basis.shape == (500, 6)
    assert knots.shape == (6,)
    assert np.all(basis[:, 0] == 1.0)
    assert np.array_equal(basis[:, 1], x)


def test_interpolating_linear_values_recovers_the_line():
    # the natural-spline interpolant of values sampled from a line is
    # that line everywhere, including beyond the boundary knots
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1_000)
    knots = _equiquantile_knots(x, 6)
    a, b = 0.7, -1.3
    coefs = np.linalg.solve(_evaluate_basis(knots, knots), a + b * knots)
    grid = np.linspace(knots[0] - 2.0, knots[-1] + 2.0, 2_001)
    fitted = _evaluate_basis(grid, knots) @ coefs
    assert np.max(np.abs(fitted - (a + b * grid))) < 1e-8


def test_columns_are_smooth_and_linear_in_the_tails():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2_000)
    knots = _equiquantile_knots(x, 5)
    h = 1e-4
    grid = np.arange(knots[0] - 0.5, knots[-1] + 0.5, h)
    basis = _evaluate_basis(grid, knots)
    for j in range(2, basis.shape[1]):
        col = basis[:, j]
        d2 = np.diff(col, 2) / h**2
        # twice continuously differentiable: the second derivative is
        # continuous, so consecutive second differences change by O(h)
        assert np.max(np.abs(np.diff(d2))) < 0.05
        # natural tails: zero curvature outside the boundary knots
        mid = grid[1:-1]
        outside = (mid < knots[0] - 2 * h) | (mid > knots[-1] + 2 * h)
        assert np.max(np.abs(d2[outside])) < 1e-5


def test_basis_reproducible():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(300)
    b1, k1 = spline_basis(x, 4)
    b2, k2 = spline_basis(x.copy(), 4)
    assert np.array_equal(b1, b2)
    assert np.array_equal(k1, k2)
