"""Natural cubic spline basis for flexible covariate effects.

The basis is the classic truncated-power construction: with knots
xi_1 < ... < xi_K, let

    d_j(x) = ((x - xi_j)_+^3 - (x - xi_K)_+^3) / (xi_K - xi_j),

then {1, x, d_1 - d_{K-1}, ..., d_{K-2} - d_{K-1}} spans the space of
cubic splines on the knots that are linear beyond the boundary knots
xi_1 and xi_K. The span has dimension K, counting the constant.

The knot count passes :func:`camt.kernel.check_count` with a floor of 2:
an integer, so 3.5, np.float64(3.0) and True are refused, as
:func:`camt.em.build_design` refuses them, rather than read as a count.
"""

from __future__ import annotations

import numpy as np

from .kernel import check_count


def equiquantile_knots(x, n_knots):
    """Knot locations at the empirical j/(n_knots+1) quantiles of x.

    The knots equal ``np.quantile(x, j / (n_knots + 1))`` with numpy's
    default "linear" method, bit for bit, from one sort of x that also
    counts its distinct values; np.quantile and np.unique would import
    numpy.ma, a cost a fresh process notices.

    Parameters
    ----------
    x : array_like
        Finite covariate sample, at least n_knots distinct values.
    n_knots : int
        Number of knots, an integer of at least 2
        (:func:`~camt.kernel.check_count`).

    Returns
    -------
    numpy.ndarray
        Strictly increasing knot vector of length n_knots.
    """
    n_knots = check_count("n_knots", n_knots, 2)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < n_knots:
        raise ValueError("x must be a 1-d sample with at least n_knots values")
    s = np.sort(x)  # NaN sorts last
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        raise ValueError("x must be finite")
    # n_knots distinct knots can still sit on fewer distinct values (a
    # balanced 0/1 column gets knots 0, 0.5, 1), and the basis then has
    # fewer distinct rows than columns
    if 1 + np.count_nonzero(s[1:] != s[:-1]) < n_knots:
        raise ValueError(
            f"degenerate covariate: fewer than {n_knots} distinct values for a spline basis"
        )
    # numpy's "linear" quantile: the order statistics below and above the
    # virtual index (n - 1) * prob, which is below n - 1 for every prob
    # here, joined by its lerp, which works from the nearer of the two
    probs = np.arange(1, n_knots + 1) / (n_knots + 1)
    at = (s.size - 1) * probs
    below = np.floor(at)
    t = at - below
    lo = s[below.astype(np.intp)]
    hi = s[below.astype(np.intp) + 1]
    diff = hi - lo
    knots = np.where(t >= 0.5, hi - diff * (1 - t), lo + diff * t)
    if np.any(np.diff(knots) <= 0.0):
        raise ValueError(
            "degenerate covariate: equiquantile knots collide, "
            "too few distinct values for a spline basis"
        )
    return knots


def spline_basis(x, n_knots):
    """Natural cubic spline basis evaluated at x.

    Knots sit at the empirical equiquantile points of x (see
    :func:`equiquantile_knots`). The returned matrix has n_knots
    columns spanning the full natural-spline space on those knots:
    column 0 is the constant, column 1 the identity, and the remaining
    columns the curvature terms. Callers that already carry an
    intercept should drop column 0.

    Every column is twice continuously differentiable and linear
    outside [knots[0], knots[-1]].

    Parameters
    ----------
    x : array_like
        Points to evaluate at (1-d).
    n_knots : int
        Number of knots, an integer of at least 2
        (:func:`~camt.kernel.check_count`).

    Returns
    -------
    basis : numpy.ndarray, shape (len(x), n_knots)
    knots : numpy.ndarray, shape (n_knots,)
    """
    x = np.asarray(x, dtype=float)
    knots = equiquantile_knots(x, n_knots)
    return evaluate_basis(x, knots), knots


def evaluate_basis(x, knots):
    """Evaluate the natural spline basis for the given knots at x.

    x is finite and knots a 1-d, finite, strictly increasing array of
    at least 2 values; anything else raises ValueError, where a NaN
    would give a NaN row or column.
    """
    x = np.asarray(x, dtype=float)
    knots = np.asarray(knots, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if not (
        knots.ndim == 1
        and knots.size >= 2
        and np.isfinite(knots).all()
        and np.all(np.diff(knots) > 0.0)
    ):
        raise ValueError(
            "knots must be a finite, strictly increasing 1-d array of at least 2 values"
        )
    kk = knots.size
    cols = np.empty((x.size, kk))
    cols[:, 0] = 1.0
    cols[:, 1] = x
    if kk == 2:
        return cols

    def d(j):
        num = np.clip(x - knots[j], 0.0, None) ** 3
        num -= np.clip(x - knots[-1], 0.0, None) ** 3
        return num / (knots[-1] - knots[j])

    d_last = d(kk - 2)
    for j in range(kk - 2):
        cols[:, 2 + j] = d(j) - d_last
    return cols
