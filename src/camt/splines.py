"""Natural cubic spline basis for flexible covariate effects.

The basis is the classic truncated-power construction: with knots
xi_1 < ... < xi_K, let

    d_j(x) = ((x - xi_j)_+^3 - (x - xi_K)_+^3) / (xi_K - xi_j),

then {1, x, d_1 - d_{K-1}, ..., d_{K-2} - d_{K-1}} spans the space of
cubic splines on the knots that are linear beyond the boundary knots
xi_1 and xi_K. The span has dimension K, counting the constant.

spline_basis is the module's one public function and the one place
that checks its arguments: x passes :func:`camt.kernel.check_finite_array`
and must be 1-d, and the knot count passes
:func:`camt.kernel.check_count` with a floor of 2, so 3.5,
np.float64(3.0) and True are refused, as :func:`camt.em.build_design`
refuses them, rather than read as a count. The private helpers re-check
none of it.
"""

from __future__ import annotations

import numpy as np

from .kernel import check_count, check_finite_array


def _equiquantile_knots(x, n_knots):
    """Strictly increasing knots at the empirical j/(n_knots+1)
    quantiles of the checked sample x (:func:`spline_basis`).

    The knots equal ``np.quantile(x, j / (n_knots + 1))`` with numpy's
    default "linear" method, bit for bit, from one sort of x that also
    counts its distinct values; np.quantile and np.unique would import
    numpy.ma, a cost a fresh process notices.
    """
    s = np.sort(x)
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
    :func:`_equiquantile_knots`). The returned matrix has n_knots
    columns spanning the full natural-spline space on those knots:
    column 0 is the constant, column 1 the identity, and the remaining
    columns the curvature terms. Callers that already carry an
    intercept should drop column 0.

    Every column is twice continuously differentiable and linear
    outside [knots[0], knots[-1]].

    Parameters
    ----------
    x : array_like
        Points to evaluate at: a finite, real 1-d sample of at least
        n_knots distinct values.
    n_knots : int
        Number of knots, an integer of at least 2
        (:func:`~camt.kernel.check_count`).

    Returns
    -------
    basis : numpy.ndarray, shape (len(x), n_knots)
    knots : numpy.ndarray, shape (n_knots,)

    Raises
    ------
    ValueError
        For arguments the gates refuse, and for a degenerate x: fewer
        than n_knots distinct values, or equiquantile knots that collide.
    """
    n_knots = check_count("n_knots", n_knots, 2)
    x = check_finite_array("x", x)
    if x.ndim != 1 or x.size < n_knots:
        raise ValueError("x must be a 1-d sample with at least n_knots values")
    knots = _equiquantile_knots(x, n_knots)
    return _evaluate_basis(x, knots), knots


def _evaluate_basis(x, knots):
    """The natural spline basis of the strictly increasing knots (at
    least 2) at the finite 1-d x."""
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
