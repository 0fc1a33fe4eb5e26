"""Closed-form kernel of the covariate-adaptive testing procedure.

Everything here is a small, stateless formula shared by the estimation,
thresholding and simulation layers: the one-parameter beta surrogate for
the alternative p-value density, the weight function that prices a
rejection at a given threshold, the equivalent p-value cutoff, and the
psi transform that turns a p-value into the statistic the mirror
estimator operates on, plus the range checks every layer applies to
p-values, to quantities in the unit interval and to target levels.

All functions broadcast over numpy arrays and accept plain floats.
"""

from __future__ import annotations

import numpy as np

# Hard clamp applied to p-values before any p**(-k) or log(p) evaluation.
P_CLAMP = 1e-15

# Winsorization bounds for the fitted null probabilities.
EPS1 = 0.1
EPS2 = 1e-5


def clamp_pvalues(pvals):
    """Clamp p-values into [P_CLAMP, 1 - P_CLAMP].

    Exact zeros and ones are legal inputs (discrete tests produce them)
    but break the power and log evaluations downstream, so every entry
    is pulled into the open unit interval first.

    Parameters
    ----------
    pvals : array_like
        P-values in [0, 1]. Anything outside [0, 1] or non-finite is a
        corrupt input and raises ValueError.

    Returns
    -------
    numpy.ndarray
        Clamped copy, dtype float64.
    """
    return np.clip(check_pvalues(pvals), P_CLAMP, 1.0 - P_CLAMP)


def check_pvalues(pvals):
    """pvals as a float64 array; ValueError unless every entry lies in [0, 1].

    The comparisons are false for NaN, so non-finite entries fail too.
    """
    p = np.asarray(pvals, dtype=float)
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("p-values must be finite and lie in [0, 1]")
    return p


def check_unit(name, x, include_one=False):
    """x as a float64 array; ValueError unless every entry lies in (0, 1),
    or in (0, 1] with include_one.

    The comparisons are false for NaN, so non-finite entries fail too.
    """
    x = np.asarray(x, dtype=float)
    if x.size and not (x.min() > 0.0 and (x.max() <= 1.0 if include_one else x.max() < 1.0)):
        interval = "(0, 1]" if include_one else "the open interval (0, 1)"
        raise ValueError(f"{name} must lie in {interval}")
    return x


def check_alpha(alpha):
    """ValueError unless the target level alpha is a real scalar in (0, 1]:
    a Python or numpy integer or float, or a 0-d array of one. A bool, a
    string, a sequence and None are refused like a level out of range.

    The comparisons are false for NaN, so NaN fails too.
    """
    if isinstance(alpha, (np.ndarray, np.generic)):
        real = alpha.ndim == 0 and alpha.dtype.kind in "iuf"
    else:
        real = isinstance(alpha, (int, float)) and not isinstance(alpha, bool)
    if not (real and 0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")


def surrogate_density(p, k):
    """Beta surrogate density (1 - k) * p**(-k) at p.

    This is the Beta(1 - k, 1) density, used as a surrogate for the
    p-value density under the alternative. For k in (0, 1) it is
    decreasing in p and integrates to one on (0, 1].

    Parameters
    ----------
    p : array_like
        Evaluation points in (0, 1]. Use :func:`clamp_pvalues` first if
        exact zeros may be present.
    k : array_like
        Shape parameter in the open interval (0, 1). Larger k puts more
        mass near zero (a stronger alternative).

    Returns
    -------
    numpy.ndarray or float
        Density values, broadcast over the inputs.
    """
    p = check_unit("p", p, include_one=True)
    k = check_unit("k", k)
    return (1.0 - k) * p ** (-k)


def weight(t, pi):
    """Rejection weight w(t) = (1 - t) * pi / (t * (1 - pi)).

    A hypothesis with null probability pi is rejected at threshold t
    exactly when its surrogate likelihood ratio reaches this weight.
    Decreasing in t: a looser threshold prices rejections more cheaply.

    Parameters
    ----------
    t : array_like
        Threshold in (0, 1).
    pi : array_like
        Prior null probability in (0, 1).
    """
    t = check_unit("t", t)
    pi = check_unit("pi", pi)
    return (1.0 - t) * pi / (t * (1.0 - pi))


def cutoff(t, pi, k):
    """P-value cutoff equivalent to the weight-form rejection rule.

    Solving surrogate_density(p, k) >= weight(t, pi) for p gives

        c(t, pi, k) = min(1, (t (1-k) (1-pi) / ((1-t) pi)) ** (1/k)),

    so the rule "likelihood ratio at least w(t)" coincides with the rule
    "p below c(t, pi, k)". The min handles thresholds loose enough that
    every p-value qualifies.
    """
    t = check_unit("t", t)
    pi = check_unit("pi", pi)
    k = check_unit("k", k)
    inner = t * (1.0 - k) * (1.0 - pi) / ((1.0 - t) * pi)
    with np.errstate(over="ignore"):
        c = inner ** (1.0 / k)
    return np.minimum(1.0, c)


def psi(p, pi, k):
    """Monotone statistic psi(p) = pi / (pi + (1 - pi) h(p)).

    h is the beta surrogate density. psi is strictly increasing in p
    (h is decreasing), so small p-values map to small psi values, and
    rejecting when the likelihood ratio h(p) clears weight(t, pi) is the
    same as rejecting when psi(p) <= t. One minus psi at the observed
    p-value is the posterior probability of the alternative.
    """
    h = surrogate_density(p, k)
    pi = check_unit("pi", pi)
    return pi / (pi + (1.0 - pi) * h)


def winsorize(x):
    """Clamp x into the closed interval [EPS1, 1 - EPS2].

    Applied to fitted null probabilities so that no hypothesis is ever
    declared a near-certain signal (lower bound) and weights stay finite
    (upper bound). The bounds are asymmetric on purpose: the lower one
    is the conservative guard, the upper one only a numerical guard.
    """
    return np.clip(x, EPS1, 1.0 - EPS2)
