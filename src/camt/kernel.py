"""Closed-form kernel of the covariate-adaptive testing procedure.

Everything here is a small, stateless formula shared by the estimation,
thresholding and simulation layers: the one-parameter beta surrogate for
the alternative p-value density and the psi transform that turns a
p-value into the statistic the mirror estimator operates on, plus the
range checks every layer applies to p-values and to quantities in the
unit interval, the array gates and the gates of scalar arguments.

Every array gate starts with :func:`real_array`, the cast of a bool,
integer or float array to float64 that refuses any other dtype.
:func:`check_pvalues` is the one gate of a p-value array: every public
function that takes p-values, one per hypothesis, passes them through
it, directly or by :func:`clamp_pvalues`, and it refuses anything but a
real 1-d array with every entry in [0, 1]. :func:`check_finite_array`
is the one gate of the covariates, a design, a spline's points and the
oracle's effects and z-scores; each caller adds its own shape rule. The
formulas and the other range checks broadcast over numpy arrays and
accept plain floats.

Each kind of scalar argument has one gate here, built on the two type
tests :func:`is_real` and :func:`is_integer`: :func:`check_alpha` for a
target level, :func:`check_count` for a count (a size, a seed, a
replicate index, a worker or knot count) and :func:`check_finite` for a
finite parameter (an effect size, a null mean). A bool, a string, None,
a complex number and a non-finite float fail each of them with the
gate's own message.
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
        P-values, checked by :func:`check_pvalues`: a real 1-d array
        with every entry in [0, 1], else ValueError.

    Returns
    -------
    numpy.ndarray
        Clamped copy, dtype float64, never the caller's array. The fit
        path writes its own transforms of p into it in place
        (-log p in :func:`camt.em.fit`, min(p, 1 - p) in
        :func:`camt.threshold.mirror_statistics`).
    """
    return np.clip(check_pvalues(pvals), P_CLAMP, 1.0 - P_CLAMP)


def real_array(name, x):
    """x as a float64 array; ValueError naming name unless its dtype is
    bool, integer or float. A complex array is refused even where every
    imaginary part is zero (a float cast would drop them with only
    numpy's ComplexWarning), a string or object one before numpy parses
    it."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{name} must be real, not complex")
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be a real numeric array, not dtype {x.dtype}")
    return x.astype(float, copy=False)


def check_finite_array(name, x):
    """x as a float64 array (:func:`real_array`); ValueError naming name
    unless every entry is finite. The one gate of a finite real array in
    the package; the caller's float64 array is returned as it is, not
    copied, and the caller checks its shape."""
    x = real_array(name, x)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def check_pvalues(pvals):
    """pvals as a float64 array (:func:`real_array`); ValueError unless
    it is 1-d, one p-value per hypothesis, and every entry lies in
    [0, 1]. The one gate of a p-value array in the package.

    The comparisons are false for NaN, so non-finite entries fail too.
    The caller's float64 array is returned as it is, not copied.
    """
    p = real_array("p-values", pvals)
    if p.ndim != 1:
        raise ValueError("p-values must be a 1-d array")
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("p-values must be finite and lie in [0, 1]")
    return p


def check_unit(name, x, include_one=False):
    """x as a float64 array (:func:`real_array`); ValueError naming name
    unless every entry lies in (0, 1), or in (0, 1] with include_one.

    The comparisons are false for NaN, so non-finite entries fail too.
    """
    x = real_array(name, x)
    if x.size and not (x.min() > 0.0 and (x.max() <= 1.0 if include_one else x.max() < 1.0)):
        interval = "(0, 1]" if include_one else "the open interval (0, 1)"
        raise ValueError(f"{name} must lie in {interval}")
    return x


def is_real(x):
    """True when x is a real scalar: a Python or numpy integer or float,
    or a 0-d array of one. A bool, a string, a sequence and None are not.
    The one test of a real scalar in the package."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.ndim == 0 and x.dtype.kind in "iuf"
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_integer(x):
    """True when x is a Python or numpy integer, not a bool (np.bool_ is
    no np.integer). The one test of a count in the package."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_alpha(alpha):
    """ValueError unless the target level alpha is a real scalar
    (:func:`is_real`) in (0, 1]; a bool, a string, a sequence and None
    are refused like a level out of range.

    The comparisons are false for NaN, so NaN fails too.
    """
    if not (is_real(alpha) and 0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")


def check_count(name, value, low):
    """value as an int; ValueError naming name unless it is an integer
    (:func:`is_integer`) of at least low. The one gate of a count in the
    package: 3.5, np.float64(3.0) and True are refused, np.int32(3) is
    taken as 3."""
    if not (is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
    return int(value)


def check_finite(name, value):
    """value, unchanged; ValueError naming name unless it is a finite
    real scalar (:func:`is_real`). The one gate of a finite parameter in
    the package; an integer-valued one stays an int."""
    if not (is_real(value) and np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


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


def psi(p, pi, k):
    """Monotone statistic psi(p) = pi / (pi + (1 - pi) h(p)).

    h is the beta surrogate density. psi is strictly increasing in p
    (h is decreasing), so small p-values map to small psi values.
    Rejecting when psi(p) <= t is the package's one form of the rejection
    rule. It is the same as rejecting when the likelihood ratio h(p)
    reaches the weight

        w(t, pi) = (1 - t) pi / (t (1 - pi)),

    or when p is at most the cutoff c(t, pi, k) that solves h(p) = w(t, pi)
    (see :func:`camt.threshold._expected_count`). One minus psi at the
    observed p-value is the posterior probability of the alternative.
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
