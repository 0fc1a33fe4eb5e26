"""Reference procedures: BH, Storey's adaptive BH, and the oracle LFDR rule.

The first two operate on p-values alone. The oracle rule sees the true
generating mechanism (per-hypothesis null probabilities and the exact
null and alternative densities of the z-scores behind the p-values) and
provides the power ceiling simulations are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .kernel import check_alpha, check_finite, check_finite_array, check_pvalues, real_array

STOREY_LAMBDA = 0.5  # the tail above it estimates the null fraction
# the largest lam numpy's Generator.poisson takes, int64 max - 10 sqrt(int64 max)
_POISSON_LAM_MAX = 9.223372006484771e18


def bh(pvals, alpha):
    """Step-up procedure at level alpha; returns a boolean mask.

    Rejects {i : p_i <= p_(k*)}, where k* is the largest index with
    p_(k*) <= k* alpha / m, and nothing when no index qualifies. That set
    is exactly the k* smallest p-values, because ties cannot straddle
    k*: p_(k*+1) = p_(k*) would give p_(k*+1) <= k* alpha / m
    <= (k*+1) alpha / m (the rounded thresholds never decrease), so k*
    would not be the largest.
    """
    p = check_pvalues(pvals)
    check_alpha(alpha)
    m = p.size
    s = np.sort(p)
    ok = np.flatnonzero(s <= alpha * np.arange(1, m + 1) / m)
    if ok.size == 0:
        return np.zeros(m, dtype=bool)
    return p <= s[ok[-1]]


def storey(pvals, alpha):
    """Adaptive step-up: BH run at level alpha / pi0_hat.

    pi0_hat = min(1, #{p > STOREY_LAMBDA} / ((1 - STOREY_LAMBDA) m))
    estimates the null fraction from the flat upper tail. A level
    alpha / pi0_hat of 1 or more rejects everything, as BH does at level
    1; so does the limit of the rule when every p-value sits at or below
    STOREY_LAMBDA and the estimate degenerates to zero.
    """
    p = check_pvalues(pvals)
    check_alpha(alpha)
    m = p.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    pi0 = min(1.0, np.count_nonzero(p > STOREY_LAMBDA) / ((1.0 - STOREY_LAMBDA) * m))
    if alpha >= pi0:
        return np.ones(m, dtype=bool)
    return bh(p, alpha / pi0)


@dataclass
class OracleTruth:
    """True generating mechanism of a simulated dataset.

    pi0 : per-hypothesis null probabilities
    effect : per-hypothesis alternative z-score mean
    family : "normal" (z ~ N(effect, 1) under the alternative) or
        "noncentral-gamma" (shape-2 gamma mixture matched to mean
        `effect` and unit variance)
    null_mean : mean of the null z-score, zero except in the
        shifted-null setups

    pi0 and effect are real arrays of one shape (:func:`real_array`
    refuses a complex, string or object one), every pi0 in [0, 1] and
    every effect finite (:func:`~camt.kernel.check_finite_array`), and
    null_mean is a finite real scalar
    (:func:`~camt.kernel.check_finite`); anything else raises ValueError.
    """

    pi0: np.ndarray
    effect: np.ndarray
    family: str = "normal"
    null_mean: float = 0.0

    def __post_init__(self):
        self.pi0 = real_array("pi0", self.pi0)
        self.effect = check_finite_array("effect", self.effect)
        if self.family not in ("normal", "noncentral-gamma"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.pi0.shape != self.effect.shape:
            raise ValueError("pi0 and effect must have identical shapes")
        # the comparisons are false for NaN, so NaN fails too
        if self.pi0.size and not (self.pi0.min() >= 0.0 and self.pi0.max() <= 1.0):
            raise ValueError("pi0 must lie in [0, 1]")
        check_finite("null_mean", self.null_mean)


def noncentral_gamma_params(mean):
    """Scale and non-centrality of a shape-2 non-central gamma.

    The law is the Poisson(delta) mixture of Gamma(shape + N, scale)
    with moments mean = scale (shape + delta) and
    var = scale^2 (shape + 2 delta). For shape 2 and unit variance the
    non-centrality solves delta^2 + (4 - 2 mean^2) delta
    + (4 - 2 mean^2) = 0, which has a positive root exactly when
    mean > sqrt(2). delta grows like 2 mean^2, and it must stay below
    the largest lam numpy's Poisson sampler takes,
    9.223372006484771e18, which caps the mean at about 2.147e9.

    mean is a real scalar or array, every entry finite, above sqrt(2)
    and below that cap; anything else raises ValueError. A NaN entry,
    and a bool, complex, string or None mean, get the sqrt(2) message.
    """
    mean = np.asarray(mean)
    # the comparison is false for NaN, so NaN fails too
    if mean.dtype.kind not in "iuf" or not np.all(mean > np.sqrt(2.0)):
        raise ValueError("mean must exceed sqrt(2) for a valid non-centrality")
    if not np.isfinite(mean).all():
        raise ValueError("mean must be finite")
    mean = mean.astype(float, copy=False)
    # a mean of 1e10 already puts delta past the limit, so squaring the
    # mean clipped there cannot overflow and refuses the same means
    b = 2.0 * np.minimum(mean, 1e10) ** 2 - 4.0
    delta = 0.5 * (b + np.sqrt(b * (b + 4.0)))
    if not np.all(delta < _POISSON_LAM_MAX):
        raise ValueError(
            "mean must give a non-centrality below numpy's Poisson limit "
            f"{_POISSON_LAM_MAX!r}, so at most about 2.147e9"
        )
    scale = mean / (2.0 + delta)
    return scale, delta


def _noncentral_gamma_pdf(x, scale, delta):
    """Density of the Poisson-mixed shape-2 gamma, vectorized over x."""
    x = np.asarray(x, dtype=float)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), x.shape)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape)
    out = np.zeros(x.shape)
    pos = x > 0.0
    if not pos.any():
        return out
    sc, dl = scale[pos], delta[pos]
    x_over_s = x[pos] / sc
    n_max = int(np.ceil(dl.max() + 12.0 * np.sqrt(dl.max()) + 20.0))
    # Poisson term n is exp(n log_rate + base - log n! - log (n + 1)!)
    log_rate = np.log(dl * x_over_s)
    base = np.log(x_over_s) - dl - x_over_s - np.log(sc)
    acc = np.zeros(x_over_s.shape)
    for n in range(n_max + 1):
        acc += np.exp(n * log_rate + (base - (lgamma(n + 1.0) + lgamma(n + 2.0))))
    out[pos] = acc
    return out


def lfdr_values(z, truth):
    """True local false discovery rate of each z-score.

    The LFDR is pi0 / (pi0 + (1 - pi0) L), with L the likelihood ratio
    of z under the alternative against the null N(null_mean, 1). An L
    that overflows to inf takes its exact limit, an LFDR of 0, and one
    that underflows to 0 an LFDR of 1; where pi0 = 1 the LFDR is 1 and
    where pi0 = 0 it is 0, whatever L is. In the non-central-gamma
    family, a density that underflows to 0 at a z above the effect (the
    gamma's mean) gives L its limit there, inf, so an LFDR of 0; below
    the effect it gives an L of 0.

    z passes :func:`~camt.kernel.check_finite_array` and must be a 1-d
    array with one entry per entry of truth; anything else raises
    ValueError.
    """
    z = check_finite_array("z", z)
    if z.ndim != 1 or z.shape != truth.pi0.shape:
        raise ValueError(f"z must be 1-d with truth's shape {truth.pi0.shape}, not {z.shape}")
    # log of the null density over the standard normal density at z
    log_null = truth.null_mean * z - 0.5 * truth.null_mean**2
    with np.errstate(over="ignore"):
        if truth.family == "normal":
            ratio = np.exp(truth.effect * z - 0.5 * truth.effect**2 - log_null)
        else:
            # L is formed in logs where the density is positive, so a standard
            # normal density that underflows (|z| > 38.6) divides nothing
            scale, delta = noncentral_gamma_params(truth.effect)
            pdf = _noncentral_gamma_pdf(z, scale, delta)
            pos = pdf > 0.0
            log_ratio = np.log(pdf[pos]) + 0.5 * (z[pos] ** 2 + np.log(2 * np.pi)) - log_null[pos]
            ratio = np.zeros_like(pdf)
            ratio[pos] = np.exp(log_ratio)
            # where the density underflows L is 0, except above its mean: there the
            # gamma's tail is heavier than a unit normal's around that mean, so the
            # null's density is smaller by a factor beyond e^50, and L takes its limit
            ratio[~pos & (z > truth.effect)] = np.inf
    # where pi0 = 1 the alternative's part is 0, also for an L of inf
    alt = np.multiply(1.0 - truth.pi0, ratio, out=np.zeros_like(ratio), where=truth.pi0 < 1.0)
    # where pi0 = 0 the LFDR is 0, also for an L of 0
    return np.divide(truth.pi0, truth.pi0 + alt, out=np.zeros_like(ratio), where=truth.pi0 > 0.0)


def oracle_prepare(values):
    """LFDR-ascending order and running mean of the LFDR values, the
    part of the oracle rule that every target level shares.

    The running mean of sorted LFDR values estimates the FDR of
    rejecting exactly that prefix; it is nondecreasing, so the optimal
    prefix is the last admissible one. Ties at the boundary are broken
    by input order (stable sort).
    """
    order = np.argsort(values, kind="stable")
    running_mean = np.cumsum(values[order]) / np.arange(1, values.size + 1)
    return order, running_mean


def oracle_select(prepared, alpha):
    """The oracle rule at level alpha, from :func:`oracle_prepare`'s
    output: reject the largest LFDR-ascending prefix whose running mean
    is at most alpha."""
    check_alpha(alpha)
    order, running_mean = prepared
    mask = np.zeros(order.size, dtype=bool)
    kstar = int(np.searchsorted(running_mean, alpha, side="right"))
    mask[order[:kstar]] = True
    return mask
