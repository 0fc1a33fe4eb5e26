"""Mirror FDP estimation and threshold selection.

For each hypothesis the psi transform is applied twice, to the p-value
itself, s_i = psi(p_i), and to its reflection, r_i = psi(1 - p_i).
Rejecting whenever s_i <= t makes the r_i that fall below t a stand-in
for the unobservable count of false rejections (a null p-value and its
reflection are exchangeable), which gives the estimate

    FDP(t) = (1 + #{r_i < t}) / max(1, #{s_i <= t}),

or, in the mixed mode, the same ratio with the numerator replaced by
max(1, E(t), #{r_i < t}), E(t) being the fitted model's expected number
of null p-values below their cutoffs. The floor of one plays the part
of the plain estimate's +1: under either estimate, n rejections are
admissible only at levels of at least 1 / n. Both are written once, in
``_fdp_hat``, which the selectors and :func:`reject` share. The mixed
mode takes the fit itself, a :class:`~camt.em.FittedHypotheses`, as
``mixed_fitted``; E(t)'s per-hypothesis terms are built once per fit and
kept with it, as the sorted statistics are kept with their
:class:`MirrorStatistics`, so any number of selections on one fit share
one build of each.

The selector returns the largest threshold up to t_up whose estimate
stays at or below the target. The s-side uses <= and the r-side strict
<, so a p-value of exactly one half (where s_i == r_i) counts as a
rejection but not against it at the boundary; no special casing is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import check_alpha, check_unit, clamp_pvalues, psi


@dataclass
class MirrorStatistics:
    """Per-hypothesis psi statistics and the search cap.

    s : psi at the p-value (the rejection statistic)
    r : psi at one minus the p-value (the mirror statistic)
    t_up : the largest threshold the mirror argument supports,
        min_i psi_i(0.5); above it a rejection region would cross the
        midpoint of the null distribution.

    Not changed after it is built, so it caches the sorted candidate
    thresholds with their counts (``_candidates``), built on the first
    selection and read by every later one.
    """

    s: np.ndarray
    r: np.ndarray
    t_up: float

    def __post_init__(self):
        # psi rounds to 1 where (1 - pi) h is below half an ulp of pi
        self.s = check_unit("s", self.s, include_one=True)
        self.r = check_unit("r", self.r, include_one=True)
        if self.s.shape != self.r.shape or self.s.ndim != 1:
            raise ValueError("s and r must be 1-d arrays of equal length")
        if not 0.0 < self.t_up <= 1.0:
            raise ValueError("t_up must lie in (0, 1]")

    @cached_property
    def _candidates(self):
        """Candidate thresholds, the s-values up to t_up in ascending
        order, with their mirror counts #{r_i < t} and rejection counts
        #{s_i <= t}."""
        s_sorted = np.sort(self.s)
        r_sorted = np.sort(self.r)
        candidates = s_sorted[s_sorted <= self.t_up]
        den = np.searchsorted(s_sorted, candidates, side="right")
        num = np.searchsorted(r_sorted, candidates, side="left")
        return candidates, num, den


@dataclass
class RejectionResult:
    t_hat: float
    rejected: np.ndarray
    n_rejections: int
    fdp_hat: float


def mirror_statistics(pvals, fitted):
    """Build :class:`MirrorStatistics` from p-values and fitted parameters."""
    p = clamp_pvalues(pvals)
    if p.shape != fitted.pi_hat.shape:
        raise ValueError(
            f"p-values of shape {p.shape} for fitted hypotheses of shape {fitted.pi_hat.shape}"
        )
    s = psi(p, fitted.pi_hat, fitted.k_hat)
    r = psi(1.0 - p, fitted.pi_hat, fitted.k_hat)
    t_up = float(np.min(psi(0.5, fitted.pi_hat, fitted.k_hat)))
    return MirrorStatistics(s=s, r=r, t_up=t_up)


def select_threshold(stats, alpha, mixed_fitted=None):
    """Largest candidate threshold with an admissible FDP estimate.

    Candidates are the observed s-values at or below t_up, plus zero;
    the estimate only changes at those points. The search always stops
    at t_up: above it the mirror count no longer stands in for the
    false rejections. Returns 0.0 when no candidate is admissible (then
    nothing is rejected).

    With mixed_fitted set to the fit's FittedHypotheses, the numerator is
    max(1, E(t), #{r_i < t}) with E(t) = sum_i pi_i c(t, pi_i, k_i): the
    expected count is sharp for small t, the mirror count takes over
    once rejections reach into moderate p-values, and the floor of one
    keeps a handful of rejections with a tiny E(t) out. As that
    numerator is never below max(1, count), a candidate with
    max(1, count) / max(1, rejections) > alpha cannot be admissible.
    The search screens those out in one vectorized pass, then scans the
    survivors, largest first, in blocks of 1, 2, 4, ... candidates, and
    stops at the first admissible one. Each block's smallest candidate
    is evaluated first: its estimate with the rejection count of the
    block's largest candidate bounds every estimate in the block from
    below, so when that bound exceeds alpha the block is skipped. The
    answer is the one an evaluation of every candidate gives, but only
    the candidates actually evaluated cost O(m) each.
    """
    check_alpha(alpha)
    candidates, num, den = stats._candidates
    if candidates.size == 0:
        return 0.0
    if mixed_fitted is not None:
        return _select_mixed(candidates, num, den, alpha, mixed_fitted)
    admissible = _fdp_hat(num, den) <= alpha
    if not admissible.any():
        return 0.0
    return float(candidates[admissible].max())


def reject(stats, t_hat, mixed_fitted=None):
    """Rejection set at threshold t_hat: every i with s_i <= t_hat.

    fdp_hat is the estimate the selector compares with alpha, the mixed
    one when mixed_fitted is set to the fit's FittedHypotheses (as for
    :func:`select_threshold`); at t_hat = 0 both read 1.
    """
    if not 0.0 <= t_hat <= 1.0:
        raise ValueError("t_hat must lie in [0, 1]")
    rejected = stats.s <= t_hat
    n_rejections = int(np.count_nonzero(rejected))
    expected = None if mixed_fitted is None else _expected_count(mixed_fitted, t_hat)
    fdp_hat = _fdp_hat(int(np.count_nonzero(stats.r < t_hat)), n_rejections, expected)
    return RejectionResult(
        t_hat=float(t_hat),
        rejected=rejected,
        n_rejections=n_rejections,
        fdp_hat=float(fdp_hat),
    )


def _fdp_hat(num, den, expected=None):
    """The FDP estimate from the mirror count num = #{r_i < t} and the
    rejection count den = #{s_i <= t}: (1 + num) / max(1, den), or
    max(1, E(t), num) / max(1, den) given the expected null count E(t).
    Broadcasts, so the selectors and :func:`reject` share its rounding."""
    numerator = 1 + num if expected is None else np.maximum(np.maximum(expected, num), 1)
    return numerator / np.maximum(1, den)


def _select_mixed(candidates, num, den, alpha, fitted):
    """Screen-and-scan search of :func:`select_threshold` with
    mixed_fitted = fitted."""
    # the estimate is never below its value at E = 0, so the mirror
    # screen only drops candidates the full test would reject too
    survivors = np.flatnonzero(_fdp_hat(num, den, 0.0) <= alpha)[::-1]
    lo, size = 0, 1
    while lo < survivors.size:
        block = survivors[lo : lo + size]  # descending t
        lo += block.size
        size *= 2
        # E(t), num and den never decrease with t, so every t in the
        # block has an estimate at least the one with E and num of its
        # smallest t and den of its largest; the slack absorbs rounding
        # in E's monotonicity
        smallest = _expected_count(fitted, candidates[block[-1]])
        if _fdp_hat(num[block[-1]], den[block[0]], smallest) > alpha * (1.0 + 1e-9):
            continue
        for i in block:
            expected = smallest if i == block[-1] else _expected_count(fitted, candidates[i])
            if _fdp_hat(num[i], den[i], expected) <= alpha:
                return float(candidates[i])
    return 0.0


def _expected_count(fitted, t):
    """E(t) = sum_i pi_i * cutoff(t, pi_i, k_i) at one threshold t in
    [0, 1].

    Written on the log scale: the cutoff is
    exp(min(0, (logit t + log((1-k)(1-pi)/pi)) / k)), so the min
    against one costs nothing; at t = 0 (logit -inf) every cutoff is 0
    and E(0) = 0, at t = 1 (logit inf) every cutoff is 1 and
    E(1) = sum(pi). The per-hypothesis terms, four O(m) passes, are the
    fit's ``_cutoff_terms``, built at its first call with t > 0; E(0) is
    returned without them.
    """
    if t == 0.0:
        return 0.0
    log_pref, inv_k = fitted._cutoff_terms
    ts = np.array([t], dtype=float)
    with np.errstate(divide="ignore"):
        logit_t = np.log(ts) - np.log1p(-ts)
    logc = logit_t + log_pref
    logc *= inv_k
    np.minimum(logc, 0.0, out=logc)
    np.exp(logc, out=logc)
    return float(logc @ fitted.pi_hat)
