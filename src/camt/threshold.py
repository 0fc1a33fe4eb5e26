"""Mirror FDP estimation and threshold selection.

As the threshold t grows, each hypothesis enters one of two counts: a
p-value below one half the rejection count at s_i = psi(p_i), one above
one half the mirror count at r_i = psi(1 - p_i), and one of one half
neither (an entry time that never comes is inf), so a table of p-values
all equal to one half is rejected nowhere. As a null p-value and its
reflection are exchangeable, the mirror count stands in for the
unobservable count of false rejections among the s_i <= t, giving

    FDP(t) = (1 + #{r_i < t}) / max(1, #{s_i <= t}),

or, in the mixed mode, the same ratio with the numerator replaced by
max(1, E(t), #{r_i < t}), E(t) being the fitted model's expected number
of null p-values below their cutoffs. The floor of one plays the part
of the plain estimate's +1: under either estimate, n rejections are
admissible only at levels of at least 1 / n. Both are written once, in
``_fdp_hat``, which the selectors and :func:`reject` share. The mixed
mode takes the fit itself, a :class:`~camt.em.FittedHypotheses`, as
``mixed_fitted``, and E(t) is written here alone, in
``_expected_count``, from the fit's pi_hat and k_hat at each threshold
it is asked for. The sorted statistics are kept with their
:class:`MirrorStatistics`, so any number of selections on one fit share
one sort.

This is the knockoff filter's SeqStep+ estimate (Barber & Candes 2015)
on psi of AdaPT's masked p-value min(p_i, 1 - p_i) (Lei & Fithian
2018), signed by the side of one half; a p-value of one half, like a
knockoff W = 0, has no sign. The selector returns the largest threshold
up to t_up = min_i psi_i(1/2) whose estimate stays at or below the
target; below t_up the counts are those of psi(p_i) <= t and
psi(1 - p_i) < t over all hypotheses, as psi is increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import check_alpha, clamp_pvalues, is_real, psi, real_array


@dataclass
class MirrorStatistics:
    """Per-hypothesis entry times and the search cap.

    s : entry time into the rejection count, psi(p) if p < 1/2, else inf
    r : entry time into the mirror count, psi(1 - p) if p > 1/2, else inf
    t_up : min_i psi_i(1/2), the largest threshold the mirror argument
        supports, above which a rejection region would cross the null's
        midpoint; a real scalar (:func:`~camt.kernel.is_real`) in (0, 1].

    Not changed after it is built, so it caches the sorted candidate
    thresholds with their counts (``_candidates``), built on the first
    selection and read by every later one.
    """

    s: np.ndarray
    r: np.ndarray
    t_up: float

    def __post_init__(self):
        # psi rounds to 1 where (1 - pi) h is below half an ulp of pi
        for name in ("s", "r"):
            x = real_array(name, getattr(self, name))
            if x.size and not (x.min() > 0.0 and ((x <= 1.0) | (x == np.inf)).all()):
                raise ValueError(f"{name} must lie in (0, 1] or be inf")
            setattr(self, name, x)
        if self.s.shape != self.r.shape or self.s.ndim != 1:
            raise ValueError("s and r must be 1-d arrays of equal length")
        # here and above, the comparisons are false for NaN, so NaN fails too
        if not (is_real(self.t_up) and 0.0 < self.t_up <= 1.0):
            raise ValueError("t_up must lie in (0, 1]")

    @cached_property
    def _candidates(self):
        """Candidate thresholds, the s-values up to t_up in ascending
        order, with their mirror counts #{r_i < t} and rejection counts
        #{s_i <= t}; an entry time past t_up enters no count there."""
        candidates = self.s[self.s <= self.t_up]
        r_sorted = self.r[self.r < self.t_up]
        candidates.sort()
        r_sorted.sort()
        den = np.searchsorted(candidates, candidates, side="right")
        num = np.searchsorted(r_sorted, candidates, side="left")
        return candidates, num, den


@dataclass
class RejectionResult:
    t_hat: float
    rejected: np.ndarray
    n_rejections: int
    fdp_hat: float


def mirror_statistics(pvals, fitted):
    """Build :class:`MirrorStatistics` from p-values and fitted parameters.

    The p-values pass :func:`~camt.kernel.check_pvalues` and are clamped
    (:func:`~camt.kernel.clamp_pvalues`) into a copy; min(p, 1 - p) is
    formed in that copy's own buffer, so one psi pass gives both entry
    times and the caller's array is never written. No p-value is an error.
    """
    p = clamp_pvalues(pvals)
    if p.size == 0:
        raise ValueError("need at least one p-value")
    if p.shape != fitted.pi_hat.shape:
        raise ValueError(
            f"p-values of shape {p.shape} for fitted hypotheses of shape {fitted.pi_hat.shape}"
        )
    lower, upper = p < 0.5, p > 0.5
    entry = psi(np.minimum(p, np.subtract(1.0, p), out=p), fitted.pi_hat, fitted.k_hat)
    with np.errstate(divide="ignore"):  # psi > 0, so entry / False is inf
        s, r = entry / lower, entry / upper
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
    the candidates actually evaluated cost O(m) each: E(t) at one
    threshold is a few passes over the fit's pi_hat and k_hat.

    A mixed_fitted whose shape is not that of stats, another fit's,
    raises ValueError.
    """
    check_alpha(alpha)
    _check_mixed_fitted(stats, mixed_fitted)
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

    Every count reads the entry times, at any t_hat: a p-value above one
    half is never rejected, even at a t_hat above t_up, which no
    selection reaches, and a psi rounding tie psi(p) == psi(1 - p) counts
    on its side of one half, which under the cap matters only at t_up.

    fdp_hat is the estimate the selector compares with alpha, the mixed
    one when mixed_fitted is set to the fit's FittedHypotheses (as for
    :func:`select_threshold`, and refused the same way when it is another
    fit's); at t_hat = 0 both read 1. t_hat is a real scalar
    (:func:`~camt.kernel.is_real`) in [0, 1].
    """
    # the comparisons are false for NaN, so NaN fails too
    if not (is_real(t_hat) and 0.0 <= t_hat <= 1.0):
        raise ValueError("t_hat must lie in [0, 1]")
    _check_mixed_fitted(stats, mixed_fitted)
    rejected = stats.s <= t_hat
    n_rejections = int(np.count_nonzero(rejected))
    # at t_hat = 0, E(0) = 0 and the mirror count is 0, so the mixed
    # estimate is the plain one and needs no pass over the fit
    mixed = mixed_fitted is not None and t_hat > 0.0
    expected = _expected_count(mixed_fitted, t_hat) if mixed else None
    fdp_hat = _fdp_hat(int(np.count_nonzero(stats.r < t_hat)), n_rejections, expected)
    return RejectionResult(float(t_hat), rejected, n_rejections, float(fdp_hat))


def _check_mixed_fitted(stats, mixed_fitted):
    """ValueError unless mixed_fitted is None or holds one fitted
    hypothesis per statistic of stats: E(t) over another fit would price
    the wrong hypotheses. A shape compare, no pass over the data."""
    if mixed_fitted is not None and mixed_fitted.pi_hat.shape != stats.s.shape:
        raise ValueError(
            f"mixed_fitted of shape {mixed_fitted.pi_hat.shape} "
            f"for statistics of shape {stats.s.shape}"
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
    """E(t) = sum_i pi_i * c(t, pi_i, k_i) at one threshold t in [0, 1].

    c is the p-value cutoff of the rejection rule psi(p) <= t
    (:func:`camt.kernel.psi`), the p that solves h(p) = w(t, pi):

        c(t, pi, k) = min(1, (t (1-k) (1-pi) / ((1-t) pi)) ** (1/k)).

    Written on the log scale: the cutoff is
    exp(min(0, (logit t + log((1-k)(1-pi)/pi)) / k)), so the min
    against one costs nothing; at t = 0 (logit -inf) every cutoff is 0
    and E(0) = 0, at t = 1 (logit inf) every cutoff is 1 and
    E(1) = sum(pi).
    """
    pi, k = fitted.pi_hat, fitted.k_hat
    ts = np.array([t], dtype=float)
    with np.errstate(divide="ignore"):
        logit_t = np.log(ts) - np.log1p(-ts)
    logc = logit_t + (np.log1p(-k) + np.log1p(-pi) - np.log(pi))
    logc *= 1.0 / k
    np.minimum(logc, 0.0, out=logc)
    np.exp(logc, out=logc)
    return float(logc @ pi)
