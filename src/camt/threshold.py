"""Mirror FDP estimation and threshold selection.

For each hypothesis the psi transform is applied twice, to the p-value
itself, s_i = psi(p_i), and to its reflection, r_i = psi(1 - p_i).
Rejecting whenever s_i <= t makes the r_i that fall below t a stand-in
for the unobservable count of false rejections (a null p-value and its
reflection are exchangeable), which gives the estimate

    FDP(t) = (1 + #{r_i < t}) / max(1, #{s_i <= t}),

or, in the mixed mode, the same ratio with the numerator replaced by
max(E(t), #{r_i < t}), E(t) being the fitted model's expected number of
null p-values below their cutoffs. Both are written once, in
``_fdp_hat``, which the selectors and :func:`reject` share.

The selector returns the largest threshold whose estimate stays at or
below the target. The s-side uses <= and the r-side strict <, so a
p-value of exactly one half (where s_i == r_i) counts as a rejection
but not against it at the boundary; no special casing is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import check_unit, clamp_pvalues, psi


@dataclass
class MirrorStatistics:
    """Per-hypothesis psi statistics and the search cap.

    s : psi at the p-value (the rejection statistic)
    r : psi at one minus the p-value (the mirror statistic)
    t_up : the largest threshold the mirror argument supports,
        min_i psi_i(0.5); above it a rejection region would cross the
        midpoint of the null distribution.
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


@dataclass
class RejectionResult:
    t_hat: float
    rejected: np.ndarray
    n_rejections: int
    fdp_hat: float


def mirror_statistics(pvals, fitted):
    """Build :class:`MirrorStatistics` from p-values and fitted parameters."""
    p = clamp_pvalues(pvals)
    s = psi(p, fitted.pi_hat, fitted.k_hat)
    r = psi(1.0 - p, fitted.pi_hat, fitted.k_hat)
    t_up = float(np.min(psi(0.5, fitted.pi_hat, fitted.k_hat)))
    return MirrorStatistics(s=s, r=r, t_up=t_up)


def select_threshold(stats, alpha, cap_at_tup=True, mixed_fitted=None):
    """Largest candidate threshold with an admissible FDP estimate.

    Candidates are the observed s-values (capped at t_up unless
    cap_at_tup is False) plus zero; the estimate only changes at those
    points, so nothing larger is ever needed. Returns 0.0 when no
    candidate is admissible (then nothing is rejected).

    With mixed_fitted set (a FittedHypotheses), the numerator is
    max(E(t), #{r_i < t}) with E(t) = sum_i pi_i c(t, pi_i, k_i): the
    expected count is sharp for small t, the mirror count takes over
    once rejections reach into moderate p-values. As that numerator is
    never below the mirror count, a candidate with
    count / max(1, rejections) > alpha cannot be admissible. The search
    screens those out in one vectorized pass, then scans the survivors,
    largest first, in blocks of 1, 2, 4, ... candidates, and stops at
    the first admissible one. Each block's smallest candidate is
    evaluated first: when its E already exceeds alpha times the
    rejection count at the block's largest candidate, no candidate of
    the block can be admissible and the block is skipped. The answer is
    the one an evaluation of every candidate gives, but only the
    candidates actually evaluated cost O(m) each.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    candidates, num, den = _candidate_counts(stats, cap_at_tup)
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
    one when mixed_fitted is set and t_hat > 0.
    """
    if not 0.0 <= t_hat <= 1.0:
        raise ValueError("t_hat must lie in [0, 1]")
    rejected = stats.s <= t_hat
    n_rejections = int(np.count_nonzero(rejected))
    expected = None
    if mixed_fitted is not None and t_hat > 0.0:
        expected = _ExpectedCount(mixed_fitted)(t_hat)
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
    max(E(t), num) / max(1, den) given the expected null count E(t).
    Broadcasts, so the selectors and :func:`reject` share its rounding."""
    numerator = 1 + num if expected is None else np.maximum(expected, num)
    return numerator / np.maximum(1, den)


def _candidate_counts(stats, cap_at_tup):
    """Sorted candidate thresholds with mirror and rejection counts."""
    s_sorted = np.sort(stats.s)
    r_sorted = np.sort(stats.r)
    if cap_at_tup:
        candidates = s_sorted[s_sorted <= stats.t_up]
    else:
        candidates = s_sorted
    den = np.searchsorted(s_sorted, candidates, side="right")
    num = np.searchsorted(r_sorted, candidates, side="left")
    return candidates, num, den


def _select_mixed(candidates, num, den, alpha, fitted):
    """Screen-and-scan search of :func:`select_threshold` with mixed_fitted."""
    # max(E, num) / den >= num / den, so the mirror screen only drops
    # candidates the full test would reject too
    survivors = np.flatnonzero(num / np.maximum(1, den) <= alpha)[::-1]
    expected_count = _ExpectedCount(fitted)
    lo, size = 0, 1
    while lo < survivors.size:
        block = survivors[lo : lo + size]  # descending t
        lo += block.size
        size *= 2
        # E(t) increases with t and den never decreases, so every t in
        # the block has E(t) / den(t) >= E(smallest t) / den(largest t);
        # the slack absorbs rounding in E's monotonicity
        smallest = expected_count(candidates[block[-1]])
        if smallest / max(1, den[block[0]]) > alpha * (1.0 + 1e-9):
            continue
        for i in block:
            expected = smallest if i == block[-1] else expected_count(candidates[i])
            if _fdp_hat(num[i], den[i], expected) <= alpha:
                return float(candidates[i])
    return 0.0


class _ExpectedCount:
    """E(t) = sum_i pi_i * cutoff(t, pi_i, k_i) at one threshold t in
    (0, 1] per call.

    Written on the log scale: the cutoff is
    exp(min(0, (logit t + log((1-k)(1-pi)/pi)) / k)), so the min
    against one costs nothing, and at t = 1 (logit inf) every cutoff is
    1 and E(1) = sum(pi).
    """

    def __init__(self, fitted):
        k = fitted.k_hat
        self.pi = fitted.pi_hat
        self.log_pref = np.log1p(-k) + np.log1p(-self.pi) - np.log(self.pi)
        self.inv_k = 1.0 / k

    def __call__(self, t):
        ts = np.array([t], dtype=float)
        with np.errstate(divide="ignore"):
            logit_t = np.log(ts) - np.log1p(-ts)
        logc = logit_t + self.log_pref
        logc *= self.inv_k
        np.minimum(logc, 0.0, out=logc)
        np.exp(logc, out=logc)
        return float(logc @ self.pi)
