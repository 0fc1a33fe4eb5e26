"""Mirror FDP estimation and threshold selection.

For each hypothesis the psi transform is applied twice, to the p-value
itself, s_i = psi(p_i), and to its reflection, r_i = psi(1 - p_i).
Rejecting whenever s_i <= t makes the r_i that fall below t a stand-in
for the unobservable count of false rejections (a null p-value and its
reflection are exchangeable), which gives the estimate

    fdp_up(t) = (1 + #{r_i < t}) / max(1, #{s_i <= t}).

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
        self.s = check_unit("s", self.s)
        self.r = check_unit("r", self.r)
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


def fdp_up(t, stats):
    """Upward-biased FDP estimate at threshold t (in [0, 1])."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    num = int(np.count_nonzero(stats.r < t))
    den = int(np.count_nonzero(stats.s <= t))
    return (1 + num) / max(1, den)


def select_threshold(stats, alpha, cap_at_tup=True, mixed_fitted=None):
    """Largest candidate threshold with an admissible FDP estimate.

    Candidates are the observed s-values (capped at t_up unless
    cap_at_tup is False) plus zero; the estimate only changes at those
    points, so nothing larger is ever needed. Returns 0.0 when no
    candidate is admissible (then nothing is rejected).

    With mixed_fitted set (a FittedHypotheses), the numerator
    1 + count is replaced by the mixed estimate of the number of
    false rejections, see :func:`mixed_false_rejection_estimate`. That
    estimate is never below the mirror count, so a candidate with
    count / max(1, rejections) > alpha cannot be admissible. The search
    screens those out in one vectorized pass, then evaluates the
    expected-count part only on the survivors, largest first, in blocks
    of 1, 2, 4, ... candidates (at most one evaluation chunk), and stops
    at the first admissible one. Each block's smallest candidate is
    evaluated first: when its expected count already exceeds alpha
    times the rejection count at the block's largest candidate, no
    candidate of the block can be admissible and the rest of the block
    is skipped. The answer is the one an evaluation of every candidate
    gives, but only the candidates actually evaluated cost O(m) each.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    candidates, num, den = _candidate_counts(stats, cap_at_tup)
    if candidates.size == 0:
        return 0.0
    if mixed_fitted is not None:
        return _select_mixed(candidates, num, den, alpha, mixed_fitted)
    # same floating-point expression as fdp_up, so grid evaluation agrees
    admissible = (1 + num) / np.maximum(1, den) <= alpha
    if not admissible.any():
        return 0.0
    return float(candidates[admissible].max())


def reject(stats, t_hat, mixed_fitted=None):
    """Rejection set at threshold t_hat: every i with s_i <= t_hat."""
    if not 0.0 <= t_hat <= 1.0:
        raise ValueError("t_hat must lie in [0, 1]")
    rejected = stats.s <= t_hat
    if mixed_fitted is None or t_hat <= 0.0:
        fdp_hat = fdp_up(t_hat, stats)
    else:
        est = mixed_false_rejection_estimate(t_hat, stats, mixed_fitted)
        fdp_hat = est / max(1, int(np.count_nonzero(rejected)))
    return RejectionResult(
        t_hat=float(t_hat),
        rejected=rejected,
        n_rejections=int(np.count_nonzero(rejected)),
        fdp_hat=float(fdp_hat),
    )


def mixed_false_rejection_estimate(t, stats, fitted):
    """Conservative mixed estimate of the number of false rejections.

    The larger of two estimates: the expected count of null p-values
    below their cutoffs, sum_i pi_i c(t, pi_i, k_i), which is sharp for
    small t, and the mirror count #{r_i < t}, which takes over once
    rejections reach into moderate p-values.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in the open interval (0, 1)")
    expected = float(_ExpectedCount(fitted, 1)(np.array([t]))[0])
    return max(expected, float(np.count_nonzero(stats.r < t)))


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
    den = np.maximum(1, den)
    # max(E, num) / den >= num / den, so the mirror screen only drops
    # candidates the full test would reject too
    survivors = np.flatnonzero(num / den <= alpha)[::-1]
    chunk = max(1, int(4_000_000 // max(1, fitted.pi_hat.size)))
    expected_count = _ExpectedCount(fitted, min(chunk, survivors.size))
    lo, size = 0, 1
    while lo < survivors.size:
        idx = survivors[lo : lo + size]  # descending t
        lo += idx.size
        size = min(2 * size, chunk)
        # E(t) increases with t and den never decreases, so every t in
        # the block has E(t) / den(t) >= E(smallest t) / den(largest t);
        # the slack absorbs rounding in E's monotonicity
        smallest = expected_count(candidates[idx[-1:]])
        if smallest[0] / den[idx[0]] > alpha * (1.0 + 1e-9):
            continue
        expected = np.append(expected_count(candidates[idx[:-1]]), smallest)
        admissible = np.maximum(expected, num[idx]) / den[idx] <= alpha
        if admissible.any():
            return float(candidates[idx[np.argmax(admissible)]])
    return 0.0


class _ExpectedCount:
    """sum_i pi_i * cutoff(t, pi_i, k_i), evaluated for up to max_rows
    thresholds per call.

    Written on the log scale: the cutoff is
    exp(min(0, (logit t + log((1-k)(1-pi)/pi)) / k)), so the min
    against one costs nothing. Each sum is its own dot product, so its
    value does not depend on which other thresholds share its call: the
    selector's scan and :func:`mixed_false_rejection_estimate` agree bit
    for bit.
    """

    def __init__(self, fitted, max_rows):
        k = fitted.k_hat
        self.pi = fitted.pi_hat
        self.log_pref = np.log1p(-k) + np.log1p(-self.pi) - np.log(self.pi)
        self.inv_k = 1.0 / k
        self.buf = np.empty((max_rows, self.pi.size))

    def __call__(self, ts):
        logc = self.buf[: ts.size]
        logit_t = np.log(ts) - np.log1p(-ts)
        np.add(logit_t[:, None], self.log_pref, out=logc)
        np.multiply(logc, self.inv_k, out=logc)
        np.minimum(logc, 0.0, out=logc)
        np.exp(logc, out=logc)
        return np.array([row @ self.pi for row in logc])
