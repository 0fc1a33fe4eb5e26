"""Null-calibration diagnostics.

The mirror estimator trusts p-values above one half to behave like the
flat part of a uniform distribution. The genomic inflation factor (gif)
checks exactly that region: p-values in [0.5, 1] are mapped to 1-df
chi-square quantiles and their median is compared against the value a
uniform sample would give. Values above one flag an excess of
moderately small p-values among the supposed nulls, the signature of a
miscalibrated (decreasing) null density that breaks FDR control.

The chi-square(1) upper quantile at p is the square of the normal
quantile at p/2, and it falls strictly as p rises. So the median over
the tail is the quantile at the tail's middle one or two order
statistics; only those are evaluated, with the standard library's
normal quantile (Wichura's AS241), and the module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .kernel import check_pvalues

GIF_WARN_THRESHOLD = 1.05
MIN_TAIL_PVALUES = 20
HISTOGRAM_BINS = 20
_NORMAL = NormalDist()


def _chi2_1_isf(p):
    """Upper chi-square(1) quantile at p, as chi2.isf(p, df=1)."""
    return _NORMAL.inv_cdf(p / 2.0) ** 2


@dataclass
class GifReport:
    gif: float
    n_pvalues_used: int
    warn: bool
    threshold: float


def gif(pvals):
    """Genomic inflation factor of the p-values in [0.5, 1].

    gif = median(q_i) / F^{-1}(0.25) with q_i the upper chi-square(1)
    quantile at p_i. Exactly 1 in expectation for uniform nulls, above
    1 when the upper half of the p-value distribution piles up near
    0.5. P-values below 0.5 never enter.

    q_i falls strictly in p_i, so median(q_i) is q at the middle one or
    two order statistics of the retained p-values. Those are found with
    np.partition, and q is evaluated there alone, as the square of the
    normal quantile (AS241) at p/2; their median is their exact mean,
    (a + b) / 2, as np.median computes it. The reference F^{-1}(0.25)
    is computed the same way, so a tail of p = 0.75 gives exactly 1.

    Raises ValueError when fewer than 20 p-values lie in [0.5, 1];
    a median of less than that is noise, not a diagnostic.
    """
    p = check_pvalues(pvals)
    retained = p[p >= 0.5]
    if retained.size < MIN_TAIL_PVALUES:
        raise ValueError(
            f"insufficient data: {retained.size} p-values in [0.5, 1], "
            f"need at least {MIN_TAIL_PVALUES}"
        )
    n = retained.size
    mid = [(n - 1) // 2, n // 2]  # the same index twice when n is odd
    lo, hi = (_chi2_1_isf(x) for x in np.partition(retained, mid)[mid].tolist())
    value = (lo + hi) / 2 / _chi2_1_isf(0.75)
    return GifReport(
        gif=value,
        n_pvalues_used=int(retained.size),
        warn=value > GIF_WARN_THRESHOLD,
        threshold=GIF_WARN_THRESHOLD,
    )


def null_histogram_summary(pvals):
    """Exact counts of p-values over HISTOGRAM_BINS equal bins of [0, 1].

    The last bin is closed on the right, so the counts always sum to
    the number of p-values.
    """
    counts, _ = np.histogram(check_pvalues(pvals), bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return counts
