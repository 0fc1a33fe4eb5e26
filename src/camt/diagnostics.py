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
statistics; only those are evaluated, with camt's normal quantile
(:func:`camt._special.ndtri`, Wichura's AS241), and the module needs
numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import ndtri
from .kernel import check_pvalues

GIF_WARN_THRESHOLD = 1.05
MIN_TAIL_PVALUES = 20
HISTOGRAM_BINS = 20


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
    normal quantile (AS241, :func:`~camt._special.ndtri`) at p/2; their
    median is their exact mean, (a + b) / 2, as np.median computes it.
    The reference F^{-1}(0.25) is computed in the same call, so a tail
    of p = 0.75 gives exactly 1.

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
    # upper chi-square(1) quantiles, as chi2.isf(p, df=1), at the middle pair and at 0.75;
    # squared as Python floats, so each equals NormalDist().inv_cdf(p / 2) ** 2 bit for
    # bit; numpy's x * x differs from that in the last bit for about 1 p in 1200
    z = ndtri(np.append(np.partition(retained, mid)[mid], 0.75) / 2.0)
    lo, hi, ref = (x**2 for x in z.tolist())
    value = (lo + hi) / 2 / ref
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
