"""End-to-end procedure: fit the mixture, pick a threshold, reject.

Split in two so that sweeps over several target levels pay for the EM
fit once: :func:`fit_camt` does all the estimation, the returned
:class:`CamtFit` answers any number of `select` calls cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import FitResult, build_design, fit
# clamp_pvalues is not called here; bench/tracing.py counts calls through this name
from .kernel import check_alpha, check_pvalues, clamp_pvalues  # noqa: F401
from .threshold import MirrorStatistics, mirror_statistics, reject, select_threshold


@dataclass
class CamtFit(FitResult):
    """The EM fit with its mirror statistics, sufficient for threshold
    selection at any level."""

    stats: MirrorStatistics

    def select(self, alpha, mixed=False):
        """Threshold search plus rejection at target level alpha."""
        # the fit itself: every selection on it shares the one build of
        # E(t)'s terms, which the fit keeps; by keyword, as
        # bench/tracing.py names the select span from it
        mixed_fitted = self.fitted if mixed else None
        t_hat = select_threshold(self.stats, alpha, mixed_fitted=mixed_fitted)
        return reject(self.stats, t_hat, mixed_fitted=mixed_fitted)


def fit_camt(pvals, covariates=None, spline_knots=0):
    """Estimate the mixture for the given p-values and covariates.

    The p-values are validated without a copy: :func:`~camt.em.fit` and
    :func:`~camt.threshold.mirror_statistics` each clamp their own, so
    no clamped copy stays alive through EM.

    Parameters
    ----------
    pvals : array_like
        P-values in [0, 1].
    covariates : array_like or None
        (m, q) covariate matrix; None fits an intercept-only model,
        which still adapts to the overall signal fraction and strength.
    spline_knots : int
        0 for linear covariate effects, else knots per covariate.
    """
    p = check_pvalues(pvals)
    if p.size == 0:
        raise ValueError("need at least one p-value")
    if covariates is None:
        covariates = np.empty((p.size, 0))
    design = build_design(covariates, spline_knots=spline_knots)
    if design.shape[0] != p.size:
        raise ValueError(f"covariates have {design.shape[0]} rows for {p.size} p-values")
    result = fit(design, p)
    return CamtFit(**vars(result), stats=mirror_statistics(p, result.fitted))


def run_camt(pvals, covariates=None, alpha=0.05, spline_knots=0, mixed=False):
    """One-call version of fit + select.

    Returns the :class:`CamtFit` and the
    :class:`~camt.threshold.RejectionResult` of its selection at level alpha.
    A bad alpha is refused before the fit.
    """
    check_alpha(alpha)
    state = fit_camt(pvals, covariates, spline_knots=spline_knots)
    return state, state.select(alpha, mixed=mixed)
