"""Covariate-adaptive multiple testing.

Per-hypothesis null probabilities and alternative shapes are learned
from covariates by EM on a beta surrogate mixture; a mirror estimate of
the false discovery proportion then selects the rejection threshold.
Includes BH, Storey and oracle LFDR baselines, a simulation harness and
null-calibration diagnostics.

The package re-exports only the pipeline entry points; everything else
is imported from its own module (camt.em, camt.kernel, camt.threshold,
camt.baselines, camt.simulation, camt.diagnostics, camt.splines).
"""

from .pipeline import CamtFit, fit_camt, run_camt
from .threshold import RejectionResult

__all__ = ["CamtFit", "RejectionResult", "fit_camt", "run_camt", "__version__"]
__version__ = "0.1.0"
