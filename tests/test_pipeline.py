"""Tests for the end-to-end fit / select entry points."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import camt
from camt.pipeline import CamtFit, fit_camt, run_camt
from camt.simulation import SimulationConfig, generate
from camt.threshold import RejectionResult


def test_empty_input_is_a_clear_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before EM can warn about small m
        with pytest.raises(ValueError, match="need at least one p-value"):
            run_camt(np.array([]))
        with pytest.raises(ValueError, match="need at least one p-value"):
            fit_camt([], np.empty((0, 2)))


def test_covariate_rows_must_match_the_p_values():
    p = np.random.default_rng(8).uniform(size=1000)
    with pytest.raises(ValueError, match="covariates have 999 rows for 1000 p-values"):
        fit_camt(p, np.ones((999, 1)))
    with pytest.raises(ValueError, match="covariates have 1001 rows for 1000 p-values"):
        run_camt(p, np.arange(1001.0), spline_knots=3)


def test_mixed_mode_rejects_nothing_from_all_null_pvalues():
    # every hypothesis is null, so any rejection is false; the mixed
    # estimate's floor of one keeps out the few rejections with a tiny
    # E(t) that max(E(t), #{r_i < t}) alone let through (2 at seed 0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pvals, covariates = rng.random(2000), rng.standard_normal((2000, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # EM may not converge on a complete null
            _, result = run_camt(pvals, covariates, alpha=0.05, mixed=True)
        assert (result.n_rejections, result.t_hat, result.fdp_hat) == (0, 0.0, 1.0), seed


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan"), np.array([0.1, 0.2])], ids=repr)
def test_run_camt_refuses_a_bad_alpha_before_the_fit(alpha, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("EM ran before alpha was checked")

    monkeypatch.setattr("camt.pipeline.fit", no_fit)
    p = np.random.default_rng(8).uniform(size=1000)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
        run_camt(p, alpha=alpha)


@pytest.mark.parametrize("mixed", [False, True])
def test_run_camt_is_fit_then_select(mixed):
    data = generate(SimulationConfig(setup="S0", m=3000, seed=7), 0)
    fit, sel = run_camt(data.pvals, data.covariates, alpha=0.1, mixed=mixed)
    assert isinstance(fit, CamtFit) and isinstance(sel, RejectionResult)
    alone = fit_camt(data.pvals, data.covariates).select(0.1, mixed=mixed)
    assert sel.t_hat == alone.t_hat > 0.0
    assert np.array_equal(sel.rejected, alone.rejected)
    assert sel.fdp_hat == alone.fdp_hat


def test_import_camt_loads_only_the_pipeline():
    code = (
        "import sys, camt; "
        "print(' '.join(sorted(n for n in sys.modules if n.split('.')[0] in ('camt', 'scipy'))))"
    )
    src = str(Path(camt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    assert not [n for n in out if n.split(".")[0] == "scipy"]
    for module in ("camt.cli", "camt.simulation", "camt.baselines", "camt.diagnostics"):
        assert module not in out
    assert "camt.pipeline" in out
