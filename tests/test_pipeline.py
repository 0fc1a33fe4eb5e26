"""Tests for the end-to-end fit / select entry points."""

import warnings

import numpy as np
import pytest

from camt.em import FittedHypotheses, build_design, fit
from camt.pipeline import CamtFit, fit_camt, run_camt
from camt.simulation import SimulationConfig, generate
from camt.threshold import RejectionResult, mirror_statistics


def test_empty_input_is_a_clear_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before EM can warn about small m
        with pytest.raises(ValueError, match="need at least one p-value"):
            run_camt(np.array([]))
        with pytest.raises(ValueError, match="need at least one p-value"):
            fit_camt([], np.empty((0, 2)))
    empty = FittedHypotheses(pi_hat=np.empty(0), k_hat=np.empty(0))
    with pytest.raises(ValueError, match="need at least one p-value"):
        mirror_statistics(np.array([]), empty)


def test_covariate_rows_must_match_the_p_values():
    p = np.random.default_rng(8).uniform(size=1000)
    with pytest.raises(ValueError, match="covariates have 999 rows for 1000 p-values"):
        fit_camt(p, np.ones((999, 1)))
    with pytest.raises(ValueError, match="covariates have 1001 rows for 1000 p-values"):
        run_camt(p, np.arange(1001.0), spline_knots=3)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda p, x: run_camt(p + 0j, x), "p-values"),
        (lambda p, x: run_camt(list(p + 0j), x), "p-values"),
        (lambda p, x: run_camt(p, x + 5j), "covariates"),
        (lambda p, x: fit_camt(p, np.column_stack([x, x * 1j])), "covariates"),
        (lambda p, x: fit(build_design(x) + 0j, p), "design"),
        (lambda p, x: FittedHypotheses(pi_hat=np.full(p.size, 0.9 + 0j), k_hat=np.full(p.size, 0.5)), "pi_hat"),
        (lambda p, x: FittedHypotheses(pi_hat=np.full(p.size, 0.9), k_hat=np.full(p.size, 0.5 + 0j)), "k_hat"),
    ],
    ids=["pvals", "pvals-list", "covariates", "covariate-column", "design", "pi_hat", "k_hat"],
)
def test_complex_input_is_refused_not_truncated(call, name):
    # a float cast kept the real part: run_camt(p + 0j, x) and
    # run_camt(p, x + 5j) returned the real-part fit's rejections, and
    # numpy's ComplexWarning was the only sign
    rng = np.random.default_rng(12)
    p, x = rng.uniform(size=500), rng.standard_normal(500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any cast can warn
        with pytest.raises(ValueError, match=f"^{name} must be real, not complex$"):
            call(p, x)


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


@pytest.mark.parametrize("m", [300, 5000])
@pytest.mark.parametrize("mixed", [False, True])
def test_a_table_of_halves_is_rejected_nowhere(m, mixed):
    # at p = 0.5, s_i == r_i: no hypothesis carries a sign, so none is a
    # rejection or a mirror, and BH too rejects none; counting s <= t
    # against r < t rejected all m at t_hat 0.927
    _, result = run_camt(np.full(m, 0.5), alpha=0.05, mixed=mixed)
    assert (result.n_rejections, result.t_hat, result.fdp_hat) == (0, 0.0, 1.0)


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


def test_fit_path_never_writes_the_callers_pvalues():
    # fit and mirror_statistics form -log p and 1 - p in place, in their
    # clamped copies; a read-only p raises on any write to the caller's
    # array, the exact endpoints included
    data = generate(SimulationConfig(setup="S0", m=3000, seed=7), 0)
    p = data.pvals.copy()
    p[:2] = 0.0, 1.0
    p.setflags(write=False)
    before = p.copy()
    state = fit_camt(p, data.covariates)
    result = fit(build_design(data.covariates), p)
    stats = mirror_statistics(p, result.fitted)
    assert np.array_equal(p, before)
    assert np.array_equal(stats.s, state.stats.s) and np.array_equal(stats.r, state.stats.r)


def test_import_camt_loads_only_the_pipeline(fresh_python):
    code = (
        "import sys, camt; "
        "print(' '.join(sorted(n for n in sys.modules if n.split('.')[0] in ('camt', 'scipy'))))"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    assert not [n for n in out if n.split(".")[0] == "scipy"]
    for module in ("camt.cli", "camt.simulation", "camt.baselines", "camt.diagnostics"):
        assert module not in out
    assert "camt.pipeline" in out
