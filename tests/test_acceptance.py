"""End-to-end validation gate.

Nine criteria, one test each, every test printing a single PASS / FAIL
line with the measured numbers. The complete-null grid runs 200
replicates by default and the full 1000-replicate version when
CAMT_FULL_ACCEPTANCE=1 is set (the criterion's stated scale, within its
longer time budget). CAMT_THREADS controls sweep parallelism.
"""

import os
import time
import warnings

import numpy as np
from scipy.special import expit

from camt.diagnostics import gif
from camt.em import CoefVector, FittedHypotheses, loglik, loglik_grad
from camt.kernel import clamp_pvalues, psi, surrogate_density
from camt.pipeline import fit_camt, run_camt
from camt.simulation import SimulationConfig, generate, run_sweep
from camt.threshold import mirror_statistics, select_threshold

FULL = os.environ.get("CAMT_FULL_ACCEPTANCE") == "1"


def _weight(t, pi):
    """The paper's rejection weight w(t, pi) = (1 - t) pi / (t (1 - pi)):
    the weight form of the rule rejects when h(p) >= w(t, pi)."""
    return (1.0 - t) * pi / (t * (1.0 - pi))


def _cutoff(t, pi, k):
    """The paper's p-value cutoff c(t, pi, k), the p that solves
    h(p) = w(t, pi), capped at one: the cutoff form rejects when
    p <= c(t, pi, k)."""
    inner = t * (1.0 - k) * (1.0 - pi) / ((1.0 - t) * pi)
    with np.errstate(over="ignore"):
        c = inner ** (1.0 / k)
    return np.minimum(1.0, c)


def _announce(capsys, idx, name, ok, detail):
    line = f"criterion {idx} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def _sweep(procedures, **kwargs):
    config = SimulationConfig(**kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(config, procedures=procedures)


def _cell(report, procedure, alpha=0.05):
    for entry in report.summarize():
        if entry["procedure"] == procedure and entry["alpha"] == alpha:
            return entry
    raise KeyError(procedure)


def test_criterion_1_fdr_control_with_informative_covariate(capsys):
    t0 = time.perf_counter()
    report = _sweep(
        ("camt",),
        setup="S0", m=10_000, eta0=2.5, k_d=1.0, k_s=2.4,
        n_replicates=100, seed=0, alpha_grid=(0.05,),
    )
    elapsed = time.perf_counter() - t0
    cell = _cell(report, "camt")
    bound = 0.05 + 2.0 * cell["se_fdp"]
    ok = cell["mean_fdp"] <= bound and elapsed < 600.0
    _announce(
        capsys, 1, "fdr control, informative covariate",
        ok,
        f"mean fdp {cell['mean_fdp']:.4f} <= {bound:.4f} "
        f"(alpha 0.05 + 2 se, 100 replicates, m=10000), {elapsed:.0f}s",
    )


def test_criterion_2_fdr_control_grid_under_complete_null(capsys):
    reps = 1000 if FULL else 200
    budget = 1800.0 if FULL else 300.0
    grid = tuple(round(0.01 * j, 2) for j in range(1, 21))
    t0 = time.perf_counter()
    report = _sweep(
        ("camt",),
        setup="complete-null", m=10_000, n_replicates=reps, seed=0,
        alpha_grid=grid,
    )
    elapsed = time.perf_counter() - t0
    worst = -np.inf
    for entry in report.summarize():
        worst = max(worst, entry["mean_fdp"] - (entry["alpha"] + 2.0 * entry["se_fdp"]))
    ok = worst <= 0.0 and elapsed < budget
    _announce(
        capsys, 2, "fdr control across the target grid, complete null",
        ok,
        f"worst slack {worst:+.4f} (<= 0 over 20 levels, {reps} replicates), "
        f"{elapsed:.0f}s < {budget:.0f}s",
    )


def test_criterion_3_power_exceeds_storey_and_approaches_oracle(capsys):
    report = _sweep(
        ("camt", "storey", "oracle"),
        setup="S0", m=10_000, eta0=2.5, k_d=1.5, k_s=2.4,
        n_replicates=100, seed=0, alpha_grid=(0.05,),
    )
    camt = _cell(report, "camt")["mean_tpr"]
    storey_tpr = _cell(report, "storey")["mean_tpr"]
    oracle_tpr = _cell(report, "oracle")["mean_tpr"]
    ok = camt > storey_tpr and camt >= 0.9 * oracle_tpr
    _announce(
        capsys, 3, "power gain from the covariate",
        ok,
        f"tpr camt {camt:.4f} > storey {storey_tpr:.4f} and "
        f">= 0.9 x oracle {oracle_tpr:.4f}",
    )


def test_criterion_4_uninformative_covariate_costs_nothing(capsys):
    report = _sweep(
        ("camt", "storey"),
        setup="S0", m=10_000, eta0=2.5, k_d=0.0, k_s=2.4,
        n_replicates=100, seed=0, alpha_grid=(0.05,),
    )
    camt = _cell(report, "camt")
    storey_tpr = _cell(report, "storey")["mean_tpr"]
    gap = abs(camt["mean_tpr"] - storey_tpr)
    bound = 0.05 + 2.0 * camt["se_fdp"]
    ok = gap <= 0.05 and camt["mean_fdp"] <= bound
    _announce(
        capsys, 4, "no cost for an uninformative covariate",
        ok,
        f"|tpr camt {camt['mean_tpr']:.4f} - storey {storey_tpr:.4f}| = {gap:.4f} "
        f"<= 0.05, fdp {camt['mean_fdp']:.4f} <= {bound:.4f}",
    )


def test_criterion_5_alternative_density_targets(capsys):
    devs = []
    for eta0, target in ((3.5, 0.03), (2.5, 0.08), (1.5, 0.18)):
        config = SimulationConfig(
            setup="S0", m=1_000_000, eta0=eta0, k_d=0.0, k_s=2.4,
            n_replicates=1, seed=0,
        )
        frac = float(np.mean(generate(config, 0).is_alternative))
        devs.append(abs(frac - target))
    ok = all(d <= 0.005 for d in devs)
    _announce(
        capsys, 5, "design density targets 3/8/18 percent",
        ok,
        "deviations " + ", ".join(f"{d:.5f}" for d in devs) + " all <= 0.005 (m=1e6)",
    )


def test_criterion_6_internal_consistency(capsys):
    # (a) the three forms of the rejection rule agree exactly: camt's psi
    # and the paper's weight and cutoff forms, written out above
    rng = np.random.default_rng(123)
    n = 100_000
    t = rng.uniform(0.01, 0.99, n)
    pi = rng.uniform(0.1, 0.99, n)
    k = rng.uniform(0.05, 0.95, n)
    p = clamp_pvalues(rng.uniform(1e-12, 1.0, n))
    by_weight = surrogate_density(p, k) >= _weight(t, pi)
    by_cutoff = p <= _cutoff(t, pi, k)
    by_psi = psi(p, pi, k) <= t
    forms_ok = np.array_equal(by_weight, by_cutoff) and np.array_equal(by_cutoff, by_psi)

    # (b) the threshold selector matches a dense brute-force grid
    rng = np.random.default_rng(2024)
    grid_ok = True
    for _ in range(100):
        m = int(rng.integers(3, 51))
        fitted = FittedHypotheses(
            pi_hat=rng.uniform(0.1, 1.0 - 1e-5, m),
            k_hat=rng.uniform(0.05, 0.95, m),
        )
        pv = np.where(rng.random(m) < 0.5, rng.uniform(0, 0.05, m), rng.random(m))
        stats = mirror_statistics(pv, fitted)
        alpha = float(rng.uniform(0.05, 0.5))
        t_hat = select_threshold(stats, alpha)
        grid = np.linspace(0.0, stats.t_up, 1_000_000)
        num = np.searchsorted(np.sort(stats.r), grid, side="left")
        den = np.searchsorted(np.sort(stats.s), grid, side="right")
        admissible = (1.0 + num) / np.maximum(1, den) <= alpha
        t_grid = float(grid[admissible].max()) if admissible.any() else 0.0
        if not np.array_equal(stats.s <= t_hat, stats.s <= t_grid):
            grid_ok = False
            break

    # (c) the EM trace never decreases
    ascent_ok = True
    config = SimulationConfig(setup="S0", m=2000, seed=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(50):
            data = generate(config, r)
            trace = fit_camt(data.pvals, data.covariates).trace.loglik
            slack = -1e-10 * np.maximum(1.0, np.abs(trace[:-1]))
            if not np.all(np.diff(trace) >= slack):
                ascent_ok = False
                break

    # (d) the analytic gradient matches central finite differences
    rng = np.random.default_rng(17)
    m = 300
    x = rng.standard_normal(m)
    design = np.column_stack([np.ones(m), x])
    k_true = expit(design @ np.array([0.5, 0.6]))
    alt = rng.random(m) >= expit(design @ np.array([2.0, 0.7]))
    u = rng.random(m)
    pv = np.where(alt, u ** (1.0 / (1.0 - k_true)), u)
    rng_pts = np.random.default_rng(99)
    step = 1e-6
    worst_rel = 0.0
    for _ in range(20):
        theta = rng_pts.normal(0.0, 1.5, 2)
        beta = rng_pts.normal(0.0, 1.0, 2)
        params = CoefVector(theta=theta, beta=beta)
        g_theta, g_beta = loglik_grad(params, design, pv)
        analytic = np.concatenate([g_theta, g_beta])
        fd = np.empty(4)
        for j in range(4):
            delta = np.zeros(4)
            delta[j] = step
            up = CoefVector(theta=theta + delta[:2], beta=beta + delta[2:])
            dn = CoefVector(theta=theta - delta[:2], beta=beta - delta[2:])
            fd[j] = (loglik(up, design, pv) - loglik(dn, design, pv)) / (2.0 * step)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-10)
        worst_rel = max(worst_rel, rel)
    grad_ok = worst_rel < 1e-4

    ok = forms_ok and grid_ok and ascent_ok and grad_ok
    _announce(
        capsys, 6, "internal consistency",
        ok,
        f"rule forms agree ({n} tuples): {forms_ok}; selector = grid "
        f"(100 instances): {grid_ok}; ascent monotone (50 fits): {ascent_ok}; "
        f"gradient max rel err {worst_rel:.1e} < 1e-4: {grad_ok}",
    )


def test_criterion_7_fdr_control_under_dependence_and_heavy_tails(capsys):
    details = []
    ok = True
    for setup in ("S3.3", "S4"):
        report = _sweep(
            ("camt",),
            setup=setup, m=10_000, eta0=2.5, k_d=1.0, k_s=2.4,
            n_replicates=100, seed=0, alpha_grid=(0.05,),
        )
        cell = _cell(report, "camt")
        bound = 0.05 + 2.0 * cell["se_fdp"]
        ok = ok and cell["mean_fdp"] <= bound
        details.append(f"{setup} fdp {cell['mean_fdp']:.4f} <= {bound:.4f}")
    _announce(
        capsys, 7, "fdr control under dependence and heavy tails",
        ok, "; ".join(details) + " (100 replicates each)",
    )


def test_criterion_8_shifted_null_breaks_control_and_is_flagged(capsys):
    config = SimulationConfig(
        setup="S5.2", m=10_000, eta0=2.5, k_d=1.0, k_s=2.4,
        n_replicates=50, seed=7, alpha_grid=(0.05,),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_sweep(config, procedures=("camt",))
    fdps = np.array([r.fdp for r in report.rows])
    mean_fdp = float(fdps.mean())
    se = float(fdps.std(ddof=1) / np.sqrt(fdps.size))
    broken = mean_fdp - 2.0 * se > 0.05

    gifs = np.array([gif(generate(config, r).pvals).gif for r in range(50)])
    flagged = bool(np.all(gifs > 1.05))
    ok = broken and flagged
    _announce(
        capsys, 8, "shifted null breaks control and the diagnostic flags it",
        ok,
        f"mean fdp {mean_fdp:.4f} (se {se:.4f}) > 0.05 by > 2 se: {broken}; "
        f"gif > 1.05 on every replicate (min {gifs.min():.4f}): {flagged}",
    )


def test_criterion_9_scales_to_a_million_hypotheses(capsys):
    config = SimulationConfig(setup="S0", m=1_000_000, eta0=2.5, k_d=1.0, k_s=2.4, seed=0)
    data = generate(config, 0)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, result = run_camt(data.pvals, data.covariates, alpha=0.05)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0 and result.n_rejections > 0
    _announce(
        capsys, 9, "one million hypotheses end to end",
        ok,
        f"{elapsed:.1f}s < 300s, {result.n_rejections} rejections at alpha 0.05",
    )
