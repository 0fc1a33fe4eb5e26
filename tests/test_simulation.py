"""Tests for the simulation setups, metrics and the sweep runner."""

import concurrent.futures
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import camt.simulation
from camt._special import expit
from camt.simulation import (
    DEFAULT_PROCEDURES,
    RNG_NAME,
    SimulationConfig,
    generate,
    make_procedure,
    metrics,
    normalize_setup,
    resolve_workers,
    run_sweep,
)


def _all_null_config(setup, m, seed=0):
    """eta0 = 40 pushes every null probability to one, so z is pure noise."""
    return SimulationConfig(setup=setup, m=m, eta0=40.0, k_d=0.0, seed=seed)


# ----------------------------------------------------------------------
# metrics


def test_metrics_hand_count():
    rejected = np.array([True, True, True, False, False])
    is_alt = np.array([True, True, False, False, False])
    fdp, tpr = metrics(rejected, is_alt)
    assert fdp == 1.0 / 3.0
    assert tpr == 1.0


def test_metrics_empty_rejection_set():
    is_alt = np.array([True, False, True])
    assert metrics(np.zeros(3, dtype=bool), is_alt) == (0.0, 0.0)


def test_metrics_all_correct():
    is_alt = np.array([True, False, True, False])
    assert metrics(is_alt.copy(), is_alt) == (0.0, 1.0)


def test_metrics_complete_null_rejection_is_all_false():
    is_alt = np.zeros(4, dtype=bool)
    rejected = np.array([True, False, True, False])
    assert metrics(rejected, is_alt) == (1.0, 0.0)


# ----------------------------------------------------------------------
# generate: determinism and shapes


def test_generate_is_reproducible_bitwise():
    config = SimulationConfig(setup="S0", m=500, seed=11)
    a = generate(config, replicate=3)
    b = generate(config, replicate=3)
    assert np.array_equal(a.pvals, b.pvals)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.is_alternative, b.is_alternative)
    c = generate(config, replicate=4)
    assert not np.array_equal(a.pvals, c.pvals)


def test_generate_shapes_and_truth():
    config = SimulationConfig(setup="S0", m=300, seed=5)
    data = generate(config, 0)
    assert data.pvals.shape == (300,)
    assert data.covariates.shape == (300, 1)
    assert data.truth.pi0.shape == (300,)
    assert np.array_equal(data.truth.pi0, expit(config.eta0 + config.k_d * data.covariates[:, 0]))
    assert data.truth.family == "normal"
    assert data.truth.null_mean == 0.0
    assert np.all((data.pvals > 0) & (data.pvals < 1))


def test_complete_null_pvalues_are_uniform():
    for seed in (0, 1, 2):
        config = SimulationConfig(setup="complete-null", m=5000, seed=seed)
        data = generate(config, 0)
        assert not data.is_alternative.any()
        assert np.all(data.truth.pi0 == 1.0)
        assert scipy.stats.kstest(data.pvals, "uniform").pvalue > 0.01


# ----------------------------------------------------------------------
# setup-specific distributions


def test_s1_alternative_moments():
    config = SimulationConfig(setup="S1", m=40_000, eta0=1.5, seed=2)
    data = generate(config, 0)
    z_alt = data.z[data.is_alternative]
    n = z_alt.size
    assert n > 5000
    se_mean = z_alt.std(ddof=1) / np.sqrt(n)
    assert abs(z_alt.mean() - config.k_s) <= 3 * se_mean
    centered = z_alt - z_alt.mean()
    var = centered.var(ddof=1)
    se_var = np.sqrt((np.mean(centered**4) - var**2) / n)
    assert abs(var - 1.0) <= 3 * se_var
    z_null = data.z[~data.is_alternative]
    assert abs(z_null.mean()) <= 3 / np.sqrt(z_null.size)
    assert data.truth.family == "noncentral-gamma"


@pytest.mark.parametrize("setup", ["S3.1", "S3.2"])
def test_block_correlation_structure(setup):
    from camt.simulation import BLOCK_SIZE, _block_correlation

    target = _block_correlation(setup)
    n_blocks = 500
    reps = 200
    estimates = np.empty((reps, BLOCK_SIZE, BLOCK_SIZE))
    for r in range(reps):
        config = _all_null_config(setup, n_blocks * BLOCK_SIZE, seed=20)
        z = generate(config, r).z.reshape(n_blocks, BLOCK_SIZE)
        estimates[r] = np.corrcoef(z, rowvar=False)
    mean = estimates.mean(axis=0)
    sd = estimates.std(axis=0, ddof=1)
    assert np.all(np.abs(mean - target) <= 4 * sd / np.sqrt(reps) + 1e-12)


def test_block_remainder_keeps_the_leading_correlation():
    # m = 30 leaves a partial block of 10; across replicates those ten
    # coordinates must follow the leading 10 x 10 corner of the block law
    from camt.simulation import _block_correlation

    target = _block_correlation("S3.1")[:10, :10]
    reps = 400
    tail = np.empty((reps, 10))
    for r in range(reps):
        data = generate(_all_null_config("S3.1", 30, seed=21), r)
        tail[r] = data.z[20:]
    est = np.corrcoef(tail, rowvar=False)
    assert np.max(np.abs(est - target)) < 0.15


@pytest.mark.parametrize("setup,rho", [("S3.3", 0.75), ("S3.4", -0.75)])
def test_autoregressive_noise_autocorrelation(setup, rho):
    reps = 100
    lags = np.arange(1, 6)
    acf = np.empty((reps, lags.size))
    variances = np.empty(reps)
    for r in range(reps):
        z = generate(_all_null_config(setup, 20_000, seed=22), r).z
        variances[r] = z.var(ddof=1)
        for j, lag in enumerate(lags):
            acf[r, j] = np.corrcoef(z[:-lag], z[lag:])[0, 1]
    mean = acf.mean(axis=0)
    sd = acf.std(axis=0, ddof=1)
    assert np.all(np.abs(mean - rho**lags) <= 4 * sd / np.sqrt(reps))
    assert abs(variances.mean() - 1.0) < 0.05


@pytest.mark.parametrize("eta0,target", [(3.5, 0.03), (2.5, 0.08), (1.5, 0.18)])
def test_alternative_density_targets(eta0, target):
    # with k_d = 0 the alternative fraction is expit(-eta0) exactly;
    # the three working intercepts sit within half a percent of the
    # sparse / medium / dense design densities
    config = SimulationConfig(setup="S0", m=200_000, eta0=eta0, k_d=0.0, seed=1)
    data = generate(config, 0)
    expected_fraction = float(np.mean(1.0 - data.truth.pi0))
    assert expected_fraction == pytest.approx(expit(-eta0), rel=1e-12)
    assert abs(expected_fraction - target) <= 0.005
    binom_se = np.sqrt(expected_fraction * (1 - expected_fraction) / config.m)
    assert abs(data.is_alternative.mean() - expected_fraction) <= 4 * binom_se


@pytest.mark.parametrize("setup,shift", [("S5.1", -0.15), ("S5.2", 0.15)])
def test_shifted_null_z_mean(setup, shift):
    config = SimulationConfig(setup=setup, m=20_000, seed=4)
    data = generate(config, 0)
    z_null = data.z[~data.is_alternative]
    se = z_null.std(ddof=1) / np.sqrt(z_null.size)
    assert abs(z_null.mean() - shift) <= 3 * se
    assert data.truth.null_mean == shift


def test_s2_effect_modulation_is_exact():
    config = SimulationConfig(setup="S2", m=4000, k_f=1.2, seed=6)
    data = generate(config, 0)
    assert data.covariates.shape == (4000, 2)
    expected = config.k_s * 2.0 * expit(config.k_f * data.covariates[:, 1])
    assert np.array_equal(data.truth.effect, expected)


def test_s4_covariate_is_heavy_tailed():
    config = SimulationConfig(setup="S4", m=50_000, seed=8)
    data = generate(config, 0)
    assert scipy.stats.kurtosis(data.covariates[:, 0]) > 1.0


# ----------------------------------------------------------------------
# registry, config and workers


def test_normalize_setup_variants():
    assert normalize_setup("s3_1") == "S3.1"
    assert normalize_setup("S3.4") == "S3.4"
    assert normalize_setup("COMPLETE-NULL") == "complete-null"
    assert normalize_setup("complete_null") == "complete-null"
    assert normalize_setup(" s0 ") == "S0"
    with pytest.raises(ValueError, match="unknown setup"):
        normalize_setup("S9")


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(m=0)
    with pytest.raises(ValueError):
        SimulationConfig(n_replicates=0)
    with pytest.raises(ValueError):
        SimulationConfig(alpha_grid=())
    # the alpha rule of every layer: camt.kernel.check_alpha, (0, 1] and a
    # real scalar, applied to each level as given; True and "0.1" used to
    # be read as 1.0 and 0.1 by float(), and [0.1] failed inside float()
    for grid in ((0.05, 1.5), (0.0,), (float("nan"),), (True,), ("0.1",), ([0.1],)):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            SimulationConfig(alpha_grid=grid)
    assert SimulationConfig(alpha_grid=(0.05, 1.0)).alpha_grid == (0.05, 1.0)
    levels = SimulationConfig(alpha_grid=np.array([0.05, 0.1])).alpha_grid
    assert levels == (0.05, 0.1) and all(type(a) is float for a in levels)
    # a bare level is not a grid: "'float' object is not iterable" before
    for grid in (0.1, np.float64(0.1), None):
        with pytest.raises(ValueError, match="^alpha_grid must be a sequence of levels, got "):
            SimulationConfig(alpha_grid=grid)
    # S1's rule is noncentral_gamma_params': k_s > sqrt(2); the other
    # setups draw normal alternatives and take any k_s
    for k_s in (1.2, np.sqrt(2.0)):
        with pytest.raises(ValueError, match=r"mean must exceed sqrt\(2\)"):
            SimulationConfig(setup="S1", k_s=k_s)
    assert SimulationConfig(setup="S1", k_s=1.5).k_s == 1.5
    assert SimulationConfig(setup="S0", k_s=1.2).k_s == 1.2
    # the effect parameters must be finite: a NaN k_d made every
    # hypothesis silently null, as rng.random(m) < 1 - expit(nan) is False
    # and real scalars: "2.5" and None failed inside np.isfinite, True read as 1
    for field in ("eta0", "k_d", "k_s", "k_f"):
        for value in (np.nan, np.inf, -np.inf, "2.5", None, True, np.array([2.5])):
            for setup in ("S0", "S1"):
                with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                    SimulationConfig(setup=setup, **{field: value})


@pytest.mark.parametrize(
    "field, value, low",
    [
        ("m", 2000.0, 1),
        ("m", 0, 1),
        ("m", True, 1),
        ("m", "500", 1),
        ("n_replicates", 2.0, 1),
        ("n_replicates", 0, 1),
        ("seed", 1.5, 0),
        ("seed", -1, 0),
        ("seed", np.bool_(True), 0),
    ],
)
def test_config_refuses_a_field_that_is_not_a_count(field, value, low):
    # a float m or seed used to fail inside numpy, and a negative seed
    # inside SeedSequence once the sweep had started
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least {low}, got "):
        SimulationConfig(setup="S0", **{field: value})


def test_config_takes_numpy_integers_as_python_ints():
    config = SimulationConfig(m=np.int64(500), n_replicates=np.int32(2), seed=np.uint64(3))
    assert (config.m, config.n_replicates, config.seed) == (500, 2, 3)
    assert all(type(v) is int for v in (config.m, config.n_replicates, config.seed))


@pytest.mark.parametrize(
    "grid, level",
    [((0.05, 0.05), 0.05), ((0.2, 0.1, 0.2), 0.2), ((np.float64(0.05), 0.05), 0.05)],
)
def test_config_refuses_a_level_named_twice(grid, level):
    # a level run twice would be pooled by summarize as twice the
    # replicates, with a standard error about sqrt(2) too small
    with pytest.raises(ValueError, match=f"^level {level} appears more than once in alpha_grid$"):
        SimulationConfig(setup="S0", m=500, n_replicates=3, alpha_grid=grid)


@pytest.mark.parametrize("replicate", [2.7, True, "1", -1, None], ids=repr)
def test_generate_refuses_a_replicate_that_is_not_a_count(replicate):
    # 2.7, True and "1" used to draw replicates 2, 1 and 1, and -1 failed
    # inside SeedSequence
    config = SimulationConfig(setup="S0", m=500)
    with pytest.raises(ValueError, match="^replicate must be an integer of at least 0, got "):
        generate(config, replicate)


def test_make_procedure_registry():
    assert make_procedure("bh").name == "bh"
    assert make_procedure("st").name == "storey"
    assert make_procedure("storey").name == "storey"
    assert make_procedure("oracle").name == "oracle"
    assert make_procedure("camt").name == "camt"
    with pytest.raises(ValueError, match="unknown procedure"):
        make_procedure("qvalue")
    assert DEFAULT_PROCEDURES == ("camt", "bh", "storey", "oracle")
    # camt-mixed shares camt's fit and selects from it in mixed mode
    plain, mixed = make_procedure("camt"), make_procedure("camt-mixed")
    assert mixed.name == "camt-mixed"
    assert mixed.prepare_key == plain.prepare_key
    data = generate(SimulationConfig(setup="S0", m=3000, seed=4), 0)
    fit = plain.prepare(data)
    for alpha in (0.05, 0.2):
        assert np.array_equal(plain.reject(fit, alpha), fit.select(alpha).rejected)
        assert np.array_equal(mixed.reject(fit, alpha), fit.select(alpha, mixed=True).rejected)


def test_resolve_workers(monkeypatch):
    assert resolve_workers(2) == 2
    assert resolve_workers(np.int64(2)) == 2
    assert resolve_workers(0) == 1
    # 2.5, "3" and True used to give 2, 3 and 1 workers, and -1 one
    for n_workers in (2.5, "3", True, -1):
        with pytest.raises(ValueError, match="^n_workers must be an integer of at least 0, got "):
            resolve_workers(n_workers)
    monkeypatch.setenv("CAMT_THREADS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(5) == 5  # explicit argument wins
    monkeypatch.setenv("CAMT_THREADS", "0")
    assert resolve_workers() == 1
    monkeypatch.setenv("CAMT_THREADS", "abc")
    with pytest.raises(ValueError, match="CAMT_THREADS must be an integer"):
        resolve_workers()
    # a negative count used to give one worker, as 0 does
    monkeypatch.setenv("CAMT_THREADS", "-4")
    with pytest.raises(ValueError, match="^CAMT_THREADS must be an integer of at least 0, got -4$"):
        resolve_workers()
    monkeypatch.delenv("CAMT_THREADS")
    assert resolve_workers() >= 1


# ----------------------------------------------------------------------
# sweep


def test_run_sweep_row_layout_and_summary():
    config = SimulationConfig(
        setup="S0", m=800, n_replicates=3, seed=9, alpha_grid=(0.05, 0.1)
    )
    report = run_sweep(config, procedures=("bh", "st"), n_workers=1)
    assert report.procedures == ("bh", "storey")
    assert len(report.rows) == 3 * 2 * 2
    for row in report.rows:
        assert row.setup == "S0"
        assert row.procedure in ("bh", "storey")
        assert row.alpha in (0.05, 0.1)
        assert 0.0 <= row.fdp <= 1.0
        assert 0.0 <= row.tpr <= 1.0
        assert row.n_rejections >= 0
        assert row.prepare_ms >= 0.0
        assert row.select_ms >= 0.0
    # one prepare per procedure and replicate, reported on each alpha row
    for proc in ("bh", "storey"):
        for rep in range(3):
            sel = [r for r in report.rows if r.procedure == proc and r.replicate == rep]
            assert len({r.prepare_ms for r in sel}) == 1
    summary = report.summarize()
    assert len(summary) == 4
    assert all(entry["n_replicates"] == 3 for entry in summary)
    bh_05 = [e for e in summary if e["procedure"] == "bh" and e["alpha"] == 0.05]
    assert len(bh_05) == 1
    sel = [r for r in report.rows if r.procedure == "bh" and r.alpha == 0.05]
    assert bh_05[0]["mean_fdp"] == pytest.approx(np.mean([r.fdp for r in sel]))


def _masked(report):
    return [
        (r.setup, r.procedure, r.alpha, r.replicate, r.fdp, r.tpr, r.n_rejections)
        for r in report.rows
    ]


def test_run_sweep_refuses_an_empty_procedure_list(monkeypatch):
    monkeypatch.setattr(camt.simulation, "generate", lambda *args: pytest.fail("a replicate ran"))
    config = SimulationConfig(setup="S0", m=500, n_replicates=1)
    with pytest.raises(ValueError, match="no procedure to run; choose from camt, camt-mixed"):
        run_sweep(config, procedures=(), n_workers=1)


@pytest.mark.parametrize(
    "procedures",
    [("storey", "st", "bh"), ("bh", "bh"), ("camt", " CAMT "), ("oracle", "Storey", "ST")],
)
def test_run_sweep_refuses_a_procedure_named_twice(monkeypatch, procedures):
    # a procedure run twice per replicate would be pooled by summarize as
    # twice the replicates, with a standard error about sqrt(2) too small
    monkeypatch.setattr(camt.simulation, "generate", lambda *args: pytest.fail("a replicate ran"))
    config = SimulationConfig(setup="S0", m=500, n_replicates=3)
    with pytest.raises(ValueError, match="procedure '(storey|bh|camt)' is named more than once"):
        run_sweep(config, procedures=procedures, n_workers=1)


def test_run_sweep_is_deterministic_apart_from_runtimes():
    config = SimulationConfig(setup="S0", m=1200, n_replicates=2, seed=13)
    first = run_sweep(config, procedures=("camt", "bh"), n_workers=1)
    second = run_sweep(config, procedures=("camt", "bh"), n_workers=1)
    assert _masked(first) == _masked(second)


def test_run_sweep_pool_has_at_most_one_worker_per_replicate(monkeypatch):
    sizes = []

    class SerialPool:
        """In-process stand-in for ProcessPoolExecutor that records its size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = SimulationConfig(setup="S0", m=300, n_replicates=2, seed=3)
    report = run_sweep(config, procedures=("bh",), n_workers=8)
    assert sizes == [2]
    assert [r.replicate for r in report.rows] == [0, 1]
    assert _masked(report) == _masked(run_sweep(config, procedures=("bh",), n_workers=1))


def test_one_worker_sweep_loads_no_process_pool():
    # a one-worker sweep runs its replicates in the calling process, so
    # only a sweep with more workers imports the pool and multiprocessing
    src = str(Path(camt.simulation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, camt.simulation as s; "
        "config = s.SimulationConfig(setup='S0', m=300, n_replicates=2, seed=3); "
        "s.run_sweep(config, procedures=('bh',), n_workers=1); "
        "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process' "
        "or m.split('.')[0] == 'multiprocessing'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_sweep_fits_once_for_camt_and_camt_mixed(monkeypatch):
    fits = []
    real_fit = camt.simulation.fit_camt

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(camt.simulation, "fit_camt", counting_fit)
    config = SimulationConfig(setup="S0", m=1500, n_replicates=2, seed=23, alpha_grid=(0.05, 0.2))
    procedures = ("camt", "bh", "camt-mixed")
    shared = run_sweep(config, procedures=procedures, n_workers=1)
    assert len(fits) == config.n_replicates
    alone = [run_sweep(config, procedures=(p,), n_workers=1) for p in procedures]
    expected = [
        row
        for rep in range(config.n_replicates)
        for report in alone
        for row in _masked(report)
        if row[3] == rep
    ]
    assert _masked(shared) == expected
    for rep in range(config.n_replicates):
        camt_ms = {r.prepare_ms for r in shared.rows
                   if r.replicate == rep and r.procedure in ("camt", "camt-mixed")}
        assert len(camt_ms) == 1  # both report the shared fit's time


def test_reference_procedures_hold_level_under_complete_null():
    # under the complete null every rejection is false, so the mean FDP
    # is each procedure's realized FDR; two standard errors of slack
    # cover the exactly-at-level step-up procedures
    config = SimulationConfig(
        setup="complete-null", m=10_000, n_replicates=400, seed=19
    )
    report = run_sweep(config, procedures=("bh", "storey", "oracle"), n_workers=1)
    for entry in report.summarize():
        bound = 0.05 + 2.0 * entry["se_fdp"]
        assert entry["mean_fdp"] <= bound, (entry["procedure"], entry["mean_fdp"], bound)
    oracle_rows = [r for r in report.rows if r.procedure == "oracle"]
    assert all(r.n_rejections == 0 for r in oracle_rows)


def test_bh_keeps_fdr_below_nominal_in_dense_setup():
    config = SimulationConfig(
        setup="S0", m=2000, eta0=1.5, n_replicates=60, seed=15
    )
    report = run_sweep(config, procedures=("bh",), n_workers=1)
    mean_fdp = np.mean([r.fdp for r in report.rows])
    assert mean_fdp < 0.05


def test_write_csv_layout():
    config = SimulationConfig(setup="S0", m=600, n_replicates=2, seed=17, alpha_grid=(0.1,))
    report = run_sweep(config, procedures=("bh",), n_workers=1)
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# camt simulate v")
    meta = [l for l in lines if l.startswith("# ")]
    assert "# setup: S0" in meta
    assert "# seed: 17" in meta
    assert f"# rng: {RNG_NAME}" in meta
    assert "# procedures: bh" in meta
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "setup,procedure,alpha,replicate,fdp,tpr,n_rejections,prepare_ms,select_ms"
    data_lines = [l for l in lines if not l.startswith("#")][1:]
    assert len(data_lines) == 2
    fields = data_lines[0].split(",")
    assert fields[0] == "S0"
    assert fields[1] == "bh"
    assert float(fields[2]) == 0.1
    assert int(fields[3]) == 0
    row = report.rows[0]
    assert float(fields[4]) == row.fdp  # repr round-trips exactly
    assert float(fields[5]) == row.tpr
    assert int(fields[6]) == row.n_rejections


def test_mixed_mode_controls_fdr_under_the_complete_null():
    # any rejection is false here; the floor of one in the mixed estimate
    # max(1, E(t), #{r_i < t}) keeps a single rejection with a small E(t) out
    config = SimulationConfig(
        setup="complete-null", m=1000, n_replicates=60, seed=1, alpha_grid=(0.05,)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_sweep(config, procedures=("camt-mixed",), n_workers=1)
    (cell,) = report.summarize()
    assert cell["mean_fdp"] <= 0.05 + 2.0 * cell["se_fdp"], cell


def test_mixed_mode_controls_fdr_across_the_target_grid_under_the_complete_null():
    # criterion 2's grid for camt-mixed at m = 2000, where the estimate
    # without its floor read FDR 0.16 at alpha = 0.05
    grid = tuple(round(0.01 * j, 2) for j in range(1, 21))
    config = SimulationConfig(
        setup="complete-null", m=2000, n_replicates=200, seed=0, alpha_grid=grid
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_sweep(config, procedures=("camt-mixed",), n_workers=1)
    cells = report.summarize()
    assert len(cells) == len(grid)
    for cell in cells:
        assert cell["mean_fdp"] <= cell["alpha"] + 2.0 * cell["se_fdp"], cell


@pytest.mark.parametrize("setup", ["S0", "S3.3"])
def test_mixed_mode_controls_fdr_in_the_cells_of_criteria_1_and_7(setup):
    # criterion 1's informative covariate (S0) and criterion 7's AR(1)
    # dependence (S3.3) at their scale, for camt-mixed across three levels
    config = SimulationConfig(
        setup=setup, m=10_000, n_replicates=100, seed=0, alpha_grid=(0.05, 0.1, 0.2)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_sweep(config, procedures=("camt-mixed",), n_workers=2)
    cells = report.summarize()
    assert [cell["alpha"] for cell in cells] == [0.05, 0.1, 0.2]
    for cell in cells:
        assert cell["n_replicates"] == 100
        assert cell["mean_fdp"] <= cell["alpha"] + 2.0 * cell["se_fdp"], cell
