"""Simulation setups, replicate runner and tidy metrics output.

Setup identifiers
-----------------
S0            baseline: x ~ N(0,1), logit of the null probability
              eta0 + k_d x, alternative z ~ N(k_s, 1), p = 1 - Phi(z)
S1            alternative z from a shape-2 non-central gamma matched to
              mean k_s and unit variance
S2            second covariate x' ~ N(0,1) scales the effect size by
              2 expit(k_f x')
S3.1          within-block equicorrelation 0.5, blocks of 20
S3.2          blocks of 20 split in two sub-blocks of 10, correlation
              +0.5 inside a sub-block and -0.5 across
S3.3 / S3.4   AR(1) z-score noise with rho = +0.75 / -0.75
S4            covariate drawn from Student t with 5 degrees of freedom
S5.1 / S5.2   shifted null, z | H0 ~ N(-0.15, 1) / N(+0.15, 1)
complete-null every hypothesis null, p-values exactly uniform

Replicate r of a run with master seed s draws from the generator
PCG64(SeedSequence(s, spawn_key=(r,))), so streams are independent,
reproducible and stable across worker counts.

Every scalar a sweep takes passes one of :mod:`camt.kernel`'s gates
before anything is drawn: the levels :func:`~camt.kernel.check_alpha`;
m, the replicate count, the seed, a replicate index and the worker
count (argument or CAMT_THREADS) :func:`~camt.kernel.check_count`; the
effect parameters eta0, k_d, k_s and k_f :func:`~camt.kernel.check_finite`.
This module keeps no count or finiteness rule of its own.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._special import ar1, expit, ndtr
from .baselines import (
    OracleTruth,
    bh,
    lfdr_values,
    noncentral_gamma_params,
    oracle_prepare,
    oracle_select,
    storey,
)
from .kernel import check_alpha, check_count, check_finite
from .pipeline import fit_camt

RNG_NAME = "pcg64-seedsequence"

SETUP_IDS = (
    "S0",
    "S1",
    "S2",
    "S3.1",
    "S3.2",
    "S3.3",
    "S3.4",
    "S4",
    "S5.1",
    "S5.2",
    "complete-null",
)

BLOCK_SIZE = 20  # S3.1 / S3.2 block width at the reference m = 10^4

PROCEDURE_NAMES = ("camt", "camt-mixed", "bh", "storey", "oracle")
DEFAULT_PROCEDURES = ("camt", "bh", "storey", "oracle")


def normalize_setup(setup):
    """Canonical setup id; accepts case and '_' for '.' variations."""
    s = str(setup).strip().lower().replace("_", ".").replace("complete.null", "complete-null")
    for sid in SETUP_IDS:
        if s == sid.lower():
            return sid
    raise ValueError(f"unknown setup {setup!r}; choose one of {', '.join(SETUP_IDS)}")


@dataclass
class SimulationConfig:
    setup: str = "S0"
    m: int = 10_000
    eta0: float = 2.5
    k_d: float = 1.0
    k_s: float = 2.4
    k_f: float = 0.0
    n_replicates: int = 100
    seed: int = 0
    alpha_grid: tuple = (0.05,)

    def __post_init__(self):
        self.setup = normalize_setup(self.setup)
        for name, low in (("m", 1), ("n_replicates", 1), ("seed", 0)):
            setattr(self, name, check_count(name, getattr(self, name), low))
        try:
            grid = tuple(self.alpha_grid)
        except TypeError:
            raise ValueError(
                f"alpha_grid must be a sequence of levels, got {self.alpha_grid!r}"
            ) from None
        if not grid:
            raise ValueError("alpha_grid must not be empty")
        for a in grid:
            check_alpha(a)
        self.alpha_grid = tuple(float(a) for a in grid)
        for i, a in enumerate(self.alpha_grid):
            # summarize would pool a level's two copies as twice the replicates
            if a in self.alpha_grid[:i]:
                raise ValueError(f"level {a!r} appears more than once in alpha_grid")
        for name in ("eta0", "k_d", "k_s", "k_f"):
            check_finite(name, getattr(self, name))
        if self.setup == "S1":
            noncentral_gamma_params(self.k_s)  # the alternative law needs k_s > sqrt(2)


@dataclass
class SimulatedDataset:
    """One replicate: the p-values and covariates a procedure sees, the
    alternative labels the metrics score against, and the drawn z-scores,
    with p = 1 - Phi(z), and the truth behind them, which the oracle reads
    (:func:`~camt.baselines.lfdr_values` takes z, not p, so a p-value that
    rounds to 0 keeps its z)."""

    pvals: np.ndarray
    covariates: np.ndarray
    is_alternative: np.ndarray
    z: np.ndarray
    truth: OracleTruth


def generate(config, replicate=0):
    """Draw one replicate of the configured setup; replicate is an
    integer of at least 0."""
    replicate = check_count("replicate", replicate, 0)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(replicate,)))
    m = config.m
    setup = config.setup

    if setup == "S4":
        x1 = rng.standard_t(5, m)
    else:
        x1 = rng.standard_normal(m)
    covariates = x1[:, None]

    if setup == "complete-null":
        pi0 = np.ones(m)
        is_alt = np.zeros(m, dtype=bool)
    else:
        pi0 = expit(config.eta0 + config.k_d * x1)
        is_alt = rng.random(m) < 1.0 - pi0

    effect = np.full(m, config.k_s)
    if setup == "S2":
        x2 = rng.standard_normal(m)
        covariates = np.column_stack([x1, x2])
        effect = config.k_s * 2.0 * expit(config.k_f * x2)

    null_mean = 0.0
    if setup == "S5.1":
        null_mean = -0.15
    elif setup == "S5.2":
        null_mean = 0.15

    if setup == "S1":
        z = rng.standard_normal(m)
        idx = np.flatnonzero(is_alt)
        if idx.size:
            scale, delta = noncentral_gamma_params(config.k_s)
            pois = rng.poisson(delta, idx.size)
            z[idx] = rng.standard_gamma(2.0 + pois) * scale
        family = "noncentral-gamma"
    else:
        noise = _noise(setup, m, rng)
        z = noise + np.where(is_alt, effect, null_mean)
        family = "normal"

    pvals = ndtr(-z)  # 1 - Phi(z), evaluated without cancellation
    truth = OracleTruth(pi0=pi0, effect=effect, family=family, null_mean=null_mean)
    return SimulatedDataset(
        pvals=pvals, covariates=covariates, is_alternative=is_alt, z=z, truth=truth
    )


def _noise(setup, m, rng):
    """Unit-variance z-score noise with the setup's dependence."""
    if setup in ("S3.1", "S3.2"):
        corr = _block_correlation(setup)
        chol = np.linalg.cholesky(corr)
        n_full, rem = divmod(m, BLOCK_SIZE)
        parts = []
        if n_full:
            draws = rng.standard_normal((n_full, BLOCK_SIZE))
            parts.append((draws @ chol.T).ravel())
        if rem:
            # leading principal block of a Cholesky factor is the
            # Cholesky factor of the leading principal submatrix
            parts.append(rng.standard_normal(rem) @ chol[:rem, :rem].T)
        return np.concatenate(parts)
    if setup in ("S3.3", "S3.4"):
        rho = 0.75 if setup == "S3.3" else -0.75
        eps = rng.standard_normal(m)
        eps[1:] *= np.sqrt(1.0 - rho**2)
        return ar1(eps, rho)
    return rng.standard_normal(m)


def _block_correlation(setup):
    if setup == "S3.1":
        corr = np.full((BLOCK_SIZE, BLOCK_SIZE), 0.5)
    else:
        half = BLOCK_SIZE // 2
        sign = np.ones(BLOCK_SIZE)
        sign[half:] = -1.0
        corr = 0.5 * np.outer(sign, sign)
    np.fill_diagonal(corr, 1.0)
    return corr


def metrics(rejected, is_alternative):
    """(fdp, tpr) of a rejection mask against the truth labels."""
    rejected = np.asarray(rejected, dtype=bool)
    is_alternative = np.asarray(is_alternative, dtype=bool)
    n_rej = int(np.count_nonzero(rejected))
    false_rej = int(np.count_nonzero(rejected & ~is_alternative))
    true_rej = n_rej - false_rej
    n_alt = int(np.count_nonzero(is_alternative))
    return false_rej / max(1, n_rej), true_rej / max(1, n_alt)


# ----------------------------------------------------------------------
# procedures


@dataclass
class _Procedure:
    """A rejection rule in two steps: prepare(data) builds a state from a
    replicate's data, reject(state, alpha) gives the rejection mask.
    Procedures whose prepare_key is equal prepare the same state, so a
    sweep prepares it once and shares it."""

    name: str
    prepare_key: str
    prepare: object
    reject: object


def make_procedure(name):
    """Procedure registry used by sweeps and the CLI.

    Every procedure prepares from a replicate's p-values and covariates
    except the oracle, which reads the drawn z-scores and the truth.
    The baselines and fit_camt are looked up when a procedure runs, not
    when it is made, so a patched module attribute is what runs."""
    key = str(name).strip().lower()
    if key == "bh":
        return _Procedure(key, key, lambda data: data.pvals, lambda p, alpha: bh(p, alpha))
    if key in ("storey", "st"):
        return _Procedure(
            "storey", "storey", lambda data: data.pvals, lambda p, alpha: storey(p, alpha)
        )
    if key == "oracle":
        return _Procedure(
            key,
            key,
            lambda data: oracle_prepare(lfdr_values(data.z, data.truth)),
            lambda state, alpha: oracle_select(state, alpha),
        )
    if key in ("camt", "camt-mixed"):
        mixed = key == "camt-mixed"  # acts only in reject, so both share the fit
        return _Procedure(
            key,
            "camt",
            lambda data: fit_camt(data.pvals, data.covariates),
            lambda fit, alpha: fit.select(alpha, mixed=mixed).rejected,
        )
    raise ValueError(f"unknown procedure {name!r}; choose one of {', '.join(PROCEDURE_NAMES)}")


def _procedure_names(procedures):
    """Canonical names of the procedures; ValueError on an unknown name,
    on none, or on one named twice (under an alias too), whose rows a
    summary would pool as if they were more replicates."""
    names = tuple(make_procedure(p).name for p in procedures)
    if not names:
        raise ValueError(f"no procedure to run; choose from {', '.join(PROCEDURE_NAMES)}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"procedure {name!r} is named more than once")
    return names


# ----------------------------------------------------------------------
# sweep


@dataclass
class SweepRow:
    setup: str
    procedure: str
    alpha: float
    replicate: int
    fdp: float
    tpr: float
    n_rejections: int
    prepare_ms: float  # the procedure's fit, shared by every alpha row of a replicate
    # and by every procedure with the same fit (camt and camt-mixed)
    select_ms: float


@dataclass
class MetricsReport:
    config: SimulationConfig
    procedures: tuple
    rows: list = field(default_factory=list)

    def summarize(self):
        """Mean and standard error of fdp / tpr per (procedure, alpha)."""
        out = []
        for name in self.procedures:
            for alpha in self.config.alpha_grid:
                sel = [r for r in self.rows if r.procedure == name and r.alpha == alpha]
                fdp = np.array([r.fdp for r in sel])
                tpr = np.array([r.tpr for r in sel])
                n_rej = np.array([r.n_rejections for r in sel])
                out.append(
                    {
                        "procedure": name,
                        "alpha": alpha,
                        "n_replicates": len(sel),
                        "mean_fdp": float(fdp.mean()),
                        "se_fdp": _se(fdp),
                        "mean_tpr": float(tpr.mean()),
                        "se_tpr": _se(tpr),
                        "mean_rejections": float(n_rej.mean()),
                    }
                )
        return out

    def write_csv(self, stream):
        c = self.config
        meta = (
            ("setup", c.setup),
            ("m", c.m),
            ("eta0", c.eta0),
            ("k_d", c.k_d),
            ("k_s", c.k_s),
            ("k_f", c.k_f),
            ("replicates", c.n_replicates),
            ("seed", c.seed),
            ("alpha_grid", ",".join(repr(a) for a in c.alpha_grid)),
            ("procedures", ",".join(self.procedures)),
            ("rng", RNG_NAME),
        )
        from . import __version__

        stream.write(f"# camt simulate v{__version__}\n")
        for key, value in meta:
            stream.write(f"# {key}: {value}\n")
        stream.write(
            "setup,procedure,alpha,replicate,fdp,tpr,n_rejections,prepare_ms,select_ms\n"
        )
        for r in self.rows:
            stream.write(
                f"{r.setup},{r.procedure},{r.alpha!r},{r.replicate},"
                f"{r.fdp!r},{r.tpr!r},{r.n_rejections},"
                f"{round(r.prepare_ms, 3)!r},{round(r.select_ms, 3)!r}\n"
            )


def _se(values):
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def resolve_workers(n_workers=None):
    """Worker count: explicit argument, else CAMT_THREADS, else the CPUs
    this process may run on (its affinity mask where the platform has
    one, os.cpu_count() elsewhere). Either of the first two is an integer
    of at least 0, where 0 means 1; ValueError naming it otherwise.
    CAMT_THREADS is read as plain ASCII decimal digits: blanks, a plus
    sign, underscores and non-ASCII digits are refused as not an
    integer, a minus sign as below 0. Unset or empty, it is ignored."""
    if n_workers is not None:
        return max(1, check_count("n_workers", n_workers, 0))
    env = os.environ.get("CAMT_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))  # never empty
        return max(1, os.cpu_count() or 1)
    # int() would also take "1_6", " +2 " and "２"
    digits = env[1:] if env.startswith("-") else env
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"CAMT_THREADS must be an integer, got {env!r}")
    return max(1, check_count("CAMT_THREADS", int(env), 0))


def _run_replicate(config, replicate, procedure_names):
    data = generate(config, replicate)
    rows = []
    prepared = {}  # prepare_key -> (state, prepare_ms)
    for name in procedure_names:
        proc = make_procedure(name)
        if proc.prepare_key not in prepared:
            t0 = time.perf_counter()
            state = proc.prepare(data)
            prepared[proc.prepare_key] = (state, (time.perf_counter() - t0) * 1e3)
        state, prepare_ms = prepared[proc.prepare_key]
        for alpha in config.alpha_grid:
            t1 = time.perf_counter()
            mask = proc.reject(state, alpha)
            select_ms = (time.perf_counter() - t1) * 1e3
            fdp, tpr = metrics(mask, data.is_alternative)
            rows.append(
                SweepRow(
                    setup=config.setup,
                    procedure=proc.name,
                    alpha=alpha,
                    replicate=replicate,
                    fdp=fdp,
                    tpr=tpr,
                    n_rejections=int(np.count_nonzero(mask)),
                    prepare_ms=prepare_ms,
                    select_ms=select_ms,
                )
            )
    return rows


def run_sweep(config, procedures=DEFAULT_PROCEDURES, n_workers=None):
    """Run every procedure over every replicate and target level.

    Replicates are independent and fanned out over a process pool when
    more than one worker is available; the pool has at most one worker
    per replicate. Results are merged in replicate order, so the report
    does not depend on the worker count. ValueError when procedures is
    empty or names an unknown procedure.
    """
    names = _procedure_names(procedures)
    workers = min(resolve_workers(n_workers), config.n_replicates)
    replicates = range(config.n_replicates)
    if workers == 1:
        chunks = [_run_replicate(config, r, names) for r in replicates]
    else:
        # imported here: a one-worker sweep never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        n = config.n_replicates
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_replicate, [config] * n, replicates, [names] * n))
    rows = [row for chunk in chunks for row in chunk]
    return MetricsReport(config=config, procedures=names, rows=rows)
