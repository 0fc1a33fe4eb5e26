"""Tests for the closed-form kernel: surrogate density, the psi
transform against the paper's weight form of the rejection rule, the
p-value cutoff form as the library computes it (E(t)'s log form),
clamping, the one p-value gate that every public entry passes, the
finite-array gate that every covariate, design, spline, effect and
z-score entry passes, the scalar gates that every scalar entry passes, and
winsorization."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from camt.baselines import OracleTruth, bh, lfdr_values, noncentral_gamma_params, storey
from camt.diagnostics import gif, null_histogram_summary
from camt.em import CoefVector, FittedHypotheses, build_design, fit, loglik
from camt.kernel import (
    P_CLAMP,
    check_alpha,
    check_count,
    check_finite,
    check_pvalues,
    clamp_pvalues,
    is_integer,
    psi,
    surrogate_density,
    winsorize,
)
from camt.pipeline import fit_camt, run_camt
from camt.simulation import SimulationConfig, generate, resolve_workers
from camt.splines import spline_basis
from camt.threshold import MirrorStatistics, _expected_count, mirror_statistics, reject


def test_clamp_pvalues_endpoints_and_interior():
    p = np.array([0.0, 1.0, 0.3, 1e-20])
    out = clamp_pvalues(p)
    assert out[0] == P_CLAMP
    assert out[1] == 1.0 - P_CLAMP
    assert out[2] == 0.3
    assert out[3] == P_CLAMP


def test_clamp_pvalues_rejects_corrupt_input():
    for bad in ([-0.1], [1.1], [np.nan], [np.inf]):
        with pytest.raises(ValueError):
            clamp_pvalues(bad)


# every public function that takes one p-value per hypothesis, called on
# three of them; each must refuse a malformed array with check_pvalues'
# message before it reads anything else
_PVALUE_ENTRIES = {
    "check_pvalues": check_pvalues,
    "clamp_pvalues": clamp_pvalues,
    "bh": lambda p: bh(p, 0.1),
    "storey": lambda p: storey(p, 0.1),
    "gif": gif,
    "null_histogram_summary": null_histogram_summary,
    "fit_camt": fit_camt,
    "run_camt": run_camt,
    "em.fit": lambda p: fit(np.ones((3, 1)), p),
    "mirror_statistics": lambda p: mirror_statistics(
        p, FittedHypotheses(pi_hat=np.full(3, 0.9), k_hat=np.full(3, 0.5))
    ),
}
_RANGE = r"^p-values must be finite and lie in \[0, 1\]$"
_MALFORMED_PVALUES = {
    "2-d": (np.full((3, 1), 0.2), r"^p-values must be a 1-d array$"),
    "1.5": (np.array([0.2, 1.5, 0.4]), _RANGE),
    "nan": (np.array([0.2, np.nan, 0.4]), _RANGE),
    "complex": (np.array([0.2, 0.3, 0.4]) + 0j, r"^p-values must be real, not complex$"),
    "strings": (
        np.array(["0.2", "0.3", "0.4"]),
        r"^p-values must be a real numeric array, not dtype <U3$",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED_PVALUES))
@pytest.mark.parametrize("entry", list(_PVALUE_ENTRIES))
def test_every_pvalue_entry_refuses_malformed_pvalues(entry, case):
    # gif, null_histogram_summary and clamp_pvalues took a 2-d array, and every
    # entry parsed an array of strings
    p, message = _MALFORMED_PVALUES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before a cast or EM can warn
        with pytest.raises(ValueError, match=message):
            _PVALUE_ENTRIES[entry](p)


# every public argument that must be a finite real array, by the entry
# that takes it, called on it alone; each must refuse a complex, non-finite
# or object array with check_finite_array's message, and a spline's x or
# the oracle's z of the wrong shape with its entry's own
_ARRAY_ROWS = 20
_ARRAY_SAMPLE = np.linspace(-1.0, 1.0, _ARRAY_ROWS)
_ARRAY_DESIGN = np.column_stack([np.ones(_ARRAY_ROWS), _ARRAY_SAMPLE])
_ARRAY_P = np.linspace(0.01, 0.99, _ARRAY_ROWS)
_ARRAY_ENTRIES = {
    "build_design.covariates": ("covariates", _ARRAY_SAMPLE, build_design),
    "em.fit.design": ("design", _ARRAY_DESIGN, lambda X: fit(X, _ARRAY_P)),
    "em.loglik.design": (
        "design",
        _ARRAY_DESIGN,
        lambda X: loglik(CoefVector(theta=np.zeros(2), beta=np.zeros(2)), X, _ARRAY_P),
    ),
    "spline_basis.x": ("x", _ARRAY_SAMPLE, lambda x: spline_basis(x, 3)),
    "OracleTruth.effect": (
        "effect",
        np.full(_ARRAY_ROWS, 2.0),
        lambda e: OracleTruth(pi0=np.full(_ARRAY_ROWS, 0.9), effect=e),
    ),
    "lfdr_values.z": (
        "z",
        _ARRAY_SAMPLE,
        lambda z: lfdr_values(
            z, OracleTruth(pi0=np.full(_ARRAY_ROWS, 0.9), effect=np.full(_ARRAY_ROWS, 2.0))
        ),
    ),
}


def _with_last(x, value):
    x = x.copy()
    x.flat[-1] = value
    return x


_BAD_ARRAYS = {
    "complex": (lambda x: x + 0j, "^{} must be real, not complex$"),
    "nan": (lambda x: _with_last(x, np.nan), "^{} must be finite$"),
    "inf": (lambda x: _with_last(x, np.inf), "^{} must be finite$"),
    "object": (lambda x: x.astype(object), "^{} must be a real numeric array, not dtype object$"),
}
_SPLINE_SHAPE = "^x must be a 1-d sample with at least n_knots values$"
_SHAPE_MESSAGES = {
    "spline_basis.x": _SPLINE_SHAPE,
    "lfdr_values.z": r"^z must be 1-d with truth's shape \(20,\), not \(10, 2\)$",
}
_ARRAY_CASES = [
    *(
        pytest.param(entry, case, id=f"{entry}-{case}")
        for entry in _ARRAY_ENTRIES
        for case in _BAD_ARRAYS
    ),
    pytest.param("spline_basis.x", "2-d", id="spline_basis.x-2-d"),
    pytest.param("spline_basis.x", "0-d", id="spline_basis.x-0-d"),
    pytest.param("lfdr_values.z", "2-d", id="lfdr_values.z-2-d"),
]


@pytest.mark.parametrize("entry, case", _ARRAY_CASES)
def test_every_array_entry_refuses_what_its_gate_refuses(entry, case):
    # spline_basis built knots from the real parts of a complex x with only
    # a ComplexWarning, and every entry cast an object array
    name, good, call = _ARRAY_ENTRIES[entry]
    if case in _BAD_ARRAYS:
        make, message = _BAD_ARRAYS[case]
        value, message = make(good), message.format(name)
    else:
        value = good.reshape(-1, 2) if case == "2-d" else np.float64(0.5)
        message = _SHAPE_MESSAGES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before a cast can warn
        with pytest.raises(ValueError, match=message):
            call(value)


@pytest.mark.parametrize(
    "fn, args",
    [
        (surrogate_density, (0.5, 0.5)),
        (psi, (0.5, 0.5, 0.5)),
    ],
)
def test_nan_arguments_raise(fn, args):
    for i in range(len(args)):
        bad = list(args)
        bad[i] = np.array([0.5, np.nan])
        with pytest.raises(ValueError):
            fn(*bad)


def test_surrogate_density_at_one():
    assert surrogate_density(1.0, 0.3) == 0.7


def test_surrogate_density_hand_value():
    # 0.5 * 0.01 ** (-0.5) = 0.5 * 10
    assert float(surrogate_density(0.01, 0.5)) == 5.0


def test_surrogate_density_normalizes():
    for k in (0.05, 0.5, 0.95):
        val, _ = quad(lambda p: float(surrogate_density(p, k)), 0.0, 1.0)
        assert abs(val - 1.0) < 1e-8


def test_surrogate_density_strictly_decreasing():
    rng = np.random.default_rng(42)
    p = np.sort(rng.uniform(1e-6, 1.0, 10_000))
    for k in (0.05, 0.5, 0.95):
        assert np.all(np.diff(surrogate_density(p, k)) < 0.0)


def test_surrogate_density_domain_errors():
    with pytest.raises(ValueError):
        surrogate_density(0.0, 0.5)
    with pytest.raises(ValueError):
        surrogate_density(1.5, 0.5)
    for k in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            surrogate_density(0.5, k)


def _cutoff(t, pi, k):
    """c(t, pi, k), the p-value cutoff of psi(p) <= t, read off the
    library's one cutoff: E(t) of a single hypothesis over its pi."""
    fitted = FittedHypotheses(pi_hat=np.array([pi]), k_hat=np.array([k]))
    return _expected_count(fitted, t) / pi


def test_cutoff_hand_value():
    # inner ratio 0.5, power 1/k = 2
    assert _cutoff(0.5, 0.5, 0.5) == 0.25


def test_cutoff_clamped_branch():
    # inner ratio far above one, so the min with 1 binds
    assert _cutoff(0.9, 0.05, 0.5) == 1.0


def test_cutoff_nondecreasing_in_t():
    t = np.linspace(0.1, 0.9, 9)
    for pi, k in ((0.9, 0.5), (0.5, 0.2), (0.99, 0.8)):
        assert np.all(np.diff([_cutoff(x, pi, k) for x in t]) >= 0.0)


def test_psi_at_one():
    assert float(psi(1.0, 0.5, 0.5)) == 2.0 / 3.0


def test_psi_strictly_increasing():
    rng = np.random.default_rng(7)
    p = np.sort(rng.uniform(1e-6, 1.0, 10_000))
    for pi, k in ((0.9, 0.5), (0.3, 0.1), (0.99, 0.9)):
        assert np.all(np.diff(psi(p, pi, k)) > 0.0)


def test_rejection_rule_forms_agree_exactly():
    # psi vs threshold and the paper's likelihood ratio vs weight
    # w(t, pi) = (1 - t) pi / (t (1 - pi)) must pick identical index sets
    # on random tuples; criterion 6(a) adds the p-value cutoff form
    rng = np.random.default_rng(123)
    n = 100_000
    p = clamp_pvalues(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.01, 0.99, n)
    pi = rng.uniform(0.01, 0.99, n)
    k = rng.uniform(0.01, 0.99, n)
    by_weight = surrogate_density(p, k) >= (1.0 - t) * pi / (t * (1.0 - pi))
    by_psi = psi(p, pi, k) <= t
    assert np.array_equal(by_psi, by_weight)


def test_winsorize_hand_values():
    assert winsorize(0.5) == 0.5
    assert winsorize(0.01) == 0.1
    assert winsorize(0.99999999) == 1.0 - 1e-5


def test_winsorize_idempotent():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 1.5, 1000)
    once = winsorize(x)
    assert np.array_equal(winsorize(once), once)


@pytest.mark.parametrize(
    "alpha", [0.1, 1, np.float64(0.05), np.float32(0.5), np.int64(1), np.array(0.2)], ids=repr
)
def test_check_alpha_accepts_a_real_scalar_level(alpha):
    check_alpha(alpha)


@pytest.mark.parametrize(
    "alpha",
    [
        np.array([0.1, 0.2]),
        np.array([0.1]),
        "0.1",
        [0.1],
        None,
        True,
        np.True_,
        np.array(True),
        np.array("0.1"),
        0.1 + 0j,
        np.complex128(0.1),
    ],
    ids=repr,
)
def test_check_alpha_refuses_what_is_not_a_real_scalar(alpha):
    # its own message, not numpy's ambiguous truth value or a TypeError,
    # and True is not a level of 1
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\]$"):
        check_alpha(alpha)


@pytest.mark.parametrize(
    "x, expected",
    [
        (0, True),
        (-3, True),
        (np.int32(3), True),
        (np.uint64(3), True),
        (True, False),
        (np.True_, False),
        (3.0, False),
        (np.float64(3.0), False),
        ("3", False),
        (None, False),
        (np.array(3), False),
    ],
    ids=repr,
)
def test_is_integer_takes_python_and_numpy_integers_but_no_bool(x, expected):
    # the type test of spline_knots and of check_count, the gate of
    # SimulationConfig's m, n_replicates and seed, generate's replicate,
    # resolve_workers' n_workers and the splines' n_knots
    assert is_integer(x) is expected


# every public scalar argument, by the gate it passes, with the message
# that gate gives; each entry is a call of the scalar alone
_COUNT = "^{} must be an integer of at least {}, got "
_FINITE = "^{} must be finite$"
_KNOT_SAMPLE = np.linspace(0.0, 1.0, 50)
_STATS = MirrorStatistics(s=np.array([0.1, 0.6]), r=np.array([0.7, 0.2]), t_up=0.8)
_SCALAR_ENTRIES = {
    "SimulationConfig.m": (lambda v: SimulationConfig(m=v), _COUNT.format("m", 1)),
    "SimulationConfig.n_replicates": (
        lambda v: SimulationConfig(n_replicates=v),
        _COUNT.format("n_replicates", 1),
    ),
    "SimulationConfig.seed": (lambda v: SimulationConfig(seed=v), _COUNT.format("seed", 0)),
    "generate.replicate": (
        lambda v: generate(SimulationConfig(m=50, n_replicates=1), v),
        _COUNT.format("replicate", 0),
    ),
    "resolve_workers": (resolve_workers, _COUNT.format("n_workers", 0)),
    "spline_basis": (lambda v: spline_basis(_KNOT_SAMPLE, v), _COUNT.format("n_knots", 2)),
    **{
        f"SimulationConfig.{name}": (
            lambda v, name=name: SimulationConfig(**{name: v}),
            _FINITE.format(name),
        )
        for name in ("eta0", "k_d", "k_s", "k_f")
    },
    "OracleTruth.null_mean": (
        lambda v: OracleTruth(pi0=np.full(2, 0.9), effect=np.full(2, 2.0), null_mean=v),
        _FINITE.format("null_mean"),
    ),
    "noncentral_gamma_params": (
        noncentral_gamma_params,
        r"^mean must exceed sqrt\(2\) for a valid non-centrality$",
    ),
    "check_alpha": (check_alpha, r"^alpha must lie in \(0, 1\]$"),
    "reject.t_hat": (lambda v: reject(_STATS, v), r"^t_hat must lie in \[0, 1\]$"),
    "MirrorStatistics.t_up": (
        lambda v: MirrorStatistics(s=_STATS.s, r=_STATS.r, t_up=v),
        r"^t_up must lie in \(0, 1\]$",
    ),
}
_COUNT_ENTRIES = (
    "SimulationConfig.m",
    "SimulationConfig.n_replicates",
    "SimulationConfig.seed",
    "generate.replicate",
    "resolve_workers",
    "spline_basis",
)
_BAD_SCALARS = {
    "True": True,
    "nan": np.nan,
    "inf": np.inf,
    "1+0j": 1 + 0j,
    "'3'": "3",
    "None": None,
}
_BAD_COUNTS = {"3.5": 3.5, "np.float64(3.0)": np.float64(3.0)}
# an infinite mean has a non-centrality, but not a finite one
_OWN_MESSAGE = {("noncentral_gamma_params", "inf"): "^mean must be finite$"}
_SCALAR_CASES = [
    pytest.param(entry, case, id=f"{entry}-{case}")
    for entry in _SCALAR_ENTRIES
    for case in [*_BAD_SCALARS, *(_BAD_COUNTS if entry in _COUNT_ENTRIES else ())]
    if (entry, case) != ("resolve_workers", "None")  # None reads CAMT_THREADS
]


@pytest.mark.parametrize("entry, case", _SCALAR_CASES)
def test_every_scalar_entry_refuses_what_its_gate_refuses(entry, case):
    # 3.5 knots built a 4-column basis on the j/4.5 quantiles, a NaN,
    # infinite or complex null_mean gave NaN or complex LFDRs, reject took
    # True as t_hat 1.0, t_up kept True, and a NaN mean gave (nan, nan)
    call, message = _SCALAR_ENTRIES[entry]
    value = {**_BAD_SCALARS, **_BAD_COUNTS}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before a cast can warn
        with pytest.raises(ValueError, match=_OWN_MESSAGE.get((entry, case), message)):
            call(value)


def test_scalar_gates_return_what_they_take():
    # a count comes back as a Python int, a finite parameter unchanged,
    # so an integer-valued effect parameter stays an int in a sweep header
    assert type(check_count("n_knots", np.int32(3), 2)) is int
    assert type(check_finite("k_s", 3)) is int
    config = SimulationConfig(eta0=2, k_d=1, k_s=3, k_f=0)
    assert (config.eta0, config.k_d, config.k_s, config.k_f) == (2, 1, 3, 0)
    basis, knots = spline_basis(_KNOT_SAMPLE, np.int32(3))
    want_basis, want_knots = spline_basis(_KNOT_SAMPLE, 3)
    assert np.array_equal(basis, want_basis) and np.array_equal(knots, want_knots)
    p = np.array([0.01, 0.5])
    truth = dict(pi0=np.full(2, 0.9), effect=np.full(2, 2.0))
    assert np.array_equal(
        lfdr_values(p, OracleTruth(**truth, null_mean=0)),
        lfdr_values(p, OracleTruth(**truth, null_mean=0.0)),
    )
    assert noncentral_gamma_params(2) == noncentral_gamma_params(2.0)
