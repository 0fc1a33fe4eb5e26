"""Tests for the BH, Storey and oracle LFDR reference procedures."""

import itertools
import warnings
from math import lgamma

import numpy as np
import pytest
import scipy.integrate

import camt.baselines
from camt._special import ndtri
from camt.baselines import (
    OracleTruth,
    _noncentral_gamma_pdf,
    bh,
    lfdr_values,
    noncentral_gamma_params,
    oracle_prepare,
    oracle_select,
    storey,
)
from camt.simulation import SimulationConfig, generate


def _bh_scan(pvals, alpha):
    """Literal step-up definition: scan every k, keep the largest."""
    p = np.asarray(pvals, dtype=float)
    m = p.size
    ps = np.sort(p)
    kstar = 0
    for k in range(1, m + 1):
        if ps[k - 1] <= alpha * k / m:
            kstar = k
    if kstar == 0:
        return np.zeros(m, dtype=bool)
    return p <= ps[kstar - 1]


def _oracle(pvals, truth, alpha):
    """The sweep's oracle procedure: LFDR values, prepared, then selected."""
    return oracle_select(oracle_prepare(lfdr_values(pvals, truth)), alpha)


def _reference_noncentral_gamma_pdf(x, scale, delta):
    """The density as a sum of Poisson-weighted gamma densities, each
    term's weight and gamma density formed from scratch."""
    x = np.asarray(x, dtype=float)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), x.shape)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape)
    out = np.zeros(x.shape)
    pos = x > 0.0
    if not pos.any():
        return out
    xs, sc, dl = x[pos], scale[pos], delta[pos]
    n_max = int(np.ceil(dl.max() + 12.0 * np.sqrt(dl.max()) + 20.0))
    log_x_over_s = np.log(xs / sc)
    acc = np.zeros(xs.shape)
    for n in range(n_max + 1):
        a = 2.0 + n
        log_w = n * np.log(dl) - dl - lgamma(n + 1.0)
        log_pdf = (a - 1.0) * log_x_over_s - xs / sc - lgamma(a) - np.log(sc)
        acc += np.exp(log_w + log_pdf)
    out[pos] = acc
    return out


def _reference_lfdr_values(pvals, truth):
    """The two-density formula: the null and the alternative density of
    z, each over the standard normal density, weighted by pi0 and
    1 - pi0; the gamma family takes _reference_noncentral_gamma_pdf."""
    p = np.clip(np.asarray(pvals, dtype=float), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    z = -ndtri(p)
    f0 = np.exp(truth.null_mean * z - 0.5 * truth.null_mean**2)
    if truth.family == "normal":
        f1 = np.exp(truth.effect * z - 0.5 * truth.effect**2)
    else:
        scale, delta = noncentral_gamma_params(truth.effect)
        normal_pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
        f1 = _reference_noncentral_gamma_pdf(z, scale, delta) / normal_pdf
    null_part = truth.pi0 * f0
    alt_part = (1.0 - truth.pi0) * f1
    return null_part / (null_part + alt_part)


def _random_pvalues(rng, m):
    signal = rng.random(m) < 0.4
    return np.where(signal, rng.uniform(0, 0.03, m), rng.random(m))


# ----------------------------------------------------------------------
# BH


def test_bh_rejects_only_the_clear_signal():
    p = np.array([0.001, 0.8, 0.9, 0.95])
    assert bh(p, 0.05).tolist() == [True, False, False, False]


def test_bh_all_ones_rejects_nothing():
    assert not bh(np.ones(5), 0.05).any()


def test_bh_alpha_one_rejects_everything():
    rng = np.random.default_rng(3)
    p = rng.random(20)
    assert bh(p, 1.0).all()


def _tied_pvalues(rng, m):
    """p-values from a small grid holding 0 and 1, so ties are the rule."""
    return rng.choice(np.array([0.0, 0.001, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0]), m)


def _storey_scan(p, alpha):
    """Storey's rule from its definition: the BH scan at alpha / pi0_hat,
    pi0_hat = min(1, #{p > 0.5} / (0.5 m)); everything when pi0_hat = 0."""
    m = p.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    pi0 = min(1.0, np.count_nonzero(p > 0.5) / (0.5 * m))
    if pi0 == 0.0:
        return np.ones(m, dtype=bool)
    return _bh_scan(p, alpha / pi0)


@pytest.mark.parametrize(
    "draw, alpha",
    [pytest.param(_random_pvalues, a, id=str(a)) for a in (0.1, 1.0)]
    + [pytest.param(_tied_pvalues, a, id=f"ties-{a}") for a in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)],
)
def test_bh_matches_definition_scan(draw, alpha):
    rng = np.random.default_rng(42)
    for m in range(61):
        for _ in range(4):
            p = draw(rng, m)
            assert np.array_equal(bh(p, alpha), _bh_scan(p, alpha))
            assert np.array_equal(storey(p, alpha), _storey_scan(p, alpha))


def test_bh_tied_boundary_rejects_all_tied():
    # both copies of the boundary p-value go together
    p = np.array([0.02, 0.02, 0.9])
    mask = bh(p, 0.15)  # thresholds 0.05, 0.10, 0.15
    assert mask.tolist() == [True, True, False]


def test_bh_alpha_domain():
    for alpha in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            bh(np.array([0.5]), alpha)


def test_bh_empty_input():
    assert bh(np.zeros(0), 0.05).size == 0


@pytest.mark.parametrize("procedure", [bh, storey])
def test_baselines_refuse_corrupt_pvalues(procedure):
    for p in (np.array([np.nan, 0.1]), np.array([1.5, 0.001]), np.array([-0.1, 0.2])):
        with pytest.raises(ValueError, match=r"p-values must be finite and lie in \[0, 1\]"):
            procedure(p, 0.1)
    with pytest.raises(ValueError, match="p-values must be a 1-d array"):
        procedure(np.full((3, 3), 0.2), 0.1)


# ----------------------------------------------------------------------
# Storey


def test_storey_with_flat_tail_reduces_to_bh():
    # 6 of 10 p-values above lambda = 0.5 pushes pi0_hat to the cap of 1
    p = np.array([0.01, 0.02, 0.03, 0.04, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95])
    assert np.array_equal(storey(p, 0.1), bh(p, 0.1))


def test_storey_halved_null_fraction_doubles_the_level():
    # exactly 2 of 8 p-values exceed 0.5, so pi0_hat = 2 / 4 = 0.5 and
    # alpha / pi0_hat = 2 alpha without rounding
    p = np.array([1e-9, 1e-9, 1e-9, 1e-9, 0.6, 0.7, 0.3, 0.4])
    got = storey(p, 0.05)
    assert np.array_equal(got, bh(p, 0.1))
    assert got.tolist() == [True, True, True, True, False, False, False, False]


def test_storey_degenerate_estimate_rejects_everything():
    p = np.full(5, 0.2)  # nothing above lambda = 0.5
    assert storey(p, 0.05).all()


def test_storey_contains_bh():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(5, 200))
        p = _random_pvalues(rng, m)
        bh_mask = bh(p, 0.1)
        st_mask = storey(p, 0.1)
        assert np.all(st_mask[bh_mask])


def test_storey_level_above_one_rejects_everything():
    # pi0_hat = 0.5, so alpha = 0.6 asks BH for level 1.2: BH at level 1
    # already rejects every hypothesis
    p = np.array([1e-9, 1e-9, 0.2, 0.3, 0.6, 0.7, 0.45, 0.4])
    assert storey(p, 0.6).all() and storey(p, 1.0).all() and storey(p, 0.5).all()
    assert not storey(p, 0.05).all()


def test_storey_alpha_domain():
    for alpha in (0.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            storey(np.array([0.2, 0.9]), alpha)


# ----------------------------------------------------------------------
# oracle LFDR values


def test_lfdr_is_pi0_when_alternative_matches_null():
    # zero effect makes both density ratios one, so the posterior equals
    # the prior; dyadic priors keep the arithmetic exact
    pi0 = np.array([0.5, 0.25, 0.75, 0.125])
    truth = OracleTruth(pi0=pi0, effect=np.zeros(4))
    p = np.array([0.02, 0.3, 0.77, 0.5])
    assert lfdr_values(p, truth).tolist() == pi0.tolist()


def test_lfdr_increases_with_p_for_positive_effect():
    p = np.linspace(0.001, 0.999, 500)
    truth = OracleTruth(pi0=np.full(500, 0.8), effect=np.full(500, 2.0))
    values = lfdr_values(p, truth)
    assert np.all(np.diff(values) > 0)
    assert np.all((values > 0) & (values < 1))


def test_lfdr_shifted_null_raises_small_p_lfdr():
    # a null mean of -0.15 makes small p-values less null-like than the
    # centered null claims, and large ones more so
    p = np.array([0.001, 0.999])
    base = OracleTruth(pi0=np.full(2, 0.9), effect=np.full(2, 2.0))
    shifted = OracleTruth(
        pi0=np.full(2, 0.9), effect=np.full(2, 2.0), null_mean=-0.15
    )
    lo = lfdr_values(p, base)
    hi = lfdr_values(p, shifted)
    assert hi[0] < lo[0]
    assert hi[1] > lo[1]


@pytest.mark.parametrize("family", ["normal", "noncentral-gamma"])
def test_lfdr_at_an_exact_zero_or_one_is_its_nearest_interior_value(family):
    # z = -ndtri(p) is infinite at p = 0 or 1, which gave a NaN LFDR and
    # a RuntimeWarning; an exact 0 or 1 now reads the LFDR of the double
    # next to it, and every p inside (0, 1) keeps its own bits
    truth = OracleTruth(pi0=np.full(4, 0.9), effect=np.full(4, 2.0), family=family)
    p = np.array([0.0, 1e-300, 1.0, 0.5])
    interior = np.array([np.nextafter(0.0, 1.0), 1e-300, np.nextafter(1.0, 0.0), 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = lfdr_values(p, truth)
        want = lfdr_values(interior, truth)
    assert np.array_equal(values, want)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert values[0] < values[1] < values[3] <= values[2]
    # the oracle ranks the most significant p-value first
    order, _ = oracle_prepare(values)
    assert order[0] == 0


@pytest.mark.parametrize("setup", ["S0", "S2", "complete-null", "S1", "S5.1", "S5.2"])
def test_lfdr_matches_the_two_density_formula(monkeypatch, setup):
    # one likelihood ratio against the null keeps the two-density
    # formula's bits wherever the null is centred; a shifted null
    # rounds apart by at most 2 ulp of 1. S1 compares the formulas on
    # one density, the per-term sum
    monkeypatch.setattr(camt.baselines, "_noncentral_gamma_pdf", _reference_noncentral_gamma_pdf)
    for seed in range(3):
        data = generate(SimulationConfig(setup=setup, m=2000, seed=seed))
        values = lfdr_values(data.pvals, data.truth)
        want = _reference_lfdr_values(data.pvals, data.truth)
        if setup.startswith("S5"):
            assert np.abs(values - want).max() <= 4.5e-16
        else:
            assert np.array_equal(values, want)


@pytest.mark.parametrize(
    "setup, k_s, k_f", [("S2", 20.0, 1.0), ("S0", 37.0, 0.0), ("S0", 40.0, 0.0)]
)
def test_lfdr_takes_an_overflowing_likelihood_ratio_as_zero(setup, k_s, k_f):
    # exp(k_s z - k_s^2 / 2) overflows for the largest alternative z at
    # these effects; the alternative's density alone overflowed with a
    # RuntimeWarning. The ratio's limit, inf, gives an LFDR of exactly 0
    data = generate(SimulationConfig(setup=setup, m=10_000, k_s=k_s, k_f=k_f, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = lfdr_values(data.pvals, data.truth)
    assert np.all((values >= 0.0) & (values <= 1.0))
    with np.errstate(over="ignore"):
        want = _reference_lfdr_values(data.pvals, data.truth)
    assert np.array_equal(values, want)
    assert (values == 0.0).any()


@pytest.mark.parametrize("family", ["normal", "noncentral-gamma"])
def test_lfdr_is_one_where_pi0_is_one_even_if_the_ratio_overflows(family):
    # at p = 1e-320 the likelihood ratio of an effect of 38 overflows to
    # inf, and (1 - pi0) inf was 0 inf = NaN with a RuntimeWarning
    truth = OracleTruth(pi0=np.array([1.0, 1.0, 0.5]), effect=np.full(3, 38.0), family=family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = lfdr_values([1e-320, 0.5, 1e-320], truth)
    assert np.array_equal(values, [1.0, 1.0, 0.0])


def test_oracle_all_null_rejects_nothing():
    truth = OracleTruth(pi0=np.ones(10), effect=np.full(10, 2.0))
    p = np.linspace(0.01, 0.95, 10)
    assert not _oracle(p, truth, 0.05).any()


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9])
def test_oracle_matches_subset_enumeration(alpha):
    # the rule must reject as many hypotheses as the best admissible
    # subset of any size, and pick the smallest LFDR values to do it
    rng = np.random.default_rng(101)
    m = 6
    truth = OracleTruth(
        pi0=rng.uniform(0.3, 0.95, m), effect=np.full(m, 2.5)
    )
    p = _random_pvalues(rng, m)
    values = lfdr_values(p, truth)
    best_size = 0
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            if values[list(subset)].mean() <= alpha:
                best_size = max(best_size, size)
    mask = _oracle(p, truth, alpha)
    assert mask.sum() == best_size
    if best_size:
        expected = np.zeros(m, dtype=bool)
        expected[np.argsort(values)[:best_size]] = True
        assert np.array_equal(mask, expected)
        assert values[mask].mean() <= alpha


def test_oracle_alpha_domain():
    truth = OracleTruth(pi0=np.array([0.5]), effect=np.array([2.0]))
    with pytest.raises(ValueError):
        _oracle(np.array([0.5]), truth, 0.0)


# ----------------------------------------------------------------------
# non-central gamma alternative


def test_noncentral_gamma_moment_identities():
    for mean in (1.5, 2.0, 3.0, 5.0):
        scale, delta = noncentral_gamma_params(mean)
        assert scale * (2.0 + delta) == pytest.approx(mean, rel=1e-12)
        assert scale**2 * (2.0 + 2.0 * delta) == pytest.approx(1.0, rel=1e-12)


def test_noncentral_gamma_params_vectorized():
    means = np.array([2.0, 3.0])
    scale, delta = noncentral_gamma_params(means)
    assert scale.shape == (2,)
    assert np.allclose(scale * (2.0 + delta), means, rtol=1e-12)


def test_noncentral_gamma_mean_domain():
    for mean in (np.sqrt(2.0), 1.2, 0.0):
        with pytest.raises(ValueError):
            noncentral_gamma_params(mean)
    # a NaN entry of an array gave a NaN scale and non-centrality
    with pytest.raises(ValueError, match=r"^mean must exceed sqrt\(2\)"):
        noncentral_gamma_params(np.array([2.0, np.nan]))
    # delta must stay below the largest lam rng.poisson takes; 1e200
    # overflowed to (0.0, inf) with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mean in (2147483645.0, 3e9, 1e200, np.array([2.0, 1e300])):
            with pytest.raises(ValueError, match="^mean must give a non-centrality below numpy's"):
                noncentral_gamma_params(mean)
        assert noncentral_gamma_params(2147483644.0)[1] < 9.223372006484771e18


def test_noncentral_gamma_pdf_moments_by_quadrature():
    mean = 3.0
    scale, delta = noncentral_gamma_params(mean)
    f = lambda x: _noncentral_gamma_pdf(np.array([x]), scale, delta)[0]
    total, _ = scipy.integrate.quad(f, 0.0, 60.0, limit=200)
    first, _ = scipy.integrate.quad(lambda x: x * f(x), 0.0, 60.0, limit=200)
    second, _ = scipy.integrate.quad(lambda x: x * x * f(x), 0.0, 60.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert first == pytest.approx(mean, abs=1e-8)
    assert second - first**2 == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("k_s", [2.4, 30.0])
def test_noncentral_gamma_pdf_matches_the_per_term_sum(k_s):
    # each Poisson term is one exp of hoisted invariants; the per-term
    # sum rebuilds every term's weight and gamma density from scratch
    data = generate(SimulationConfig(setup="S1", m=2000, k_s=k_s, seed=0))
    z = np.concatenate([data.z, np.linspace(-1.0, 2.0 * k_s, 200)])
    scale, delta = noncentral_gamma_params(k_s)
    got = _noncentral_gamma_pdf(z, scale, delta)
    want = _reference_noncentral_gamma_pdf(z, scale, delta)
    assert np.array_equal(got == 0.0, want == 0.0)
    big = want >= 1e-300
    assert big.sum() > 300
    assert np.all(np.abs(got[big] - want[big]) <= 1e-9 * want[big])


# ----------------------------------------------------------------------
# truth container and shared invariants


def test_oracle_truth_validation():
    with pytest.raises(ValueError):
        OracleTruth(pi0=np.array([0.5]), effect=np.array([2.0]), family="cauchy")
    with pytest.raises(ValueError):
        OracleTruth(pi0=np.array([0.5, 0.6]), effect=np.array([2.0]))
    # a fully null truth is legitimate
    OracleTruth(pi0=np.ones(3), effect=np.zeros(3))


@pytest.mark.parametrize(
    "pi0, effect, message",
    [
        ([0.5 + 0j, 0.6], [2.0, 2.0], "pi0 must be real, not complex"),
        ([0.5, 0.6], [2.0 + 0j, 2.0], "effect must be real, not complex"),
        ([0.5, 1.5], [2.0, 2.0], r"pi0 must lie in \[0, 1\]"),
        ([0.5, -0.1], [2.0, 2.0], r"pi0 must lie in \[0, 1\]"),
        ([0.5, np.nan], [2.0, 2.0], r"pi0 must lie in \[0, 1\]"),
        ([0.5, 0.6], [2.0, np.inf], "effect must be finite"),
        ([0.5, 0.6], [2.0, np.nan], "effect must be finite"),
    ],
    ids=["complex-pi0", "complex-effect", "pi0-1.5", "pi0-negative", "pi0-nan", "effect-inf", "effect-nan"],
)
def test_oracle_truth_refuses_what_is_no_truth(pi0, effect, message):
    # a float cast kept a complex pi0's real part with only a
    # ComplexWarning, and pi0 = 1.5 gave LFDR values above one
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before a cast can warn
        with pytest.raises(ValueError, match=f"^{message}$"):
            OracleTruth(pi0=np.array(pi0), effect=np.array(effect))


@pytest.mark.parametrize("n_truth", [1, 2, 4])
def test_lfdr_values_needs_one_truth_entry_per_pvalue(n_truth):
    # two entries raised numpy's bare broadcast error, and one was
    # silently broadcast over all three p-values
    truth = OracleTruth(pi0=np.full(n_truth, 0.9), effect=np.full(n_truth, 2.0))
    message = rf"^truth of shape \({n_truth},\) for p-values of shape \(3,\)$"
    with pytest.raises(ValueError, match=message):
        lfdr_values(np.array([0.01, 0.5, 0.9]), truth)


def test_procedures_are_permutation_equivariant():
    rng = np.random.default_rng(11)
    m = 60
    p = _random_pvalues(rng, m)
    truth = OracleTruth(pi0=rng.uniform(0.4, 0.95, m), effect=np.full(m, 2.2))
    perm = rng.permutation(m)
    truth_perm = OracleTruth(pi0=truth.pi0[perm], effect=truth.effect[perm])
    assert np.array_equal(bh(p[perm], 0.1), bh(p, 0.1)[perm])
    assert np.array_equal(storey(p[perm], 0.1), storey(p, 0.1)[perm])
    assert np.array_equal(
        _oracle(p[perm], truth_perm, 0.1), _oracle(p, truth, 0.1)[perm]
    )
