"""Tests for the mirror FDP estimate, threshold search and rejection."""

import warnings
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camt.em import FittedHypotheses
from camt.kernel import clamp_pvalues, psi
from camt.pipeline import fit_camt
from camt.simulation import SimulationConfig, generate
from camt.threshold import (
    MirrorStatistics,
    _expected_count,
    mirror_statistics,
    reject,
    select_threshold,
)

WORKED = MirrorStatistics(
    s=np.array([0.01, 0.02, 0.6, 0.7]),
    r=np.array([0.65, 0.8, 0.03, 0.9]),
    t_up=1.0,
)


def _cutoff(t, pi, k):
    """The paper's p-value cutoff c(t, pi, k) = min(1, (t (1-k) (1-pi) /
    ((1-t) pi)) ** (1/k)), written directly: the reference for E(t),
    which camt forms on the log scale."""
    inner = t * (1.0 - k) * (1.0 - pi) / ((1.0 - t) * pi)
    with np.errstate(over="ignore"):
        c = inner ** (1.0 / k)
    return np.minimum(1.0, c)


def _grid_best(stats, alpha, n_points):
    """Brute-force threshold search on a uniform grid over [0, t_up]."""
    grid = np.linspace(0.0, stats.t_up, n_points)
    num = np.searchsorted(np.sort(stats.r), grid, side="left")
    den = np.searchsorted(np.sort(stats.s), grid, side="right")
    estimates = (1 + num) / np.maximum(1, den)
    admissible = estimates <= alpha
    if not admissible.any():
        return 0.0
    return float(grid[admissible].max())


# ----------------------------------------------------------------------
# the plain FDP estimate (1 + #{r_i < t}) / max(1, #{s_i <= t}), reject's
# fdp_hat at any t in [0, 1]


def test_fdp_up_counting_example():
    assert reject(WORKED, 0.05).fdp_hat == 1.0  # (1 + 1) / 2


def test_fdp_up_below_all_statistics():
    assert reject(WORKED, 0.005).fdp_hat == 1.0  # (1 + 0) / max(1, 0)


def test_fdp_up_at_one_counts_everything():
    assert reject(WORKED, 1.0).fdp_hat == (1 + 4) / 4


def test_fdp_up_domain():
    with pytest.raises(ValueError):
        reject(WORKED, -0.1)
    with pytest.raises(ValueError):
        reject(WORKED, 1.1)


# ----------------------------------------------------------------------
# select_threshold


def test_select_worked_example():
    assert select_threshold(WORKED, 0.5) == 0.02


def test_select_worked_example_matches_grid_search():
    t_hat = select_threshold(WORKED, 0.5)
    t_grid = _grid_best(WORKED, 0.5, 100_000)
    assert np.array_equal(WORKED.s <= t_hat, WORKED.s <= t_grid)
    assert reject(WORKED, t_hat).fdp_hat == reject(WORKED, t_grid).fdp_hat


def test_select_vacuous_constraint_takes_largest_candidate():
    assert select_threshold(WORKED, 1.0) == 0.7


def test_select_nothing_admissible_returns_zero():
    assert select_threshold(WORKED, 0.1) == 0.0


def test_select_alpha_domain():
    for alpha in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            select_threshold(WORKED, alpha)


def test_select_all_pvalues_near_one_rejects_nothing():
    m = 50
    p = np.full(m, 0.99)
    fitted = FittedHypotheses(pi_hat=np.full(m, 0.9), k_hat=np.full(m, 0.5))
    stats = mirror_statistics(p, fitted)
    t_hat = select_threshold(stats, 0.1)
    assert t_hat == 0.0
    assert reject(stats, t_hat).n_rejections == 0


def test_select_agrees_with_dense_grid_on_random_instances():
    rng = np.random.default_rng(314)
    for _ in range(20):
        m = int(rng.integers(3, 51))
        fitted = FittedHypotheses(
            pi_hat=rng.uniform(0.1, 1.0 - 1e-5, m),
            k_hat=rng.uniform(0.05, 0.95, m),
        )
        p = np.where(rng.random(m) < 0.5, rng.uniform(0, 0.05, m), rng.random(m))
        stats = mirror_statistics(p, fitted)
        alpha = float(rng.uniform(0.05, 0.6))
        t_hat = select_threshold(stats, alpha)
        t_grid = _grid_best(stats, alpha, 100_000)
        # the estimate at the grid point may sit higher (extra mirror
        # counts can stay admissible), but the rejection set must match
        assert np.array_equal(stats.s <= t_hat, stats.s <= t_grid)
        if t_hat > 0.0:
            assert reject(stats, t_hat).fdp_hat <= alpha


def test_selected_threshold_estimate_is_admissible():
    rng = np.random.default_rng(99)
    for _ in range(25):
        m = int(rng.integers(20, 400))
        fitted = FittedHypotheses(
            pi_hat=rng.uniform(0.1, 1.0 - 1e-5, m),
            k_hat=rng.uniform(0.05, 0.95, m),
        )
        p = np.where(rng.random(m) < 0.3, rng.uniform(0, 0.02, m), rng.random(m))
        stats = mirror_statistics(p, fitted)
        t_hat = select_threshold(stats, 0.2)
        if t_hat > 0.0:
            assert reject(stats, t_hat).fdp_hat <= 0.2


# ----------------------------------------------------------------------
# reject


def test_reject_zero_threshold_is_empty():
    result = reject(WORKED, 0.0)
    assert result.n_rejections == 0
    assert not result.rejected.any()
    assert result.fdp_hat == 1.0


def test_reject_mask_matches_per_index_rule():
    t_hat = select_threshold(WORKED, 0.5)
    result = reject(WORKED, t_hat)
    expected = np.array([s <= t_hat for s in WORKED.s])
    assert np.array_equal(result.rejected, expected)
    assert result.n_rejections == 2
    assert result.fdp_hat == 0.5


def test_reject_nested_thresholds():
    rng = np.random.default_rng(17)
    m = 200
    fitted = FittedHypotheses(pi_hat=rng.uniform(0.1, 0.99, m), k_hat=rng.uniform(0.1, 0.9, m))
    stats = mirror_statistics(rng.random(m), fitted)
    small = reject(stats, 0.1).rejected
    large = reject(stats, 0.4).rejected
    assert np.all(large[small])  # every rejection at 0.1 survives at 0.4


# ----------------------------------------------------------------------
# mirror construction


def test_mirror_statistics_definition():
    # entry times: psi(p) into the rejection count below one half,
    # psi(1 - p) into the mirror count above it, inf where never entered
    rng = np.random.default_rng(55)
    m = 40
    p = rng.uniform(0.01, 0.99, m)
    p[:2] = 0.5
    fitted = FittedHypotheses(pi_hat=rng.uniform(0.2, 0.95, m), k_hat=rng.uniform(0.1, 0.9, m))
    stats = mirror_statistics(p, fitted)
    s = psi(p, fitted.pi_hat, fitted.k_hat)
    r = psi(1.0 - p, fitted.pi_hat, fitted.k_hat)
    assert np.array_equal(stats.s, np.where(p < 0.5, s, np.inf))
    assert np.array_equal(stats.r, np.where(p > 0.5, r, np.inf))
    assert np.all(np.isinf(stats.s[:2]) & np.isinf(stats.r[:2]))
    assert stats.t_up == float(np.min(psi(0.5, fitted.pi_hat, fitted.k_hat)))


def test_mirror_swap_under_p_reflection():
    # dyadic p-values survive 1 - (1 - p) without rounding, so the swap
    # is exact
    p = np.arange(1, 64) / 64.0
    rng = np.random.default_rng(8)
    fitted = FittedHypotheses(
        pi_hat=rng.uniform(0.2, 0.95, p.size), k_hat=rng.uniform(0.1, 0.9, p.size)
    )
    stats = mirror_statistics(p, fitted)
    flipped = mirror_statistics(1.0 - p, fitted)
    assert np.array_equal(stats.s, flipped.r)
    assert np.array_equal(stats.r, flipped.s)
    assert stats.t_up == flipped.t_up


def test_mirror_statistics_validation():
    with pytest.raises(ValueError):
        MirrorStatistics(s=np.array([0.5]), r=np.array([0.5, 0.6]), t_up=0.5)
    with pytest.raises(ValueError):
        MirrorStatistics(s=np.array([0.0]), r=np.array([0.5]), t_up=0.5)
    with pytest.raises(ValueError):
        MirrorStatistics(s=np.array([0.5]), r=np.array([0.5]), t_up=0.0)
    # an entry time lies in (0, 1] or is inf, never entered
    MirrorStatistics(s=np.array([1.0, np.inf]), r=np.array([np.inf, 0.3]), t_up=0.5)
    for bad in (np.nan, -np.inf, 1.5, 0.0):
        with pytest.raises(ValueError, match=r"^r must lie in \(0, 1\] or be inf$"):
            MirrorStatistics(s=np.array([0.2, np.inf]), r=np.array([np.inf, bad]), t_up=0.5)
    fitted = FittedHypotheses(pi_hat=np.full(3, 0.9), k_hat=np.full(3, 0.5))
    message = r"^p-values of shape \(5,\) for fitted hypotheses of shape \(3,\)$"
    with pytest.raises(ValueError, match=message):
        mirror_statistics(np.full(5, 0.2), fitted)


def test_half_pvalue_counts_neither_for_rejection_nor_against():
    # p = 0.5 carries no sign: it enters neither count, at t = psi(0.5)
    # or above, so it is no candidate threshold
    fitted = FittedHypotheses(pi_hat=np.array([0.8]), k_hat=np.array([0.5]))
    stats = mirror_statistics(np.array([0.5]), fitted)
    assert stats.s[0] == stats.r[0] == np.inf
    for t in (stats.t_up, 1.0):
        for mixed_fitted in (None, fitted):
            result = reject(stats, t, mixed_fitted=mixed_fitted)
            assert (result.n_rejections, result.fdp_hat) == (0, 1.0)
    for mixed_fitted in (None, fitted):
        assert select_threshold(stats, 1.0, mixed_fitted=mixed_fitted) == 0.0


def test_a_statistic_that_rounds_to_one_is_a_candidate():
    assert select_threshold(MirrorStatistics(np.array([1.0]), np.array([np.inf]), 1.0), 1.0) == 1.0
    # pi_hat sits at the winsorize cap 1 - 1e-5 and k_hat at 1 - 2.4e-12,
    # so at p = 0.72 (1 - pi) h is below half an ulp of pi and psi is 1.0
    data = generate(SimulationConfig(setup="complete-null", m=500, seed=0), 94)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "EM did not converge", RuntimeWarning)
        state = fit_camt(data.pvals, data.covariates)
    assert psi(clamp_pvalues(data.pvals), state.fitted.pi_hat, state.fitted.k_hat).max() == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mixed in (False, True):
            for alpha in (0.05, 0.2, 1.0):
                result = state.select(alpha, mixed=mixed)
                assert result.t_hat == 0.0 or result.fdp_hat <= alpha
                assert result.t_hat <= state.stats.t_up
        # the selection stops at t_up < 1, but rejecting at t = 1 reaches
        # E(1) = sum(pi), where every p-value below one half is rejected
        result = reject(state.stats, 1.0, mixed_fitted=state.fitted)
        n_below = np.count_nonzero(data.pvals < 0.5)
        assert result.n_rejections == n_below == 249
        expected = _expected_count(state.fitted, 1.0)
        assert expected == pytest.approx(state.fitted.pi_hat.sum(), rel=1e-12)
        mirror_count = np.count_nonzero(state.stats.r < 1.0)
        assert result.fdp_hat == max(1.0, expected, mirror_count) / n_below


def test_reject_above_t_up_never_rejects_a_pvalue_above_one_half():
    # at t = 1 > t_up, psi(0.7) <= t, but 0.7 only ever enters the
    # mirror count, at psi(0.3); no selection goes above t_up
    fitted = FittedHypotheses(pi_hat=np.full(3, 0.8), k_hat=np.full(3, 0.5))
    stats = mirror_statistics(np.array([0.3, 0.7, 0.9]), fitted)
    assert stats.t_up < psi(0.7, 0.8, 0.5) < 1.0
    result = reject(stats, 1.0)
    assert np.array_equal(result.rejected, [True, False, False])
    assert result.fdp_hat == (1 + 2) / 1
    for alpha in (0.5, 1.0):
        assert select_threshold(stats, alpha) <= stats.t_up


def test_a_rounding_tie_counts_on_its_side_of_one_half():
    # with pi at the winsorize cap and k_hat at 1 - 2.4e-12, psi rounds
    # to 1.0 on both sides of 0.45 and 0.55, so t_up = 1.0 too; each
    # p-value still enters the count of its side of one half, at t_up
    fitted = FittedHypotheses(pi_hat=np.full(2, 1.0 - 1e-5), k_hat=np.full(2, 1.0 - 2.4e-12))
    p = np.array([0.45, 0.55])
    assert np.all(psi(p, fitted.pi_hat, fitted.k_hat) == 1.0)
    assert np.all(psi(1.0 - p, fitted.pi_hat, fitted.k_hat) == 1.0)
    stats = mirror_statistics(p, fitted)
    assert stats.t_up == 1.0
    assert np.array_equal(stats.s, [1.0, np.inf]) and np.array_equal(stats.r, [np.inf, 1.0])
    # the statistic of one is the plain selection's candidate; the mirror
    # count is strict, so r = t does not count
    assert select_threshold(stats, 1.0) == 1.0
    result = reject(stats, 1.0)
    assert np.array_equal(result.rejected, [True, False]) and result.fdp_hat == 1.0
    # the mixed estimate at t = 1 reads E(1) = sum(pi), near 2
    result = reject(stats, 1.0, mixed_fitted=fitted)
    assert np.array_equal(result.rejected, [True, False])
    assert result.fdp_hat == fitted.pi_hat.sum() > 1.0


def test_a_mixed_selection_refuses_another_fits_hypotheses():
    # E(t) over a fit of 1000 hypotheses used to price the 3000
    # statistics of another fit without an error
    def fitted(m):
        return FittedHypotheses(pi_hat=np.full(m, 0.9), k_hat=np.full(m, 0.5))

    stats = mirror_statistics(np.linspace(0.001, 0.999, 3000), fitted(3000))
    message = r"^mixed_fitted of shape \(1000,\) for statistics of shape \(3000,\)$"
    with pytest.raises(ValueError, match=message):
        reject(stats, 0.3, mixed_fitted=fitted(1000))
    with pytest.raises(ValueError, match=message):
        select_threshold(stats, 0.3, mixed_fitted=fitted(1000))
    # the fit's own hypotheses are taken
    t_hat = select_threshold(stats, 0.3, mixed_fitted=fitted(3000))
    assert reject(stats, t_hat, mixed_fitted=fitted(3000)).t_hat == t_hat


# ----------------------------------------------------------------------
# mixed estimate: reject's fdp_hat with mixed_fitted, E(t) = _expected_count


def test_mixed_estimate_vanishes_with_the_threshold():
    rng = np.random.default_rng(23)
    m = 100
    fitted = FittedHypotheses(pi_hat=rng.uniform(0.3, 0.95, m), k_hat=rng.uniform(0.2, 0.8, m))
    stats = mirror_statistics(rng.uniform(0.05, 0.95, m), fitted)
    tiny = reject(stats, 1e-12, mixed_fitted=fitted)
    small = reject(stats, 1e-6, mixed_fitted=fitted)
    # nothing is rejected and no mirror statistic is below t: E(t) vanishes
    # with t, and fdp_hat reads the floor of one, as the plain estimate does
    assert tiny.n_rejections == small.n_rejections == 0
    assert 0.0 == _expected_count(fitted, 0.0) <= _expected_count(fitted, 1e-12)
    assert _expected_count(fitted, 1e-12) <= _expected_count(fitted, 1e-6) < 1e-3
    assert tiny.fdp_hat == small.fdp_hat == reject(stats, 1e-6).fdp_hat == 1.0
    assert reject(stats, 0.0, mixed_fitted=fitted).fdp_hat == 1.0


def test_mixed_estimate_is_the_max_of_its_two_parts():
    rng = np.random.default_rng(29)
    m = 300
    fitted = FittedHypotheses(pi_hat=rng.uniform(0.2, 0.95, m), k_hat=rng.uniform(0.1, 0.9, m))
    stats = mirror_statistics(rng.random(m), fitted)
    for t in (0.02, 0.1, 0.3):
        expected_count = float(
            np.sum(fitted.pi_hat * _cutoff(t, fitted.pi_hat, fitted.k_hat))
        )
        mirror_count = float(np.count_nonzero(stats.r < t))
        assert _expected_count(fitted, t) == pytest.approx(expected_count, rel=1e-9)
        got = reject(stats, t, mixed_fitted=fitted)
        assert got.fdp_hat == pytest.approx(
            max(1.0, expected_count, mirror_count) / max(1, got.n_rejections), rel=1e-9
        )


def test_mixed_estimate_all_null_reduction():
    m = 200
    pi = np.full(m, 1.0 - 1e-5)
    k = np.full(m, 0.5)
    fitted = FittedHypotheses(pi_hat=pi, k_hat=k)
    rng = np.random.default_rng(31)
    stats = mirror_statistics(rng.uniform(0.4, 0.99, m), fitted)
    t = 0.02
    got = reject(stats, t, mixed_fitted=fitted)
    assert got.n_rejections == 0 and not np.any(stats.r < t)
    expected = _expected_count(fitted, t)
    assert expected == pytest.approx(float(np.sum(_cutoff(t, pi, k))), rel=1e-4)
    assert got.fdp_hat == max(1.0, expected)


def test_mixed_estimate_domain():
    fitted = FittedHypotheses(pi_hat=np.full(4, 0.9), k_hat=np.full(4, 0.5))
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError):
            reject(WORKED, t, mixed_fitted=fitted)
    # at t = 0 nothing is rejected and E(0) = 0: the estimate is its floor of one
    assert reject(WORKED, 0.0, mixed_fitted=fitted).fdp_hat == 1.0
    # at t = 1 every cutoff is 1: E(1) = sum(pi), without a floating-point warning
    with np.errstate(all="raise"):
        assert _expected_count(fitted, 1.0) == pytest.approx(3.6, rel=1e-15)
        assert reject(WORKED, 1.0, mixed_fitted=fitted).fdp_hat == 4 / 4


def test_expected_count_nondecreasing_in_t():
    # on [0, 1], endpoints included, as the selector's block screen
    # assumes; test_kernel checks one hypothesis's cutoff by hand
    rng = np.random.default_rng(41)
    fitted = FittedHypotheses(pi_hat=rng.uniform(0.1, 0.99, 50), k_hat=rng.uniform(0.2, 0.8, 50))
    counts = [_expected_count(fitted, t) for t in np.linspace(0.0, 1.0, 101)]
    assert np.all(np.diff(counts) >= 0.0)


def test_mixed_select_keeps_a_candidate_on_the_mirror_bound():
    # at t = 0.7 the mirror ratio is 2 / 4, exactly the level, and the
    # expected count (below sum pi = 0.04) does not raise it
    fitted = FittedHypotheses(pi_hat=np.full(4, 0.01), k_hat=np.full(4, 0.5))
    assert select_threshold(WORKED, 0.5, mixed_fitted=fitted) == 0.7


def test_reject_with_mixed_estimate_reports_its_fdp():
    rng = np.random.default_rng(37)
    m = 400
    fitted = FittedHypotheses(pi_hat=rng.uniform(0.3, 0.95, m), k_hat=rng.uniform(0.3, 0.9, m))
    p = np.where(rng.random(m) < 0.2, rng.uniform(0, 0.01, m), rng.random(m))
    stats = mirror_statistics(p, fitted)
    t_hat = select_threshold(stats, 0.3, mixed_fitted=fitted)
    if t_hat > 0.0:
        result = reject(stats, t_hat, mixed_fitted=fitted)
        est = max(1.0, _expected_count(fitted, t_hat), float(np.count_nonzero(stats.r < t_hat)))
        assert result.fdp_hat == est / max(1, result.n_rejections)
        assert result.fdp_hat <= 0.3


def _count_builds(monkeypatch, cls, name):
    """Patch the cached property cls.name to note each build, the size
    of the record it builds for, in the returned list."""
    build = cls.__dict__[name].func
    builds = []

    def counted(self):
        value = build(self)
        builds.append(value[0].size)
        return value

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return builds


def test_a_mixed_select_is_select_threshold_then_reject():
    # CamtFit.select with mixed=True is the two public calls with the fit
    # as mixed_fitted, and at t = 0 the mixed estimate reads 1 with E(0) = 0
    data = generate(SimulationConfig(setup="S0", m=3000, seed=7), 0)
    state = fit_camt(data.pvals, data.covariates)
    assert _expected_count(state.fitted, 0.0) == 0.0
    assert reject(state.stats, 0.0, mixed_fitted=state.fitted).fdp_hat == 1.0
    for alpha in (0.05, 0.1, 0.2):
        got = state.select(alpha, mixed=True)
        assert got.t_hat > 0.0
        t_hat = select_threshold(state.stats, alpha, mixed_fitted=state.fitted)
        want = reject(state.stats, t_hat, mixed_fitted=state.fitted)
        assert (got.t_hat, got.n_rejections, got.fdp_hat) == (
            want.t_hat,
            want.n_rejections,
            want.fdp_hat,
        )
        assert np.array_equal(got.rejected, want.rejected)


def test_a_complete_null_mixed_selection_evaluates_no_expected_count(monkeypatch):
    # no candidate survives the mirror screen, so the selection rejects
    # nothing at t_hat = 0, where the estimate reads 1 without E(t)
    data = generate(SimulationConfig(setup="complete-null", m=2000, seed=0), 0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "EM did not converge", RuntimeWarning)
        state = fit_camt(data.pvals, data.covariates)
    evaluated = []

    def counted(fitted, t):
        evaluated.append(t)
        return _expected_count(fitted, t)

    monkeypatch.setattr("camt.threshold._expected_count", counted)
    got = state.select(0.05, mixed=True)
    assert (got.t_hat, got.n_rejections, got.fdp_hat) == (0.0, 0, 1.0)
    assert evaluated == []


def test_the_statistics_are_sorted_once_per_fit(monkeypatch):
    # every selection, plain or mixed and at any level, reads the sorted
    # candidates its MirrorStatistics built at the first one
    builds = _count_builds(monkeypatch, MirrorStatistics, "_candidates")
    data = generate(SimulationConfig(setup="S0", m=2000, seed=5), 0)
    state = fit_camt(data.pvals, data.covariates)
    assert builds == []
    for alpha in (0.05, 0.2):
        for mixed in (False, True):
            state.select(alpha, mixed=mixed)
    select_threshold(state.stats, 0.1)
    assert len(builds) == 1 and builds[0] == np.count_nonzero(state.stats.s <= state.stats.t_up)


# ----------------------------------------------------------------------
# properties of the selector


def _reference_select_mixed(stats, alpha, fitted):
    """The all-candidates mixed selector: E(t) at every candidate at once."""
    s_sorted = np.sort(stats.s)
    r_sorted = np.sort(stats.r)
    candidates = s_sorted[s_sorted <= stats.t_up]
    if candidates.size == 0:
        return 0.0
    den = np.searchsorted(s_sorted, candidates, side="right")
    num = np.searchsorted(r_sorted, candidates, side="left")
    pi, k = fitted.pi_hat, fitted.k_hat
    log_pref = np.log1p(-k) + np.log1p(-pi) - np.log(pi)
    inv_k = 1.0 / k
    logit_t = np.log(candidates) - np.log1p(-candidates)
    expected = np.empty(candidates.size)
    chunk = max(1, int(4_000_000 // max(1, pi.size)))
    for lo in range(0, candidates.size, chunk):
        logc = (logit_t[lo : lo + chunk, None] + log_pref[None, :]) * inv_k[None, :]
        np.minimum(logc, 0.0, out=logc)
        expected[lo : lo + chunk] = np.exp(logc) @ pi
    admissible = np.maximum(np.maximum(1.0, expected), num) / np.maximum(1, den) <= alpha
    if not admissible.any():
        return 0.0
    return float(candidates[admissible].max())


@st.composite
def _pvalues_and_fits(draw, rounding=False):
    """P-values and fits with ties, p = 0.5 and m up to 500; with
    rounding, some draws put hypotheses on a fit where psi rounds to 1.0
    for every p-value from 0.44 to 0.56."""
    m = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # one shared fit: tied p-values give tied statistics
        pi = np.full(m, rng.uniform(0.01, 0.999))
        k = np.full(m, rng.uniform(0.01, 0.99))
    else:
        pi = rng.uniform(0.01, 0.999, m)
        k = rng.uniform(0.01, 0.99, m)
    signal = rng.random(m) < draw(st.floats(0.0, 1.0))
    p = np.where(signal, rng.uniform(0.0, 0.01, m), rng.random(m))
    if draw(st.booleans()):
        p = np.round(p, 2)  # ties, exact zeros and ones
    p[rng.random(m) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.5
    if rounding:
        extreme = rng.random(m) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        pi[extreme], k[extreme] = 1.0 - 1e-5, 1.0 - 2.4e-12
    return p, FittedHypotheses(pi_hat=pi, k_hat=k)


@st.composite
def _instances(draw):
    """Mirror statistics and fits from :func:`_pvalues_and_fits`."""
    p, fitted = draw(_pvalues_and_fits())
    return mirror_statistics(p, fitted), fitted


# simple fractions let mirror ratios such as 1/5 hit the level exactly
_alphas = st.one_of(
    st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0, exclude_min=True)
)


@settings(max_examples=150, deadline=None)
@given(_instances(), _alphas)
def test_mixed_select_matches_all_candidates_reference(instance, alpha):
    stats, fitted = instance
    t_hat = select_threshold(stats, alpha, mixed_fitted=fitted)
    assert t_hat == _reference_select_mixed(stats, alpha, fitted)
    assert t_hat <= stats.t_up
    # and, bit for bit, the largest candidate whose reported estimate is
    # admissible
    admitted = [
        t
        for t in stats.s[stats.s <= stats.t_up]
        if reject(stats, t, mixed_fitted=fitted).fdp_hat <= alpha
    ]
    assert t_hat == max(admitted, default=0.0)
    if t_hat > 0.0:
        assert reject(stats, t_hat, mixed_fitted=fitted).fdp_hat <= alpha


def test_mixed_select_skips_blocks_that_cannot_be_admissible(monkeypatch):
    # no mirror statistic is small, so the screen max(1, #{r_i < t}) /
    # #{s_i <= t} <= alpha passes every candidate with at least 1 / alpha
    # = 1e4 rejections, over 9000 of them, but none is admissible at this
    # level: the scan may not pay an expected-count evaluation per candidate
    rng = np.random.default_rng(7)
    m = 20_000
    fitted = FittedHypotheses(pi_hat=rng.uniform(0.5, 0.99, m), k_hat=rng.uniform(0.3, 0.9, m))
    stats = mirror_statistics(rng.uniform(0.0, 1e-3, m), fitted)
    evaluated = []

    def counted(fitted, t):
        evaluated.append(t)
        return _expected_count(fitted, t)

    monkeypatch.setattr("camt.threshold._expected_count", counted)
    t_hat = select_threshold(stats, 1e-4, mixed_fitted=fitted)
    candidates = int(np.count_nonzero(stats.s <= stats.t_up))
    assert candidates > 15_000
    assert not np.any(stats.r < stats.t_up)
    assert 0 < len(evaluated) < candidates // 100
    assert t_hat == _reference_select_mixed(stats, 1e-4, fitted) == 0.0


def test_mixed_select_block_skip_keeps_the_reference_threshold():
    # larger m and signal strengths spread over five decades put the
    # first admissible candidate inside blocks of many candidates, where
    # a skip bound that is not sound would lose it
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(50, 3000))
        pi, k = rng.uniform(0.3, 0.99, m), rng.uniform(0.05, 0.95, m)
        fitted = FittedHypotheses(pi_hat=pi, k_hat=k)
        signal = rng.random(m) < rng.uniform(0.0, 0.5)
        p = np.where(signal, rng.uniform(0.0, 10 ** rng.uniform(-6, -1), m), rng.random(m))
        stats = mirror_statistics(p, fitted)
        for alpha in (0.01, 0.05, 0.1, 0.2):
            t_hat = select_threshold(stats, alpha, mixed_fitted=fitted)
            assert t_hat == _reference_select_mixed(stats, alpha, fitted)


@settings(max_examples=100, deadline=None)
@given(_instances(), _alphas, _alphas, st.booleans())
def test_rejection_sets_are_nested_in_alpha(instance, a1, a2, mixed):
    stats, fitted = instance
    mixed_fitted = fitted if mixed else None
    lo, hi = sorted((a1, a2))
    small = stats.s <= select_threshold(stats, lo, mixed_fitted=mixed_fitted)
    large = stats.s <= select_threshold(stats, hi, mixed_fitted=mixed_fitted)
    assert np.all(large[small])


@settings(max_examples=100, deadline=None)
@given(_instances(), _alphas, st.booleans(), st.integers(0, 2**32 - 1))
def test_permuting_hypotheses_permutes_the_mask(instance, alpha, mixed, seed):
    stats, fitted = instance
    perm = np.random.default_rng(seed).permutation(stats.s.size)
    shuffled_fit = FittedHypotheses(pi_hat=fitted.pi_hat[perm], k_hat=fitted.k_hat[perm])
    shuffled = MirrorStatistics(s=stats.s[perm], r=stats.r[perm], t_up=stats.t_up)
    t_hat = select_threshold(stats, alpha, mixed_fitted=fitted if mixed else None)
    t_perm = select_threshold(shuffled, alpha, mixed_fitted=shuffled_fit if mixed else None)
    assert t_perm == t_hat
    assert t_hat <= stats.t_up
    assert np.array_equal(reject(shuffled, t_perm).rejected, reject(stats, t_hat).rejected[perm])


@settings(max_examples=150, deadline=None)
@given(_pvalues_and_fits(rounding=True), st.floats(0.0, 1.0))
def test_each_hypothesis_enters_at_most_one_count(instance, t):
    p, fitted = instance
    stats = mirror_statistics(p, fitted)
    assert not np.any(np.isfinite(stats.s) & np.isfinite(stats.r))
    result = reject(stats, t)
    assert np.array_equal(result.rejected, stats.s <= t)
    mirrors = np.count_nonzero(stats.r < t)
    assert result.fdp_hat == (1 + mirrors) / max(1, result.n_rejections)
    if t <= stats.t_up:
        # the reference: psi at the p-value and at its reflection for
        # every hypothesis, each count over its side of one half
        q = clamp_pvalues(p)
        s = psi(q, fitted.pi_hat, fitted.k_hat)
        r = psi(1.0 - q, fitted.pi_hat, fitted.k_hat)
        assert result.n_rejections == np.count_nonzero((s <= t) & (p < 0.5))
        assert mirrors == np.count_nonzero((r < t) & (p > 0.5))
        if t < stats.t_up:  # below the cap no side needs naming
            assert result.n_rejections == np.count_nonzero(s <= t)
            assert mirrors == np.count_nonzero(r < t)
