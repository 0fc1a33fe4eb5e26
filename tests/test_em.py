"""Tests for the EM estimator: likelihood values, the E and M steps that
fit runs, the full fit, and its invariances."""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize
from scipy.special import expit, logit

import camt.em
from camt.em import (
    CHOLESKY_MAX_D,
    COEF_BOUND,
    INIT_PI,
    INNER_MAX_ITER,
    K_CLIP,
    MAX_HALVINGS,
    MAX_ITER,
    REL_TOL,
    CoefVector,
    CovariateError,
    EmTrace,
    FitResult,
    FittedHypotheses,
    build_design,
    fit,
    loglik,
    loglik_grad,
)
from camt.em import (
    _beta_share,
    _cholesky_direction,
    _exp_neg_abs,
    _gram,
    _link,
    _links,
    _loglik_gamma,
    _m_step,
    _maximize,
    _prepare,
    _solve_ascent_direction,
    _theta_share,
)
from camt.kernel import clamp_pvalues, psi, winsorize
from camt.pipeline import run_camt
from camt.simulation import SimulationConfig, generate
from camt.threshold import mirror_statistics, reject, select_threshold


def _mixture_draw(theta_true, beta_true, m, seed):
    """P-values drawn exactly from the surrogate mixture model."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m)
    X = np.column_stack([np.ones(m), x])
    pi = expit(X @ theta_true)
    k = expit(X @ beta_true)
    is_alt = rng.random(m) >= pi
    u = rng.random(m)
    p = np.where(is_alt, u ** (1.0 / (1.0 - k)), u)
    return X, p


def _posterior(params, design, pvals):
    """Posterior signal probabilities gamma, as fit's E-step forms them."""
    X, neg_logp = _prepare(design, pvals)
    return _loglik_gamma(_links(params.theta, params.beta, X), neg_logp)[1]


def _one_m_step(gamma, params, design, pvals):
    """The coefficients one of fit's M-steps moves params to, holding gamma fixed."""
    X, neg_logp = _prepare(design, pvals)
    links = _links(params.theta, params.beta, X)
    trace = EmTrace(loglik=[], n_iter=0, converged=False)
    gamma = np.asarray(gamma, dtype=float)
    theta, beta = _m_step(params.theta, params.beta, links, X, _gram(X), gamma, neg_logp, trace)
    return CoefVector(theta=theta, beta=beta)


# ----------------------------------------------------------------------
# loglik


def test_loglik_covariate_free_reduction():
    m = 37
    X = np.column_stack([np.ones(m), np.linspace(-2, 2, m)])
    params = CoefVector(theta=np.array([1.2, 0.0]), beta=np.array([0.4, 0.0]))
    p = np.full(m, np.exp(-1.0))
    pi = expit(1.2)
    k = expit(0.4)
    expected = m * np.log(pi + (1.0 - pi) * (1.0 - k) * np.exp(k))
    assert loglik(params, X, p) == pytest.approx(expected, rel=1e-10)


def test_loglik_three_term_value():
    # frozen from a 50-digit term-by-term summation
    X = np.array([[1.0, 0.5], [1.0, -1.0], [1.0, 2.0]])
    p = np.array([0.02, 0.4, 0.9])
    params = CoefVector(theta=np.array([1.2, -0.7]), beta=np.array([0.3, 0.5]))
    assert loglik(params, X, p) == pytest.approx(0.1276801357373056, rel=1e-12)


def test_loglik_dimension_mismatch():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    params = CoefVector(theta=np.zeros(2), beta=np.zeros(2))
    with pytest.raises(ValueError):
        loglik(params, X, np.array([0.1, 0.2]))


def test_fit_never_ends_below_its_start():
    X, p = _mixture_draw(np.array([2.0, 0.5]), np.array([0.8, 0.3]), 2_000, 11)
    result = fit(X, p)
    assert result.trace.loglik[-1] >= result.trace.loglik[0]
    assert loglik(result.coef, X, p) == result.trace.loglik[-1]


# ----------------------------------------------------------------------
# E-step


def test_e_step_at_p_equal_one():
    X = np.array([[1.0, 0.7], [1.0, -0.2]])
    params = CoefVector(theta=np.array([0.9, 0.4]), beta=np.array([-0.3, 0.6]))
    gamma = _posterior(params, X, np.ones(2))
    pi = expit(X @ params.theta)
    k = expit(X @ params.beta)
    expected = (1.0 - pi) * (1.0 - k) / (pi + (1.0 - pi) * (1.0 - k))
    assert gamma == pytest.approx(expected, rel=1e-12)


def test_e_step_complements_psi():
    rng = np.random.default_rng(21)
    m = 500
    X = np.column_stack([np.ones(m), rng.standard_normal(m)])
    params = CoefVector(theta=np.array([1.5, -0.8]), beta=np.array([0.2, 0.5]))
    p = rng.uniform(0.0, 1.0, m)
    gamma = _posterior(params, X, p)
    pi = expit(X @ params.theta)
    k = expit(X @ params.beta)
    assert np.allclose(gamma + psi(clamp_pvalues(p), pi, k), 1.0, atol=1e-12)
    assert np.all((gamma > 0.0) & (gamma < 1.0))


def test_e_step_four_point_posterior():
    # frozen from a 50-digit Bayes computation
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [1.0, 0.3]])
    p = np.array([0.001, 0.2, 0.6, 0.97])
    params = CoefVector(theta=np.array([2.0, 1.0]), beta=np.array([-0.4, 0.8]))
    expected = np.array(
        [
            0.5644278679453621,
            0.04976182052613918,
            0.24139639703342222,
            0.05203850568878648,
        ]
    )
    assert _posterior(params, X, p) == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------
# M-step


def test_m_step_zero_gamma_drives_theta_to_the_box():
    rng = np.random.default_rng(0)
    m = 60
    X = np.column_stack([np.ones(m), rng.standard_normal(m)])
    p = rng.uniform(0.01, 0.99, m)
    params = CoefVector(theta=np.array([logit(0.9), 0.0]), beta=np.zeros(2))
    new = _one_m_step(np.zeros(m), params, X, p)
    assert new.theta[0] == 15.0  # the coefficient bound
    assert np.array_equal(new.beta, np.zeros(2))  # zero weights leave beta


def test_newton_step_equals_weighted_least_squares():
    X = np.array([[1.0, -1.2], [1.0, 0.3], [1.0, 0.8], [1.0, 2.0], [1.0, -0.5]])
    y = np.array([0.9, 0.7, 0.4, 0.1, 0.8])
    theta0 = np.array([0.2, -0.3])
    u = X @ theta0
    piv = expit(u)
    w = piv * (1.0 - piv)
    grad = X.T @ (y - piv)
    neg_hess = X.T @ (X * w[:, None])
    # closed-form weighted least squares on the working response
    z = u + (y - piv) / w
    wls = np.linalg.solve(neg_hess, X.T @ (w * z))
    direction = _solve_ascent_direction(neg_hess, grad)
    assert np.allclose(theta0 + direction, wls, rtol=1e-10, atol=1e-12)


def _eigh_direction(neg_hess, grad):
    """The eigh path of _solve_ascent_direction, the one every d above
    CHOLESKY_MAX_D takes."""
    with mock.patch.object(camt.em, "CHOLESKY_MAX_D", 0):
        return _solve_ascent_direction(neg_hess, grad)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, CHOLESKY_MAX_D),
    st.integers(0, 2**32 - 1),
    st.floats(-150.0, 150.0),
)
def test_cholesky_direction_equals_the_pseudo_inverse_direction(d, seed, log_scale):
    # -H = Q diag(lambda) Q.T with a condition number of at most 100,
    # scaled anywhere from 1e-150 to 1e150
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    neg_hess = (q * 10.0 ** rng.uniform(0.0, 2.0, d)) @ q.T * 10.0**log_scale
    neg_hess = (neg_hess + neg_hess.T) / 2.0
    grad = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
    assert _cholesky_direction(neg_hess, grad) is not None
    got = _solve_ascent_direction(neg_hess, grad)
    want = _eigh_direction(neg_hess, grad)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _duplicated_column_hessian():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(50)
    X = np.column_stack([np.ones(50), x, x])
    return X.T @ (X * rng.uniform(0.1, 1.0, 50)[:, None])


_REFUSED = {
    "indefinite": np.array([[2.0, 1.0], [1.0, -0.5]]),
    "negative-definite": -np.eye(3),
    "zero": np.zeros((2, 2)),
    "singular": _duplicated_column_hessian(),
    # lambda_min = 1e-13 lambda_max: every pivot is positive, the
    # certificate fails, and eigh drops the smaller direction
    "near-singular": np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]),
    "nan": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "inf-diagonal": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "minus-inf": np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
    "above-the-constant": np.eye(CHOLESKY_MAX_D + 1) + 0.1,
}


@pytest.mark.parametrize("name", list(_REFUSED))
def test_direction_outside_the_cholesky_certificate_is_the_eigh_paths(name):
    neg_hess = _REFUSED[name]
    grad = np.linspace(-1.0, 2.0, neg_hess.shape[0])
    if neg_hess.shape[0] <= CHOLESKY_MAX_D:
        assert _cholesky_direction(neg_hess, grad) is None
    got = _solve_ascent_direction(neg_hess, grad)
    want = _eigh_direction(neg_hess, grad)
    if want is None:
        assert got is None
    else:
        assert got.tobytes() == want.tobytes()


@st.composite
def _design_and_weights(draw):
    """An intercept-first design of 1-200 rows and 1-8 columns, and
    weights of both signs with zeros among them."""
    m = draw(st.integers(1, 200))
    d = draw(st.integers(1, 8))
    X = np.ones((m, d))
    X[:, 1:] = draw(arrays(float, (m, d - 1), elements=st.floats(-1e3, 1e3)))
    w = draw(arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(-1e3, 1e3))))
    return X, w


@settings(max_examples=300, deadline=None)
@given(_design_and_weights())
@example((np.ones((1, 1)), np.array([-2.0])))
@example((np.array([[1.0, 1.0], [1.0, 1.0 + 1e-8]]), np.array([0.3, -0.3])))
@example((np.array([[1.0, 1.5]]), np.array([5e-324])))
@example((np.array([[1.0, 1.5, 7.0]]), np.array([5e-324])))
@example((np.array([[1.0, 1.6e-162, 1.6e-162]]), np.array([1e3])))
def test_gram_matches_the_weighted_product(case):
    X, w = case
    got = _gram(np.asfortranarray(X))(w)
    assert np.array_equal(got, got.T)
    want = (X.T * w) @ X
    # the two forms round w_r x_ri x_rj in different orders, so they
    # agree relative to the sum of magnitudes, the largest entry of
    # X.T diag(|w|) X; the signed entries can cancel to near 0 (the
    # second example differs by 7e-9 relative to its own largest entry).
    # Below the normal range a rounding errs by up to half the smallest
    # subnormal whatever the magnitude, and the first rounding of a term
    # is then multiplied by its second factor: x_rj for (w_r x_ri) x_rj,
    # w_r for (x_ri x_rj) w_r. So a term's two forms differ by at most one
    # smallest subnormal times 1 + max(|x|, |w|) (the third example's
    # corner entry reads 1e-323 one way, 1.5e-323 the other; the fourth's
    # (1, 2) entry 4.9e-323 against 6.9e-323; the fifth's 4.9e-321
    # against 2.6e-321, where x_1 x_2 underflows before w_r = 1e3 scales it)
    scale = np.abs((X.T * np.abs(w)) @ X).max()
    factor = 1.0 + max(np.abs(X).max(), np.abs(w).max())
    floor = X.shape[0] * factor * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - want) <= 1e-12 * scale + floor)


def test_beta_ascent_falls_back_to_the_gradient_where_the_hessian_is_indefinite():
    # tiny p-values with k far below its fit: -H is not PSD at the start
    rng = np.random.default_rng(0)
    m = 200
    X = np.column_stack([np.ones(m), rng.standard_normal(m)])
    neg_logp = -np.log(10.0 ** rng.uniform(-12.0, -6.0, m))
    share = _beta_share(np.ones(m), neg_logp, X)
    start = np.array([-3.0, 0.0])
    trace = EmTrace(loglik=[], n_iter=0, converged=False)
    links = {"k": _link(X @ start)}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        beta = _maximize(start, links, "k", X, _gram(X), share, trace)
    link = links["k"]
    assert trace.gradient_fallbacks >= 1
    assert trace.line_search_halvings >= 1
    assert share(beta, link)[0] >= share(start, _link(X @ start))[0]
    for got, want in zip(link, _link(X @ beta)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("key", ["pi", "k"])
def test_ascent_whose_every_halving_fails_rebuilds_the_starting_link(key):
    # the link at coef is dropped once a step's direction is formed; when
    # no candidate is accepted it is rebuilt, and must equal, bit for bit,
    # the link the step started from
    X, p = _mixture_draw(np.array([1.8, 0.6]), np.array([0.9, 0.4]), 1_000, 3)
    X, neg_logp = _prepare(X, p)
    theta, beta = np.array([logit(INIT_PI), 0.0]), np.zeros(2)
    links = _links(theta, beta, X)
    gamma = _loglik_gamma(links, neg_logp)[1]
    start = theta if key == "pi" else beta
    real = _theta_share(1.0 - gamma, X) if key == "pi" else _beta_share(gamma, neg_logp, X)
    calls = []

    def refusing(coef, link):
        """The real share at the starting link, -inf at every candidate."""
        value, gradient, curv = real(coef, link)
        calls.append(link.p.size)
        return (value if len(calls) == 1 else -math.inf), gradient, curv

    trace = EmTrace(loglik=[], n_iter=0, converged=False)
    got = _maximize(start.copy(), links, key, X, _gram(X), refusing, trace)
    assert got.tobytes() == start.tobytes()
    assert len(calls) == MAX_HALVINGS + 2
    assert trace.line_search_halvings == MAX_HALVINGS + 1
    assert trace.newton_steps + trace.gradient_fallbacks == 1
    # one _link, with no flag, builds either link: three m-vectors
    want = _link(X @ start)
    for field, value in zip(want._fields, links[key]):
        assert value.shape == (X.shape[0],), field
        assert value.tobytes() == getattr(want, field).tobytes(), field


def test_m_step_does_not_decrease_the_complete_data_objective():
    X, p = _mixture_draw(np.array([1.8, 0.6]), np.array([0.9, 0.4]), 1_000, 3)
    params = CoefVector(theta=np.array([logit(0.9), 0.0]), beta=np.zeros(2))
    gamma = _posterior(params, X, p)
    logp = np.log(clamp_pvalues(p))

    def q_objective(coef):
        u_pi = X @ coef.theta
        u_k = X @ coef.beta
        y = 1.0 - gamma
        part_pi = -(y @ np.logaddexp(0.0, -u_pi) + gamma @ np.logaddexp(0.0, u_pi))
        part_k = -(gamma @ (np.logaddexp(0.0, u_k) + expit(u_k) * logp))
        return part_pi + part_k

    new = _one_m_step(gamma, params, X, p)
    assert q_objective(new) >= q_objective(params) - 1e-10


# ----------------------------------------------------------------------
# gradient


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(0, 1), (0, 2), (0, 3), (0, 4), (3, 1), (3, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_analytic_gradient_matches_finite_differences(knots_and_columns, seed):
    # d from 2 to 5: 1 to 4 raw covariates (d = 1 + q) or 3-knot spline
    # bases of 1 or 2 covariates (d = 1 + 2q), p-values from the mixture
    # at random coefficients, the gradient at other random coefficients
    knots, q = knots_and_columns
    rng = np.random.default_rng(seed)
    m = 300
    X = build_design(rng.standard_normal((m, q)), spline_knots=knots)
    d = X.shape[1]
    theta_true = np.concatenate([[2.0], rng.normal(0.0, 0.7, d - 1)])
    beta_true = np.concatenate([[0.5], rng.normal(0.0, 0.6, d - 1)])
    alt = rng.random(m) >= expit(X @ theta_true)
    u = rng.random(m)
    p = np.where(alt, u ** (1.0 / (1.0 - expit(X @ beta_true))), u)
    theta = rng.normal(0.0, 1.5, d)
    beta = rng.normal(0.0, 1.0, d)
    analytic = np.concatenate(loglik_grad(CoefVector(theta=theta, beta=beta), X, p))
    step = 1e-6
    fd = np.empty(2 * d)
    for j in range(2 * d):
        delta = np.zeros(2 * d)
        delta[j] = step
        up = CoefVector(theta=theta + delta[:d], beta=beta + delta[d:])
        dn = CoefVector(theta=theta - delta[:d], beta=beta - delta[d:])
        fd[j] = (loglik(up, X, p) - loglik(dn, X, p)) / (2.0 * step)
    rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-10)
    assert rel < 1e-4


# ----------------------------------------------------------------------
# fit


def test_fit_monotone_loglik_trace():
    for seed in range(5):
        X, p = _mixture_draw(np.array([2.2, -0.4]), np.array([0.7, 0.5]), 400, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit(X, p)
        assert np.all(np.diff(result.trace.loglik) >= -1e-10)


def test_fit_duplicated_column_gives_identical_fitted_values():
    rng = np.random.default_rng(31)
    m = 4_000
    x = rng.standard_normal(m)
    cfg = SimulationConfig(setup="S0", m=m, eta0=2.0, k_d=1.0, k_s=2.4,
                           n_replicates=1, seed=31)
    p = generate(cfg, 0).pvals
    single = fit(build_design(x), p)
    doubled = fit(build_design(np.column_stack([x, x])), p)
    assert np.max(np.abs(single.fitted.pi_hat - doubled.fitted.pi_hat)) < 1e-6
    assert np.max(np.abs(single.fitted.k_hat - doubled.fitted.k_hat)) < 1e-6


def test_fit_affine_recoding_of_a_covariate_changes_nothing():
    cfg = SimulationConfig(setup="S0", m=5_000, eta0=2.5, k_d=1.0, k_s=2.4,
                           n_replicates=1, seed=13)
    data = generate(cfg, 0)
    x = data.covariates[:, 0]
    base = fit(build_design(x), data.pvals)
    recoded = fit(build_design(3.0 - 2.0 * x), data.pvals)
    assert np.max(np.abs(base.fitted.pi_hat - recoded.fitted.pi_hat)) < 1e-6
    assert np.max(np.abs(base.fitted.k_hat - recoded.fitted.k_hat)) < 1e-6


def test_fit_uninformative_covariate_coefficient_is_zero():
    # covariate-free truth: the slope estimate should center on zero
    thetas = []
    for r in range(20):
        cfg = SimulationConfig(setup="S0", m=5_000, eta0=2.5, k_d=0.0, k_s=2.4,
                               n_replicates=1, seed=210)
        data = generate(cfg, r)
        result = fit(build_design(data.covariates), data.pvals)
        thetas.append(result.coef.theta[1])
    thetas = np.array(thetas)
    se = thetas.std(ddof=1) / np.sqrt(thetas.size)
    assert abs(thetas.mean()) <= 3.0 * se


def test_fit_recovers_the_generating_parameters():
    theta_true = np.array([2.0, 0.8])
    beta_true = np.array([1.0, 0.5])
    coefs = []
    for r in range(6):
        X, p = _mixture_draw(theta_true, beta_true, 100_000, 2_000 + r)
        result = fit(X, p)
        coefs.append(np.concatenate([result.coef.theta, result.coef.beta]))
    coefs = np.array(coefs)
    truth = np.concatenate([theta_true, beta_true])
    mean = coefs.mean(axis=0)
    se = coefs.std(axis=0, ddof=1) / np.sqrt(coefs.shape[0])
    assert np.all(np.abs(mean - truth) <= 3.0 * se)


def test_fit_is_deterministic():
    X, p = _mixture_draw(np.array([2.0, 0.5]), np.array([0.8, 0.4]), 3_000, 8)
    a = fit(X, p)
    b = fit(X, p)
    assert np.array_equal(a.coef.theta, b.coef.theta)
    assert np.array_equal(a.coef.beta, b.coef.beta)
    assert np.array_equal(a.trace.loglik, b.trace.loglik)
    assert np.array_equal(a.fitted.pi_hat, b.fitted.pi_hat)
    assert np.array_equal(a.fitted.k_hat, b.fitted.k_hat)


def test_fit_outputs_respect_their_ranges():
    X, p = _mixture_draw(np.array([2.5, 1.0]), np.array([0.9, 0.6]), 5_000, 5)
    result = fit(X, p)
    assert result.fitted.pi_hat.min() >= 0.1
    assert result.fitted.pi_hat.max() <= 1.0 - 1e-5
    assert np.all((result.fitted.k_hat > 0.0) & (result.fitted.k_hat < 1.0))


def test_fit_warns_when_m_is_small():
    rng = np.random.default_rng(40)
    X = np.column_stack([np.ones(15), rng.standard_normal(15)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.warns(UserWarning, match="unstable"):
            fit(X, rng.uniform(0.01, 0.99, 15))


def test_fit_reports_nonconvergence():
    # tied p-values: the likelihood climbs towards pi = 0 by about 0.03 per
    # iteration, far above REL_TOL, through all MAX_ITER iterations
    with pytest.warns(RuntimeWarning, match=f"did not converge within {MAX_ITER} iterations"):
        result = fit(np.ones((500, 1)), np.full(500, 0.3))
    assert not result.trace.converged
    assert result.trace.n_iter == MAX_ITER
    assert result.trace.loglik.size == MAX_ITER + 1


# ----------------------------------------------------------------------
# fit contract: what fit reaches, not the path it takes, with scipy's
# L-BFGS-B in the +-COEF_BOUND box as the reference maximizer


def _projected_gradient(coef, design, p):
    """Largest |entry| of loglik_grad at coef, without the entries that
    push outward at the box, where a bound coefficient cannot move."""
    grad = np.concatenate(loglik_grad(coef, design, p))
    c = np.concatenate([coef.theta, coef.beta])
    outward = ((c >= COEF_BOUND) & (grad > 0.0)) | ((c <= -COEF_BOUND) & (grad < 0.0))
    return float(np.abs(np.where(outward, 0.0, grad)).max())


def _box_maximum(coef, design, p):
    """The log-likelihood L-BFGS-B reaches in the box from coef. A trial
    point where the mixture density underflows, where loglik raises, reads
    as -inf, so the line search backs off it."""
    d = design.shape[1]

    def objective(v):
        params = CoefVector(theta=v[:d], beta=v[d:])
        try:
            value = loglik(params, design, p)
        except ValueError:
            return np.inf, np.zeros(2 * d)
        return -value, -np.concatenate(loglik_grad(params, design, p))

    start = np.concatenate([coef.theta, coef.beta])
    bounds = [(-COEF_BOUND, COEF_BOUND)] * (2 * d)
    res = minimize(objective, start, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"ftol": 1e-15, "gtol": 1e-10})
    return -float(res.fun)


@pytest.mark.parametrize("m", [2000, 5000])
@pytest.mark.parametrize(
    "setup, k_f, knots",
    [("S0", 0.0, 0), ("S0", 0.0, 3), ("S0", 0.0, 4), ("S2", 0.0, 0), ("S2", 0.0, 3), ("S2", 1.0, 0)],
)
def test_fit_ends_at_a_stationary_point_near_the_box_maximum(setup, k_f, knots, m):
    # d from 2 to 5. Measured over seeds 0-2: the projected gradient read
    # 2.9e-5 m to 1.5e-4 m and the gap to the box maximum 0.0007-0.015
    # nats; EM cut to 3 iterations reads at least 8.9e-3 m and 5.4 nats.
    # S2 with k_f = 1 and 3 knots is left out: at m = 2000 (seed 2) EM
    # stops at MAX_ITER 0.11 nats short, the slow ascent a direct
    # maximizer is to remove; so is the complete null, whose maximum is a
    # ridge, not a point
    for seed in range(3):
        data = generate(SimulationConfig(setup=setup, m=m, k_f=k_f, seed=seed), 0)
        design = build_design(data.covariates, spline_knots=knots)
        result = fit(design, data.pvals)
        reached = loglik(result.coef, design, data.pvals)
        assert _projected_gradient(result.coef, design, data.pvals) <= 1e-3 * m
        assert _box_maximum(result.coef, design, data.pvals) - reached <= 0.05


# ----------------------------------------------------------------------
# design and validation


def test_build_design_shapes():
    rng = np.random.default_rng(50)
    x = rng.standard_normal((200, 2))
    design = build_design(x)
    assert design.shape == (200, 3)
    assert np.all(design[:, 0] == 1.0)
    spline = build_design(x[:, 0], spline_knots=6)
    assert spline.shape == (200, 6)  # intercept + identity + 4 curvature


def test_build_design_validation():
    with pytest.raises(ValueError):
        build_design(np.zeros((10, 1, 1)))
    with pytest.raises(ValueError):
        build_design(np.array([[1.0], [np.nan]]))
    with pytest.raises(ValueError):
        build_design(np.zeros((10, 1)), spline_knots=1)


@pytest.mark.parametrize("knots", [2.5, 3.9, 3.0, np.float64(3.0), True, "3", None], ids=repr)
def test_build_design_refuses_a_knot_count_that_is_not_an_integer(knots):
    # 2.5 used to build 3 columns on knots at the j / 3.5 quantiles; the
    # message says what is wrong with a count that lies between 2 and 20
    x = np.random.default_rng(54).standard_normal(200)
    message = f"spline_knots must be 0 or between 2 and 20, as an integer; got {knots!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_design(x, spline_knots=knots)
    assert build_design(x, spline_knots=np.int32(3)).shape == build_design(x, spline_knots=3).shape


def test_build_design_names_a_column_it_cannot_standardize():
    rng = np.random.default_rng(52)
    x = rng.random(500)
    with np.errstate(all="raise"):  # a clear error, no numpy overflow on the way
        with pytest.raises(CovariateError, match="covariate column 1: mean or standard") as err:
            build_design(np.column_stack([x, x * 1e300]))
    assert err.value.column == 1
    # still standardizes at scales whose variance is finite
    assert np.allclose(build_design(x * 1e150), build_design(x))
    with pytest.raises(CovariateError, match="covariate column 0"):
        run_camt(rng.random(500), x * 1e300)


def test_build_design_names_a_discrete_column_for_splines():
    rng = np.random.default_rng(53)
    # both have two distinct values; the balanced one's interpolated
    # knots 0, 0.5, 1 would not collide
    for binary in (np.arange(500) % 3 == 0, np.arange(500) % 2):
        x = np.column_stack([rng.standard_normal(500), binary])
        with pytest.raises(CovariateError) as err:
            build_design(x, spline_knots=3)
        assert err.value.column == 1
        assert str(err.value) == "covariate column 1: too few distinct values for a 3-knot spline basis"


def test_fit_rejects_design_without_intercept():
    rng = np.random.default_rng(51)
    X = rng.standard_normal((100, 2))
    with pytest.raises(ValueError, match="intercept"):
        fit(X, rng.uniform(0.01, 0.99, 100))


def test_fitted_hypotheses_validation():
    with pytest.raises(ValueError):
        FittedHypotheses(pi_hat=np.array([0.5]), k_hat=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        FittedHypotheses(pi_hat=np.array([1.0]), k_hat=np.array([0.5]))
    with pytest.raises(ValueError):
        FittedHypotheses(pi_hat=np.array([0.5]), k_hat=np.array([0.0]))


# ----------------------------------------------------------------------
# the fit loop before the updates carried their link values and the
# design went column-major, kept as the reference


def _sigmoid_pair(u, e):
    # the shared-exp sigmoid pair as camt.em computed it, out of place
    r = 1.0 + e
    np.divide(1.0, r, out=r)
    sign = np.sign(u)
    at_u = np.maximum(e, sign)
    at_u *= r
    np.negative(sign, out=sign)
    at_minus_u = np.maximum(e, sign, out=sign)
    at_minus_u *= r
    return at_u, at_minus_u


def _softplus(u, e):
    return np.maximum(u, 0.0) + np.log1p(e)


def _expit_pair(u, e):
    return expit(u), expit(-u)


def _theta_value_shared_exp(u, e, y, one_m_y):
    pos = np.maximum(u, 0.0)
    return -float(one_m_y @ pos + y @ (pos - u) + np.log1p(e).sum())


def _beta_value_shared_exp(u, e, k, gamma, logp):
    return -float(gamma @ (_softplus(u, e) + k * logp))


def _theta_value_logaddexp(u, e, y, one_m_y):
    return -float(y @ np.logaddexp(0.0, -u) + (1.0 - y) @ np.logaddexp(0.0, u))


def _beta_value_logaddexp(u, e, k, gamma, logp):
    return -float(gamma @ (np.logaddexp(0.0, u) + k * logp))


# (sigmoid pair, theta objective, beta objective)
_SHARED_EXP = (_sigmoid_pair, _theta_value_shared_exp, _beta_value_shared_exp)
_EXPIT_LOGADDEXP = (_expit_pair, _theta_value_logaddexp, _beta_value_logaddexp)


def _reference_fit(design, pvals, formulas):
    """camt.em.fit as it was before each update returned its link values:
    a C-ordered design, every E-step recomputing X @ coef and both
    sigmoid pairs, Hessians as X.T @ (X * w[:, None]), the objectives in
    their unfused forms. formulas picks the link arithmetic, one of
    _SHARED_EXP and _EXPIT_LOGADDEXP."""
    sigmoid_pair, theta_value, beta_value = formulas
    X = np.ascontiguousarray(design, dtype=float)
    logp = np.log(clamp_pvalues(pvals))

    def pieces(theta, beta):
        u_pi = X @ theta
        e_pi = _exp_neg_abs(u_pi)
        pi, one_m_pi = sigmoid_pair(u_pi, e_pi)
        u_k = X @ beta
        e_k = _exp_neg_abs(u_k)
        k, one_m_k = sigmoid_pair(u_k, e_k)
        h = one_m_k * np.exp(-k * logp)
        denom = pi + one_m_pi * h
        pc = (u_pi, e_pi, pi, one_m_pi, u_k, e_k, k, one_m_k)
        return float(np.log(denom).sum()), one_m_pi * h / denom, pc

    def ascend(coef, direction, objective, value):
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = np.clip(coef + step * direction, -COEF_BOUND, COEF_BOUND)
            val, state = objective(X @ cand)
            if np.isfinite(val) and val >= value:
                return cand, val, state
            step *= 0.5
        return coef, value, None

    def newton(coef, grad, neg_hess, objective, value):
        direction = _solve_ascent_direction(neg_hess, grad)
        if direction is None:
            direction = grad / np.max(np.abs(grad))
        return ascend(coef, direction, objective, value)

    def update_theta(theta, y, pc):
        one_m_y = 1.0 - y

        def obj(u):
            e = _exp_neg_abs(u)
            return theta_value(u, e, y, one_m_y), (u, e)

        u_pi, e_pi, piv, one_m_piv = pc[:4]
        value = theta_value(u_pi, e_pi, y, one_m_y)
        for _ in range(INNER_MAX_ITER):
            grad = X.T @ (y - piv)
            if np.max(np.abs(grad)) <= 1e-8 * X.shape[0]:
                break
            w = piv * one_m_piv
            theta_new, value, state = newton(theta, grad, X.T @ (X * w[:, None]), obj, value)
            moved = np.max(np.abs(theta_new - theta))
            theta = theta_new
            if state is None or moved < 1e-10:
                break
            piv, one_m_piv = sigmoid_pair(*state)
        return theta

    def update_beta(beta, gamma, pc):
        def obj(u):
            e = _exp_neg_abs(u)
            k, one_m_k = sigmoid_pair(u, e)
            return beta_value(u, e, k, gamma, logp), (k, one_m_k)

        u_k, e_k, k, one_m_k = pc[4:]
        value = beta_value(u_k, e_k, k, gamma, logp)
        for _ in range(INNER_MAX_ITER):
            grad = X.T @ (-gamma * k * (1.0 + one_m_k * logp))
            if np.max(np.abs(grad)) <= 1e-8 * X.shape[0]:
                break
            curv = gamma * k * one_m_k * (1.0 + (1.0 - 2.0 * k) * logp)
            beta_new, value, state = newton(beta, grad, X.T @ (X * curv[:, None]), obj, value)
            moved = np.max(np.abs(beta_new - beta))
            beta = beta_new
            if state is None or moved < 1e-10:
                break
            k, one_m_k = state
        return beta

    d = X.shape[1]
    theta = np.zeros(d)
    theta[0] = logit(INIT_PI)
    beta = np.zeros(d)
    ll, gamma, pc = pieces(theta, beta)
    trace_ll = [ll]
    converged = False
    n_iter = 0
    for _ in range(MAX_ITER):
        n_iter += 1
        theta_new = update_theta(theta.copy(), 1.0 - gamma, pc)
        beta_new = update_beta(beta.copy(), gamma, pc)
        ll_new, gamma, pc = pieces(theta_new, beta_new)
        trace_ll.append(ll_new)
        theta, beta = theta_new, beta_new
        if abs(ll_new - ll) < REL_TOL * max(1.0, abs(ll)):
            converged = True
            break
        ll = ll_new
    return FitResult(
        coef=CoefVector(theta=theta, beta=beta),
        fitted=FittedHypotheses(
            pi_hat=winsorize(pc[2]),
            k_hat=np.clip(pc[6], K_CLIP, 1.0 - K_CLIP),
        ),
        trace=EmTrace(
            loglik=np.asarray(trace_ll),
            n_iter=n_iter,
            converged=converged,
        ),
    )


def _rejections(result, pvals, alpha, mixed):
    stats = mirror_statistics(clamp_pvalues(pvals), result.fitted)
    mixed_fitted = result.fitted if mixed else None
    t_hat = select_threshold(stats, alpha, mixed_fitted=mixed_fitted)
    return reject(stats, t_hat, mixed_fitted=mixed_fitted).rejected


def _assert_same_fit(new, ref, pvals):
    """Same iterations, the same fit to rounding, the same rejections."""
    assert new.trace.n_iter == ref.trace.n_iter
    assert new.trace.converged and ref.trace.converged
    assert new.trace.loglik[-1] == pytest.approx(ref.trace.loglik[-1], rel=1e-12, abs=0.0)
    assert np.max(np.abs(new.fitted.pi_hat - ref.fitted.pi_hat)) <= 1e-9
    assert np.max(np.abs(new.fitted.k_hat - ref.fitted.k_hat)) <= 1e-9
    for alpha in (0.05, 0.1, 0.2):
        for mixed in (False, True):
            got = _rejections(new, pvals, alpha, mixed)
            assert np.array_equal(got, _rejections(ref, pvals, alpha, mixed))
            assert got.any()


@pytest.mark.parametrize(
    "setup, m, knots",
    [(s, 10_000, k) for s in ("S0", "S1", "S2", "S3.3") for k in (0, 3)]
    + [("S2", 50_000, 6)]
    # the shapes of the select-grid and cli benchmark workloads
    + [("S0", 30_000, 3), ("S0", 50_000, 0)],
)
def test_fit_matches_the_pre_change_loop(setup, m, knots):
    data = generate(SimulationConfig(setup=setup, m=m, seed=44), 0)
    design = build_design(data.covariates, spline_knots=knots)
    new = fit(design, data.pvals)
    _assert_same_fit(new, _reference_fit(design, data.pvals, _SHARED_EXP), data.pvals)


@pytest.mark.parametrize("knots", [0, 3])
@pytest.mark.parametrize("setup", ["S0", "S2"])
def test_fit_matches_the_expit_logaddexp_reference(setup, knots):
    # the pre-change loop with every link evaluated by scipy expit and
    # np.logaddexp, as before the shared exp(-|u|)
    data = generate(SimulationConfig(setup=setup, m=10_000, seed=44), 0)
    design = build_design(data.covariates, spline_knots=knots)
    new = fit(design, data.pvals)
    _assert_same_fit(new, _reference_fit(design, data.pvals, _EXPIT_LOGADDEXP), data.pvals)


def test_fit_does_not_depend_on_the_design_layout():
    data = generate(SimulationConfig(setup="S2", m=5_000, seed=45), 0)
    design = build_design(data.covariates, spline_knots=3)
    assert design.flags.f_contiguous
    d = design.shape[1]
    wide = np.empty((design.shape[0], 2 * d))
    wide[:, ::2] = design
    layouts = (np.ascontiguousarray(design), design, wide[:, ::2])
    assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
    base, *others = (fit(X, data.pvals) for X in layouts)
    for other in others:
        assert np.array_equal(other.coef.theta, base.coef.theta)
        assert np.array_equal(other.coef.beta, base.coef.beta)
        assert np.array_equal(other.trace.loglik, base.trace.loglik)
        assert np.array_equal(other.fitted.pi_hat, base.fitted.pi_hat)
        assert np.array_equal(other.fitted.k_hat, base.fitted.k_hat)


def _ulps(got, want):
    return np.max(np.abs(got - want) / np.spacing(np.abs(want)), initial=0.0)


_LINK_EDGES = (0.0, -0.0, 36.0, -36.0, 709.0, -709.0, 745.2, -745.2)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_LINK_EDGES), st.floats(-1e4, 1e4)),
        min_size=1,
        max_size=40,
    )
)
def test_shared_exp_helpers_match_expit_and_logaddexp(values):
    u = np.array(values)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        link = _link(u.copy())
        # the pi and k links at coefficient 1 of the one-column design u
        links = _links(np.ones(1), np.ones(1), u[:, None])
    normal_floor = np.finfo(float).tiny
    for got, want in zip(link[:2], (expit(u), expit(-u))):
        normal = want >= normal_floor
        assert _ulps(got[normal], want[normal]) <= 4
        assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-300)
    assert _ulps(link.sp, np.logaddexp(0.0, u)) <= 4
    # both links are the one _link's three m-vectors, bit for bit
    for key in ("pi", "k"):
        for got, want in zip(links[key], link):
            assert got.tobytes() == want.tobytes(), key


@st.composite
def _pi_share_case(draw):
    """An intercept-first design of 1-30 rows and 1-5 columns with
    entries in [-10, 10], soft null labels y in [0, 1] and theta in the
    coefficient box, so |u| <= 615 and expit(u) stays a normal float."""
    m = draw(st.integers(1, 30))
    d = draw(st.integers(1, 5))
    X = np.ones((m, d))
    X[:, 1:] = draw(arrays(float, (m, d - 1), elements=st.floats(-10.0, 10.0)))
    y = draw(arrays(float, m, elements=st.floats(0.0, 1.0)))
    theta = draw(arrays(float, d, elements=st.floats(-COEF_BOUND, COEF_BOUND)))
    return np.asfortranarray(X), y, theta


@settings(max_examples=300, deadline=None)
@given(_pi_share_case())
@example((np.ones((1, 1)), np.zeros(1), np.zeros(1)))
@example((np.asfortranarray([[1.0, 10.0], [1.0, -10.0]]), np.array([1.0, 0.0]), np.full(2, 15.0)))
def test_theta_share_matches_the_logaddexp_objective(case):
    # the pi share's value c . theta - sum(softplus(u)) and gradient
    # c - X.T @ pi, c = X.T @ y, against the objective written out row by
    # row and its gradient X.T @ (y - expit(u)); the two forms round in
    # different orders, so each agrees to 1e-12 relative to its sum of
    # magnitudes (plus, for the gradient, a few subnormal roundings of
    # products x_ij y_i that underflow)
    X, y, theta = case
    u = X @ theta
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        value, gradient, curv = _theta_share(y, X)(theta, _link(X @ theta))
        grad = gradient()
    want = -float(y @ np.logaddexp(0.0, -u) + (1.0 - y) @ np.logaddexp(0.0, u))
    scale = float(y @ np.abs(u) + np.logaddexp(0.0, u).sum())
    assert abs(value - want) <= 1e-12 * scale
    pi = expit(u)
    want_grad = X.T @ (y - pi)
    grad_scale = np.abs(X).T @ (y + pi)
    floor = 4 * X.shape[0] * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(grad - want_grad) <= 1e-12 * grad_scale + floor)
    assert np.allclose(curv(), pi * expit(-u), rtol=1e-12, atol=0.0)


def test_links_at_the_coefficient_box_raise_no_floating_point_warnings():
    rng = np.random.default_rng(0)
    m = 60
    X = np.column_stack([np.ones(m), rng.standard_normal(m)])
    p = rng.uniform(0.01, 0.99, m)
    # design values up to 100 put |u| at the box up to 1515, where
    # exp(-|u|) underflows to 0
    wide = np.column_stack([np.ones(m), rng.uniform(50.0, 100.0, m)])
    box = np.array([15.0, 15.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        start = CoefVector(theta=np.array([logit(0.9), 0.0]), beta=np.zeros(2))
        assert _one_m_step(np.zeros(m), start, X, p).theta[0] == 15.0
        for theta, beta in ((box, -box), (box, box), (-box, -box)):
            params = CoefVector(theta=theta, beta=beta)
            assert np.isfinite(loglik(params, wide, p))
            gamma = _posterior(params, wide, p)
            assert np.all(np.isfinite(gamma))
            assert all(np.all(np.isfinite(g)) for g in loglik_grad(params, wide, p))
            _one_m_step(gamma, params, wide, p)
        # p-values near 1 carry no signal: the fit drives k's intercept into the box
        n = 2_000
        design = np.column_stack([np.ones(n), rng.uniform(50.0, 100.0, n)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(design, rng.uniform(0.9, 1.0, n))
    assert result.trace.converged
    assert result.coef.beta[0] == -15.0
    assert result.trace.line_search_halvings >= 1  # candidates past the box lose


def test_likelihood_functions_refuse_rows_whose_density_underflows():
    rng = np.random.default_rng(0)
    m = 60
    p = rng.uniform(0.01, 0.99, m)
    # pi underflows to 0 and k rounds to 1 (so the alternative density
    # is 0) wherever the column is in [50, 100]; ten rows stay at 0
    wide = np.column_stack([np.ones(m), rng.uniform(50.0, 100.0, m)])
    wide[:10, 1] = 0.0
    params = CoefVector(theta=np.array([-15.0, -15.0]), beta=np.array([15.0, 15.0]))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for func in (loglik, _posterior, loglik_grad):
            with pytest.raises(ValueError, match="underflows to 0 on 50 of 60 rows"):
                func(params, wide, p)


def test_fit_counts_its_inner_steps():
    data = generate(SimulationConfig(setup="S0", m=5_000, seed=46), 0)
    design = build_design(data.covariates)
    first, second = (fit(design, data.pvals).trace for _ in range(2))
    counts = ("newton_steps", "line_search_halvings", "gradient_fallbacks")
    assert [getattr(first, c) for c in counts] == [getattr(second, c) for c in counts]
    assert first.newton_steps > 0
    # the counts default to zero, so a trace can be built without them
    bare = EmTrace(loglik=first.loglik, n_iter=1, converged=True)
    assert (bare.newton_steps, bare.line_search_halvings, bare.gradient_fallbacks) == (0, 0, 0)


@pytest.mark.parametrize("setup, knots, bound", [("S0", 0, 11.5), ("S2", 3, 20.5)])
def test_fit_holds_few_m_vectors(setup, knots, bound):
    # EM keeps -log p, gamma, three m-vectors per link and P, (d - 1)d/2
    # rows; on top of those, the k update's g and a candidate's link
    # while it is built, the link it would replace already dropped.
    # Measured 11.10 m-vectors at d = 2 (S0) and 20.11 at d = 5 (S2,
    # 3 knots), set by the k update: the pi update keeps c = X.T @ y, a
    # d-vector, in place of y and peaks one m-vector lower. The same
    # 11.10 and 20.11 while it kept y (the k update tied it), 12.05 and
    # 21.05 while the k link's slope and curvature each took a
    # temporary, 14.1 and 23.1 while the replaced link stayed alive
    # through the line search, 23.0 and 40.0 with a link of four
    # m-vectors, P of d(d + 1)/2 rows and the slope alive at candidates.
    m = 20_000
    data = generate(SimulationConfig(setup=setup, m=m, seed=44), 0)
    design = build_design(data.covariates, spline_knots=knots)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fit(design, data.pvals)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.trace.converged
    assert peak / (8 * m) <= bound
