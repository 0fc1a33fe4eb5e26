"""EM estimation of per-hypothesis null probabilities and beta shapes.

The marginal model for a p-value p_i with covariate row x_i is the
two-group mixture

    pi_i + (1 - pi_i) * (1 - k_i) * p_i ** (-k_i),

where both mixture ingredients are tied to the covariates through
logistic links: logit(pi_i) = theta' x_i and logit(k_i) = beta' x_i,
with x_i including an intercept. The log-likelihood is maximized by EM:
the E-step computes the posterior probability gamma_i that hypothesis i
is a signal, the M-step solves one weighted logistic regression for
theta and one damped Newton ascent for beta. Every M-step move is
accepted only if it does not decrease its objective, which makes the
observed-data log-likelihood monotone along the iteration.

Each link vector u = X @ coef costs one exponential, e = exp(-|u|):
expit(u), expit(-u) and softplus(u) = log(1 + exp(u)) are all cheap
arithmetic on e, and none of them can overflow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import logit

from .kernel import EPS1_DEFAULT, EPS2_DEFAULT, clamp_pvalues, winsorize
from .splines import spline_basis

# Fitted k values are pulled off the exact endpoints so that downstream
# formulas with 1/k and log(1-k) stay finite.
K_CLIP = 1e-12


class CovariateError(ValueError):
    """A covariate column the design cannot use; column is its index."""

    def __init__(self, column, reason):
        super().__init__(f"covariate column {column}: {reason}")
        self.column = column
        self.reason = reason


@dataclass
class EmConfig:
    """Tuning knobs for :func:`fit`.

    The defaults are the ones every result in this package is produced
    with; change them only for experiments.
    """

    max_iter: int = 200
    rel_tol: float = 1e-6
    init_pi: float = 0.9
    coef_bound: float = 15.0
    inner_max_iter: int = 25
    max_halvings: int = 20
    eps1: float = EPS1_DEFAULT
    eps2: float = EPS2_DEFAULT


@dataclass
class CoefVector:
    """Link-scale coefficients, theta for pi and beta for k."""

    theta: np.ndarray
    beta: np.ndarray


@dataclass
class EmTrace:
    """Per-iteration diagnostics of one EM run."""

    loglik: np.ndarray
    param_change: np.ndarray
    n_iter: int
    converged: bool


@dataclass
class FittedHypotheses:
    """Per-hypothesis estimates: winsorized pi_hat and k_hat."""

    pi_hat: np.ndarray
    k_hat: np.ndarray

    def __post_init__(self):
        self.pi_hat = np.asarray(self.pi_hat, dtype=float)
        self.k_hat = np.asarray(self.k_hat, dtype=float)
        if self.pi_hat.shape != self.k_hat.shape:
            raise ValueError("pi_hat and k_hat must have identical shapes")
        for name, arr in (("pi_hat", self.pi_hat), ("k_hat", self.k_hat)):
            if arr.size and (not np.all(np.isfinite(arr)) or arr.min() <= 0.0 or arr.max() >= 1.0):
                raise ValueError(f"{name} must lie strictly inside (0, 1)")


@dataclass
class FitResult:
    coef: CoefVector
    fitted: FittedHypotheses
    trace: EmTrace


def build_design(covariates, spline_knots=0):
    """Intercept-plus-covariates design matrix for the logistic links.

    Covariate columns are standardized (centered, unit variance) so the
    coefficient box constraint acts on a comparable scale for every
    column; the logistic links absorb the affine recoding, fitted values
    do not change. A constant column standardizes to zeros and is then
    harmless. With spline_knots >= 2 each covariate is expanded into a
    natural cubic spline basis (the basis constant is dropped, the
    design keeps a single global intercept).

    Parameters
    ----------
    covariates : array_like or None
        Shape (m, q) or (m,). None or q == 0 gives an intercept-only
        design; m must then be passed via a (m, 0) array.
    spline_knots : int
        0 for raw covariate columns, otherwise the number of knots per
        covariate, between 2 and 20.

    Raises
    ------
    CovariateError
        When a column cannot be standardized (its mean or standard
        deviation overflows) or has too few distinct values for the
        spline knots.
    """
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("covariates must be a 1-d or 2-d array")
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("covariates must be finite")
    if spline_knots != 0 and not 2 <= spline_knots <= 20:
        raise ValueError("spline_knots must be 0 or between 2 and 20")
    m, q = x.shape
    blocks = [np.ones((m, 1))]
    for j in range(q):
        col = _standardize(x[:, j], j)
        if spline_knots == 0:
            blocks.append(col[:, None])
        else:
            try:
                basis, _ = spline_basis(col, spline_knots)
            except ValueError:  # too few distinct values, or the equiquantile knots collide
                raise CovariateError(
                    j, f"too few distinct values for a {spline_knots}-knot spline basis"
                ) from None
            expanded = basis[:, 1:]  # drop the basis constant, intercept is global
            blocks.append(np.column_stack([_standardize(b, j) for b in expanded.T]))
    return np.hstack(blocks)


def _standardize(col, j):
    """Center and scale a column derived from covariate j."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = col.mean()
        sd = col.std()
    if not (np.isfinite(mu) and np.isfinite(sd)):
        raise CovariateError(j, "mean or standard deviation is not finite; rescale the column")
    if sd == 0.0:
        sd = 1.0
    return (col - mu) / sd


def loglik(params, design, pvals):
    """Observed-data log-likelihood of the surrogate mixture."""
    X, logp = _prepare(design, pvals)
    return _loglik_gamma(params.theta, params.beta, X, logp)[0]


def loglik_grad(params, design, pvals):
    """Analytic gradient of :func:`loglik` in (theta, beta).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Gradients with respect to theta and beta.
    """
    X, logp = _prepare(design, pvals)
    pc = _pieces(params.theta, params.beta, X, logp)
    grad_theta = X.T @ ((1.0 - pc.h) * pc.pi * pc.one_m_pi / pc.denom)
    dh_dk = -np.exp(-pc.k * logp) * (1.0 + pc.one_m_k * logp)
    grad_beta = X.T @ (pc.one_m_pi * dh_dk * pc.k * pc.one_m_k / pc.denom)
    return grad_theta, grad_beta


def e_step(params, design, pvals):
    """Posterior signal probabilities gamma_i at the current parameters."""
    X, logp = _prepare(design, pvals)
    return _loglik_gamma(params.theta, params.beta, X, logp)[1]


def m_step(gamma, params, design, pvals, config=None):
    """One M-step: update theta, then beta, holding gamma fixed.

    Each update is a damped Newton ascent of its share of the
    complete-data objective, run for at most ``config.inner_max_iter``
    steps or until its gradient is below 1e-8 * m in every coordinate.
    No step decreases that share, which is all the EM argument needs.
    """
    config = config or EmConfig()
    X, logp = _prepare(design, pvals)
    gamma = np.asarray(gamma, dtype=float)
    pieces = _pieces(params.theta, params.beta, X, logp)
    theta = _update_theta(params.theta.copy(), 1.0 - gamma, X, pieces, config)
    beta = _update_beta(params.beta.copy(), gamma, X, logp, pieces, config)
    return CoefVector(theta=theta, beta=beta)


def fit(design, pvals, config=None):
    """Fit the mixture by EM and return coefficients, fits and a trace.

    Parameters
    ----------
    design : numpy.ndarray
        Output of :func:`build_design` (or any matrix whose first
        column is an all-ones intercept).
    pvals : array_like
        P-values in [0, 1]; exact endpoints are clamped.
    config : EmConfig, optional

    Returns
    -------
    FitResult
        coef (link-scale), fitted (pi_hat winsorized into
        [eps1, 1 - eps2], k_hat inside (0, 1)) and the iteration trace.
        Non-convergence within max_iter is reported in the trace and as
        a RuntimeWarning, never silently.
    """
    config = config or EmConfig()
    X, logp = _prepare(design, pvals)
    m, d = X.shape
    if m < 10 * d:
        warnings.warn(
            f"only {m} hypotheses for {d} design columns; "
            "estimates will be unstable",
            UserWarning,
            stacklevel=2,
        )

    theta = np.zeros(d)
    theta[0] = logit(config.init_pi)
    beta = np.zeros(d)

    # the E-step and the M-step's starting point at (theta, beta) reuse
    # the pieces of the log-likelihood already evaluated there
    ll, gamma, pieces = _loglik_gamma(theta, beta, X, logp)
    trace_ll = [ll]
    trace_change = []
    converged = False
    n_iter = 0
    for _ in range(config.max_iter):
        n_iter += 1
        theta_new = _update_theta(theta.copy(), 1.0 - gamma, X, pieces, config)
        beta_new = _update_beta(beta.copy(), gamma, X, logp, pieces, config)
        ll_new, gamma, pieces = _loglik_gamma(theta_new, beta_new, X, logp)
        change = max(
            np.max(np.abs(theta_new - theta)), np.max(np.abs(beta_new - beta))
        )
        trace_ll.append(ll_new)
        trace_change.append(change)
        theta, beta = theta_new, beta_new
        if abs(ll_new - ll) < config.rel_tol * max(1.0, abs(ll)):
            converged = True
            break
        ll = ll_new

    if not converged:
        warnings.warn(
            f"EM did not converge within {config.max_iter} iterations",
            RuntimeWarning,
            stacklevel=2,
        )

    pi_hat = winsorize(pieces.pi, config.eps1, config.eps2)
    k_hat = np.clip(pieces.k, K_CLIP, 1.0 - K_CLIP)
    return FitResult(
        coef=CoefVector(theta=theta, beta=beta),
        fitted=FittedHypotheses(pi_hat=pi_hat, k_hat=k_hat),
        trace=EmTrace(
            loglik=np.asarray(trace_ll),
            param_change=np.asarray(trace_change),
            n_iter=n_iter,
            converged=converged,
        ),
    )


# ----------------------------------------------------------------------
# internals, operating on a validated design and precomputed log(p)


def _prepare(design, pvals):
    X = np.asarray(design, dtype=float)
    if X.ndim != 2:
        raise ValueError("design must be 2-d")
    if not np.all(np.isfinite(X)):
        raise ValueError("design must be finite")
    if X.size and not np.all(X[:, 0] == 1.0):
        raise ValueError("design must carry an all-ones intercept in column 0")
    p = clamp_pvalues(pvals)
    if p.ndim != 1 or p.size != X.shape[0]:
        raise ValueError("pvals must be 1-d with one entry per design row")
    return X, np.log(p)


class _Pieces(NamedTuple):
    """Link values and mixture terms at one (theta, beta)."""

    u_pi: np.ndarray  # X @ theta
    e_pi: np.ndarray  # exp(-|u_pi|)
    pi: np.ndarray
    one_m_pi: np.ndarray
    u_k: np.ndarray  # X @ beta
    e_k: np.ndarray  # exp(-|u_k|)
    k: np.ndarray
    one_m_k: np.ndarray
    h: np.ndarray  # alternative density of p under k
    denom: np.ndarray  # mixture density


def _exp_neg_abs(u):
    """exp(-|u|), the one exponential a link vector u needs; in [0, 1]."""
    e = np.abs(u)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid_pair(u, e):
    """(expit(u), expit(-u)) from e = exp(-|u|).

    With r = 1 / (1 + e), expit(|u|) = r and expit(-|u|) = e * r. The
    factor in front of r is 1 or e, picked without a branch:
    max(e, sign(u)) is 1 for u > 0 and e for u < 0, and at u = 0 both
    are 1 = e.
    """
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
    """log(1 + exp(u)) from e = exp(-|u|); also softplus(-u) as _softplus(-u, e)."""
    return np.maximum(u, 0.0) + np.log1p(e)


def _theta_value(u, e, y, one_m_y):
    """The pi link's share of the complete-data objective at u = X @ theta,
    -(y . softplus(-u) + (1 - y) . softplus(u)), with e = exp(-|u|).

    softplus(+-u) = max(+-u, 0) + log1p(e), and max(-u, 0) is
    max(u, 0) - u exactly, so one maximum and one log1p serve both.
    """
    pos = np.maximum(u, 0.0)
    return -float(one_m_y @ pos + y @ (pos - u) + np.log1p(e).sum())


def _beta_value(u, e, k, gamma, logp):
    """The k link's share at u = X @ beta, -gamma . (softplus(u) + k log p),
    with e = exp(-|u|) and k = expit(u)."""
    return -float(gamma @ (_softplus(u, e) + k * logp))


def _pieces(theta, beta, X, logp):
    u_pi = X @ theta
    e_pi = _exp_neg_abs(u_pi)
    pi, one_m_pi = _sigmoid_pair(u_pi, e_pi)
    u_k = X @ beta
    e_k = _exp_neg_abs(u_k)
    k, one_m_k = _sigmoid_pair(u_k, e_k)
    h = one_m_k * np.exp(-k * logp)
    denom = pi + one_m_pi * h
    return _Pieces(u_pi, e_pi, pi, one_m_pi, u_k, e_k, k, one_m_k, h, denom)


def _loglik_gamma(theta, beta, X, logp):
    """Log-likelihood, posterior signal probabilities and the _pieces
    they were computed from."""
    pieces = _pieces(theta, beta, X, logp)
    with np.errstate(divide="ignore"):
        ll = float(np.log(pieces.denom).sum())
    return ll, pieces.one_m_pi * pieces.h / pieces.denom, pieces


def _solve_ascent_direction(neg_hess, grad):
    """pinv(-H) @ grad when -H is PSD, else None.

    Eigendecomposition instead of a Cholesky solve so that collinear
    designs (duplicated columns) degrade to the minimum-norm Newton
    step instead of failing.
    """
    if not np.all(np.isfinite(neg_hess)):
        return None
    evals, evecs = np.linalg.eigh(neg_hess)
    top = evals[-1]
    if top <= 0.0:
        return None
    if evals[0] < -1e-8 * top:
        return None  # indefinite: caller falls back to gradient ascent
    inv = np.where(evals > 1e-12 * top, 1.0 / np.maximum(evals, 1e-300), 0.0)
    return evecs @ (inv * (evecs.T @ grad))


def _ascend(coef, direction, X, objective, value, config):
    """Backtracking line search; accepts only non-decreasing moves.

    objective maps u = X @ coef to (value, state), state being whatever
    the next Newton step can reuse. Returns (coef, value, state) of the
    accepted candidate, or state None when every halving failed.
    """
    step = 1.0
    for _ in range(config.max_halvings + 1):
        cand = np.clip(coef + step * direction, -config.coef_bound, config.coef_bound)
        val, state = objective(X @ cand)
        if np.isfinite(val) and val >= value:
            return cand, val, state
        step *= 0.5
    return coef, value, None


def _update_theta(theta, y, X, pieces, config):
    """Damped Newton / IRLS for the pi link with soft null labels y.

    pieces holds the link values at the starting theta.
    """
    one_m_y = 1.0 - y

    def obj(u):
        e = _exp_neg_abs(u)
        return _theta_value(u, e, y, one_m_y), (u, e)

    piv, one_m_piv = pieces.pi, pieces.one_m_pi
    value = _theta_value(pieces.u_pi, pieces.e_pi, y, one_m_y)
    grad_tol = 1e-8 * X.shape[0]
    for _ in range(config.inner_max_iter):
        grad = X.T @ (y - piv)
        if np.max(np.abs(grad)) <= grad_tol:
            break
        w = piv * one_m_piv
        neg_hess = X.T @ (X * w[:, None])
        direction = _solve_ascent_direction(neg_hess, grad)
        if direction is None:
            gmax = np.max(np.abs(grad))
            direction = grad / gmax
        theta_new, value, state = _ascend(theta, direction, X, obj, value, config)
        moved = np.max(np.abs(theta_new - theta))
        theta = theta_new
        if state is None or moved < 1e-10:
            break
        piv, one_m_piv = _sigmoid_pair(*state)
    return theta


def _update_beta(beta, gamma, X, logp, pieces, config):
    """Damped Newton for the k link; the Hessian here is not always
    negative definite, in which case a normalized gradient step with
    backtracking is used instead.

    pieces holds the link values at the starting beta.
    """

    def obj(u):
        e = _exp_neg_abs(u)
        k, one_m_k = _sigmoid_pair(u, e)
        return _beta_value(u, e, k, gamma, logp), (k, one_m_k)

    k, one_m_k = pieces.k, pieces.one_m_k
    value = _beta_value(pieces.u_k, pieces.e_k, k, gamma, logp)
    grad_tol = 1e-8 * X.shape[0]
    for _ in range(config.inner_max_iter):
        grad_u = -gamma * k * (1.0 + one_m_k * logp)
        grad = X.T @ grad_u
        if np.max(np.abs(grad)) <= grad_tol:
            break
        curv = gamma * k * one_m_k * (1.0 + (1.0 - 2.0 * k) * logp)
        neg_hess = X.T @ (X * curv[:, None])
        direction = _solve_ascent_direction(neg_hess, grad)
        if direction is None:
            gmax = np.max(np.abs(grad))
            direction = grad / gmax
        beta_new, value, state = _ascend(beta, direction, X, obj, value, config)
        moved = np.max(np.abs(beta_new - beta))
        beta = beta_new
        if state is None or moved < 1e-10:
            break
        k, one_m_k = state
    return beta
