"""EM estimation of per-hypothesis null probabilities and beta shapes.

The marginal model for a p-value p_i with covariate row x_i is the
two-group mixture

    pi_i + (1 - pi_i) * (1 - k_i) * p_i ** (-k_i),

where both mixture ingredients are tied to the covariates through
logistic links: logit(pi_i) = theta' x_i and logit(k_i) = beta' x_i,
with x_i including an intercept. The log-likelihood is maximized by EM:
the E-step computes the posterior probability gamma_i that hypothesis i
is a signal, the M-step updates each link by a damped Newton ascent of
its share of the complete-data objective: a weighted logistic
regression for theta, a beta-surrogate fit for beta. Every M-step move
is accepted only if it does not decrease its share, which makes the
observed-data log-likelihood monotone along the iteration. The tuning
is fixed for every result in this package by the module constants
MAX_ITER, REL_TOL, INIT_PI, INNER_MAX_ITER, MAX_HALVINGS and COEF_BOUND.

Each link vector u = X @ coef costs one exponential, e = exp(-|u|):
expit(u), expit(-u) and softplus(u) = log(1 + exp(u)) are all cheap
arithmetic on e, and none of them can overflow. Each M-step update
returns u, softplus(u) and expit(+-u) for the coefficients it accepted,
so the E-step that follows and the next update's starting objective
recompute none of them.

The design is kept column-major (:func:`build_design` returns an
F-ordered array, :func:`fit` converts any other layout once), so X.T is
a C-ordered view: gradients X.T @ v read it without a copy, and the
Newton Hessians X.T diag(w) X are formed as (X.T * w) @ X.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .kernel import check_unit, clamp_pvalues, winsorize
from .splines import spline_basis

# Fitted k values are pulled off the exact endpoints so that downstream
# formulas with 1/k and log(1-k) stay finite.
K_CLIP = 1e-12

MAX_ITER = 200  # EM iterations before fit reports non-convergence
REL_TOL = 1e-6  # stop once an iteration gains less than REL_TOL * max(1, |loglik|)
INIT_PI = 0.9  # the starting null probability, theta's intercept
INNER_MAX_ITER = 25  # Newton steps per link update
MAX_HALVINGS = 20  # line-search halvings per Newton step
COEF_BOUND = 15.0  # every link coefficient stays in [-COEF_BOUND, COEF_BOUND]


class CovariateError(ValueError):
    """A covariate column the design cannot use; column is its index."""

    def __init__(self, column, reason):
        super().__init__(f"covariate column {column}: {reason}")
        self.column = column
        self.reason = reason


@dataclass
class CoefVector:
    """Link-scale coefficients, theta for pi and beta for k."""

    theta: np.ndarray
    beta: np.ndarray


@dataclass
class EmTrace:
    """Per-iteration diagnostics of one EM run.

    The step counts add up the inner M-step steps of both links over the
    whole run: newton_steps moved along the Newton direction,
    gradient_fallbacks along the normalized gradient (the Hessian was
    not negative semi-definite), and line_search_halvings counts the
    candidates a line search rejected before it accepted one or gave up.
    """

    loglik: np.ndarray
    param_change: np.ndarray
    n_iter: int
    converged: bool
    newton_steps: int = 0
    line_search_halvings: int = 0
    gradient_fallbacks: int = 0


@dataclass
class FittedHypotheses:
    """Per-hypothesis estimates: winsorized pi_hat and k_hat."""

    pi_hat: np.ndarray
    k_hat: np.ndarray

    def __post_init__(self):
        self.pi_hat = check_unit("pi_hat", self.pi_hat)
        self.k_hat = check_unit("k_hat", self.k_hat)
        if self.pi_hat.shape != self.k_hat.shape:
            raise ValueError("pi_hat and k_hat must have identical shapes")


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
    columns = [np.ones(m)]
    for j in range(q):
        col = _standardize(x[:, j], j)
        if spline_knots == 0:
            columns.append(col)
        else:
            try:
                basis, _ = spline_basis(col, spline_knots)
            except ValueError:  # too few distinct values, or the equiquantile knots collide
                raise CovariateError(
                    j, f"too few distinct values for a {spline_knots}-knot spline basis"
                ) from None
            # drop the basis constant, intercept is global
            columns.extend(_standardize(b, j) for b in basis[:, 1:].T)
    return np.array(columns).T  # column-major (m, d)


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
    """Observed-data log-likelihood of the surrogate mixture.

    Raises
    ------
    ValueError
        When the mixture density underflows to 0 on some row (pi is 0
        and the alternative density is 0 there), where the
        log-likelihood would be -inf.
    """
    X, logp = _prepare(design, pvals)
    return _loglik_gamma(_links(params.theta, params.beta, X), logp)[0]


def loglik_grad(params, design, pvals):
    """Analytic gradient of :func:`loglik` in (theta, beta).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Gradients with respect to theta and beta.

    Raises
    ------
    ValueError
        As :func:`loglik`, when the mixture density underflows to 0.
    """
    X, logp = _prepare(design, pvals)
    links = _links(params.theta, params.beta, X)
    h, _, denom = _mixture(links, logp)
    pi, one_m_pi = links["pi"].p, links["pi"].one_m_p
    k, one_m_k = links["k"].p, links["k"].one_m_p
    grad_theta = X.T @ ((1.0 - h) * pi * one_m_pi / denom)
    dh_dk = -np.exp(-k * logp) * (1.0 + one_m_k * logp)
    grad_beta = X.T @ (one_m_pi * dh_dk * k * one_m_k / denom)
    return grad_theta, grad_beta


def e_step(params, design, pvals):
    """Posterior signal probabilities gamma_i at the current parameters.

    Raises
    ------
    ValueError
        As :func:`loglik`, when the mixture density underflows to 0,
        where gamma would be 0 / 0.
    """
    X, logp = _prepare(design, pvals)
    return _loglik_gamma(_links(params.theta, params.beta, X), logp)[1]


def m_step(gamma, params, design, pvals):
    """One M-step: update theta, then beta, holding gamma fixed.

    Each update is a damped Newton ascent of its share of the
    complete-data objective, run for at most INNER_MAX_ITER steps or
    until its gradient is below 1e-8 * m in every coordinate.
    No step decreases that share, which is all the EM argument needs.
    """
    X, logp = _prepare(design, pvals)
    gamma = np.asarray(gamma, dtype=float)
    links = _links(params.theta, params.beta, X)
    theta, beta = _m_step(
        params.theta.copy(), params.beta.copy(), links, X, gamma, logp, _StepCounts()
    )
    return CoefVector(theta=theta, beta=beta)


def fit(design, pvals):
    """Fit the mixture by EM from pi = INIT_PI, k = 1/2 until an
    iteration gains less than REL_TOL * max(1, |loglik|).

    Parameters
    ----------
    design : numpy.ndarray
        Output of :func:`build_design` (or any matrix whose first
        column is an all-ones intercept).
    pvals : array_like
        P-values in [0, 1]; exact endpoints are clamped.

    Returns
    -------
    FitResult
        coef (link-scale), fitted (pi_hat winsorized by
        :func:`camt.kernel.winsorize`, k_hat inside (0, 1)) and the
        iteration trace. Non-convergence within MAX_ITER iterations is
        reported in the trace and as a RuntimeWarning, never silently.

    Raises
    ------
    ValueError
        As :func:`loglik`, when an iterate's mixture density underflows
        to 0 on some row.
    """
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
    theta[0] = math.log(INIT_PI / (1.0 - INIT_PI))
    beta = np.zeros(d)

    # each M-step leaves the link values of the coefficients it ends at
    # in links; the E-step and the next M-step start from them
    links = _links(theta, beta, X)
    ll, gamma = _loglik_gamma(links, logp)
    counts = _StepCounts()
    trace_ll = [ll]
    trace_change = []
    converged = False
    n_iter = 0
    for _ in range(MAX_ITER):
        n_iter += 1
        theta_new, beta_new = _m_step(theta, beta, links, X, gamma, logp, counts)
        ll_new, gamma = _loglik_gamma(links, logp)
        change = max(
            np.max(np.abs(theta_new - theta)), np.max(np.abs(beta_new - beta))
        )
        trace_ll.append(ll_new)
        trace_change.append(change)
        theta, beta = theta_new, beta_new
        if abs(ll_new - ll) < REL_TOL * max(1.0, abs(ll)):
            converged = True
            break
        ll = ll_new

    if not converged:
        warnings.warn(
            f"EM did not converge within {MAX_ITER} iterations",
            RuntimeWarning,
            stacklevel=2,
        )

    pi_hat = winsorize(links["pi"].p)
    k_hat = np.clip(links["k"].p, K_CLIP, 1.0 - K_CLIP)
    return FitResult(
        coef=CoefVector(theta=theta, beta=beta),
        fitted=FittedHypotheses(pi_hat=pi_hat, k_hat=k_hat),
        trace=EmTrace(
            loglik=np.asarray(trace_ll),
            param_change=np.asarray(trace_change),
            n_iter=n_iter,
            converged=converged,
            **asdict(counts),
        ),
    )


# ----------------------------------------------------------------------
# internals, operating on a validated column-major design and
# precomputed log(p)


def _prepare(design, pvals):
    X = np.asfortranarray(design, dtype=float)
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


class _Link(NamedTuple):
    """Values of one logistic link at u = X @ coef."""

    u: np.ndarray
    sp: np.ndarray  # softplus(u) = log(1 + exp(u))
    p: np.ndarray  # expit(u): pi or k
    one_m_p: np.ndarray  # expit(-u)


@dataclass
class _StepCounts:
    """Inner-step counts of the M-step updates, see :class:`EmTrace`."""

    newton_steps: int = 0
    line_search_halvings: int = 0
    gradient_fallbacks: int = 0


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


def _link(u):
    """The link values at u, computed afresh."""
    e = _exp_neg_abs(u)
    return _Link(u, _softplus(u, e), *_sigmoid_pair(u, e))


def _links(theta, beta, X):
    """The pi and k links at (theta, beta), keyed "pi" and "k"."""
    return {"pi": _link(X @ theta), "k": _link(X @ beta)}


def _mixture(links, logp):
    """(h, alt, denom): the alternative density h = (1 - k) p^(-k), the
    alternative's share alt = (1 - pi) h of the mixture density and
    that density denom = pi + alt. Refuses rows where denom underflows
    to 0, whose log-likelihood would be -inf and gamma 0 / 0."""
    h = links["k"].p * logp
    np.negative(h, out=h)
    np.exp(h, out=h)
    h *= links["k"].one_m_p
    alt = links["pi"].one_m_p * h
    denom = links["pi"].p + alt
    zero = int(np.count_nonzero(denom == 0.0))
    if zero:
        raise ValueError(
            f"the mixture density underflows to 0 on {zero} of {denom.size} rows: "
            "pi and the alternative density are both 0 there at these coefficients"
        )
    return h, alt, denom


def _loglik_gamma(links, logp):
    """Log-likelihood and posterior signal probabilities at the links."""
    _, alt, denom = _mixture(links, logp)
    return float(np.log(denom).sum()), alt / denom


def _m_step(theta, beta, links, X, gamma, logp, counts):
    """Update theta, then beta, by :func:`_maximize` from the link values
    in links; returns the new coefficients and leaves their links in links.
    pop hands an update its starting link as the only reference (CPython
    3.11+ moves call arguments into the callee), so the update frees it
    at its first accepted step."""
    theta, links["pi"] = _maximize(theta, links.pop("pi"), X, _theta_share(1.0 - gamma), counts)
    beta, links["k"] = _maximize(beta, links.pop("k"), X, _beta_share(gamma, logp), counts)
    return theta, beta


def _theta_share(y):
    """The pi link's share for :func:`_maximize` with soft null labels y:
    -(y . softplus(-u) + (1 - y) . softplus(u)) = -(sum(softplus(u)) - y . u)
    at u = X @ theta, with slope y - pi and curv pi (1 - pi)."""

    def share(link):
        return -float(link.sp.sum() - y @ link.u), y - link.p, lambda: link.p * link.one_m_p

    return share


def _beta_share(gamma, logp):
    """The k link's share for :func:`_maximize`, -gamma . (softplus(u) + k log p)
    at u = X @ beta. With g = -gamma log p >= 0 its slope is k (1 - k) g - gamma k
    and its curv k (1 - k) (gamma - (1 - 2k) g), which can be negative: -H
    is not always positive semi-definite."""
    g = gamma * logp
    np.negative(g, out=g)

    def share(link):
        k, one_m_k = link.p, link.one_m_p
        kk = k * one_m_k
        slope = kk * g
        slope -= gamma * k

        def curv():
            c = one_m_k - k
            c *= g
            np.subtract(gamma, c, out=c)
            c *= kk
            return c

        return -float(gamma @ link.sp - k @ g), slope, curv

    return share


def _gram(Xt, w):
    """X.T diag(w) X from the C-ordered view Xt = X.T, in one product."""
    return (Xt * w) @ Xt.T


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


def _maximize(coef, link, X, share, counts):
    """Damped Newton ascent of one link's share of the complete-data
    objective from coef, whose link values are link; returns the final
    coef and its link values.

    share maps the link at u = X @ coef to (value, slope, curv): the
    gradient is X.T @ slope and -H = X.T diag(curv()) X, curv deferred
    because the point an ascent stops at needs none. A step takes the
    Newton direction, or the normalized gradient when -H is not PSD, and
    is halved until the share does not decrease.
    """
    Xt = X.T
    grad_tol = 1e-8 * X.shape[0]
    value, slope, curv = share(link)
    for _ in range(INNER_MAX_ITER):
        grad = Xt @ slope
        if np.max(np.abs(grad)) <= grad_tol:
            break
        direction = _solve_ascent_direction(_gram(Xt, curv()), grad)
        if direction is None:
            counts.gradient_fallbacks += 1
            direction = grad / np.max(np.abs(grad))
        else:
            counts.newton_steps += 1
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = np.clip(coef + step * direction, -COEF_BOUND, COEF_BOUND)
            cand_link = _link(X @ cand)
            cand_value, cand_slope, cand_curv = share(cand_link)
            if np.isfinite(cand_value) and cand_value >= value:
                break
            counts.line_search_halvings += 1
            step *= 0.5
        else:
            break  # every halving decreased the share
        moved = np.max(np.abs(cand - coef))
        coef, link = cand, cand_link
        value, slope, curv = cand_value, cand_slope, cand_curv
        if moved < 1e-10:
            break
    return coef, link
