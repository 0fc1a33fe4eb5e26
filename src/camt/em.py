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
observed-data log-likelihood monotone along the iteration. The same
shares give that log-likelihood's gradient: by the EM gradient identity
it is theirs at the E-step posterior of the same coefficients
(:func:`loglik_grad`). The tuning is fixed for every result in this
package by the module constants MAX_ITER, REL_TOL, INIT_PI,
INNER_MAX_ITER, MAX_HALVINGS and COEF_BOUND.

Each link vector u = X @ coef costs one exponential, e = exp(-|u|):
expit(u), expit(-u) and softplus(u) = log(1 + exp(u)) are all cheap
arithmetic on e, and none of them can overflow; the factor that picks
between them by the sign of u is built from the comparisons u >= 0 and
u < 0, written as 0.0 and 1.0 (:func:`_link`). A fit reads the
p-values only as -log p >= 0, formed once, so the E-step's
p^(-k) = exp(k (-log p)) and the k link's g = gamma (-log p) take no
negation. Each M-step update
leaves the link values of the coefficients it accepted, so the E-step
that follows and the next update's starting objective recompute none of
them. Both links keep the same three m-vectors, expit(+-u) and
softplus(u), and not u: the pi share reads u only through
y . u = c . theta, with c = X.T @ y formed once per update.

The design is kept column-major (:func:`build_design` returns an
F-ordered array, :func:`fit` converts any other layout once), so X.T is
a C-ordered view and gradients X.T @ v read it without a copy. Every
Newton Hessian X.T diag(w) X has the entries sum_r w_r x_ri x_rj. The
intercept's row is X.T @ w; for the rest a fit forms the (d - 1)d/2
products x_i * x_j (1 <= i <= j) of the non-intercept columns once, as
the rows of one array P, and each Hessian is X.T @ w and P @ w,
mirrored (:func:`_gram`). P costs (d - 1)d/2 m-vectors for the length
of the fit: 8 MB at m = 1e6 with d = 2, 80 MB with d = 5. Slopes,
curvatures and candidate links are formed in place, each in one
m-vector, and dropped as soon as they are read, and a line search drops
the link it would replace before it builds a candidate, so a fit holds
-log p, gamma, the two links and P, and on top of them at most the k
update's g and either a candidate link while it is built or the k
link's slope or curvature while it is formed: at most 11 m-vectors
beyond the design and the p-values at d = 2, 20 at d = 5.

A Newton direction solves -H x = gradient. Up to d = CHOLESKY_MAX_D it
is a Cholesky solve in Python floats, accepted only when every pivot is
positive and det(-H) > 1e-12 trace(-H)^d, a certificate that -H is
positive definite with lambda_min > 1e-12 lambda_max; otherwise, and
for larger d, the eigendecomposition's pseudo-inverse
(:func:`_solve_ascent_direction`). Where the certificate holds the two
agree to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kernel import check_unit, clamp_pvalues, is_integer, winsorize
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
CHOLESKY_MAX_D = 5  # Newton directions for d up to this try a Cholesky solve before eigh


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
    """Per-iteration diagnostics of one EM run. :func:`fit` creates it
    before its first iteration and fills it as it runs (loglik grows as
    a list and becomes an array when the fit ends).

    The step counts add up the inner M-step steps of both links over the
    whole run: newton_steps moved along the Newton direction,
    gradient_fallbacks along the normalized gradient (the Hessian was
    not negative semi-definite), and line_search_halvings counts the
    candidates a line search rejected before it accepted one or gave up.
    """

    loglik: np.ndarray | list[float]  # a list while the fit runs
    n_iter: int
    converged: bool
    newton_steps: int = 0
    line_search_halvings: int = 0
    gradient_fallbacks: int = 0


@dataclass
class FittedHypotheses:
    """Per-hypothesis estimates: winsorized pi_hat and k_hat.

    Not changed after it is built, so it caches what is derived from it:
    the terms of the mixed selection's expected null count
    (``_cutoff_terms``), built on first use and shared by every
    selection on the fit.
    """

    pi_hat: np.ndarray
    k_hat: np.ndarray

    def __post_init__(self):
        self.pi_hat = check_unit("pi_hat", self.pi_hat)
        self.k_hat = check_unit("k_hat", self.k_hat)
        if self.pi_hat.shape != self.k_hat.shape:
            raise ValueError("pi_hat and k_hat must have identical shapes")

    @cached_property
    def _cutoff_terms(self):
        """log((1-k)(1-pi)/pi) and 1/k: log c(t, pi, k) is
        min(0, (logit t + the first) * the second), see
        :func:`camt.threshold._expected_count`."""
        pi, k = self.pi_hat, self.k_hat
        return np.log1p(-k) + np.log1p(-pi) - np.log(pi), 1.0 / k


@dataclass
class FitResult:
    coef: CoefVector
    fitted: FittedHypotheses
    trace: EmTrace


def _check_spline_knots(spline_knots):
    """ValueError unless spline_knots is 0 (raw covariate columns) or an
    integer knot count per covariate between 2 and 20, as
    :func:`~camt.kernel.is_integer` reads one; the one home of the rule,
    which ``camt fit`` checks before it reads its table."""
    message = "spline_knots must be 0 or between 2 and 20"
    if not is_integer(spline_knots):
        raise ValueError(f"{message}, as an integer; got {spline_knots!r}")
    if spline_knots != 0 and not 2 <= spline_knots <= 20:
        raise ValueError(message)


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
    covariates : array_like
        Shape (m, q) or (m,). A (m, 0) array gives an intercept-only
        design of m rows (:func:`~camt.pipeline.fit_camt` builds one
        when its covariates are None).
    spline_knots : int
        0 for raw covariate columns, otherwise the number of knots per
        covariate, between 2 and 20 (:func:`_check_spline_knots`).

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
    _check_spline_knots(spline_knots)
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
    X, neg_logp = _prepare(design, pvals)
    return _loglik_gamma(_links(params.theta, params.beta, X), neg_logp)[0]


def loglik_grad(params, design, pvals):
    """(gradient in theta, gradient in beta) of :func:`loglik`.

    By the EM gradient identity (Dempster, Laird & Rubin 1977) these are
    the gradients of the M-step's two shares, _theta_share(1 - gamma, X)
    and _beta_share(gamma, -log p, X), at the same coefficients, with
    gamma the E-step posterior there.

    Raises
    ------
    ValueError
        As :func:`loglik`, when the mixture density underflows to 0.
    """
    X, neg_logp = _prepare(design, pvals)
    links = _links(params.theta, params.beta, X)
    gamma = _loglik_gamma(links, neg_logp)[1]
    grad_theta = _theta_share(1.0 - gamma, X)(params.theta, links["pi"])[1]()
    grad_beta = _beta_share(gamma, neg_logp, X)(params.beta, links["k"])[1]()
    return grad_theta, grad_beta


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
    X, neg_logp = _prepare(design, pvals)
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
    ll, gamma = _loglik_gamma(links, neg_logp)
    gram = _gram(X)
    trace = EmTrace(loglik=[ll], n_iter=0, converged=False)
    for _ in range(MAX_ITER):
        trace.n_iter += 1
        theta, beta = _m_step(theta, beta, links, X, gram, gamma, neg_logp, trace)
        del gamma  # the E-step forms the next one
        ll_new, gamma = _loglik_gamma(links, neg_logp)
        trace.loglik.append(ll_new)
        if abs(ll_new - ll) < REL_TOL * max(1.0, abs(ll)):
            trace.converged = True
            break
        ll = ll_new

    if not trace.converged:
        warnings.warn(
            f"EM did not converge within {MAX_ITER} iterations",
            RuntimeWarning,
            stacklevel=2,
        )

    trace.loglik = np.asarray(trace.loglik)
    pi_hat = winsorize(links["pi"].p)
    k_hat = np.clip(links["k"].p, K_CLIP, 1.0 - K_CLIP)
    return FitResult(
        coef=CoefVector(theta=theta, beta=beta),
        fitted=FittedHypotheses(pi_hat=pi_hat, k_hat=k_hat),
        trace=trace,
    )


# ----------------------------------------------------------------------
# internals, operating on a validated column-major design and
# precomputed -log(p)


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
    neg_logp = np.log(p)
    return X, np.negative(neg_logp, out=neg_logp)


class _Link(NamedTuple):
    """Values of one logistic link at u = X @ coef, as much as its share
    and the E-step read; u itself is not kept."""

    p: np.ndarray  # expit(u): pi or k
    one_m_p: np.ndarray  # expit(-u)
    sp: np.ndarray  # softplus(u) = log(1 + exp(u))


def _exp_neg_abs(u):
    """exp(-|u|), the one exponential a link vector u needs; in [0, 1]."""
    e = np.abs(u)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _link(u):
    """The link values at u, computed afresh.

    From e = exp(-|u|) and r = 1 / (1 + e), expit(|u|) = r and
    expit(-|u|) = e * r. The factor in front of r is 1 or e, picked
    without a branch: with [.] a comparison written as 0.0 or 1.0,
    max(e, [u >= 0]) is 1 for u >= 0 and e for u < 0, max(e, [u < 0])
    is e for u > 0 and 1 for u < 0, and at u = 0 both are 1 = e.
    Everything is formed in place: a link is three m-vectors, and
    building it takes e besides them. 1 - p is formed in u's buffer, so
    u is overwritten.
    """
    e = _exp_neg_abs(u)
    sp = np.log1p(e)
    p = np.maximum(u, 0.0)
    sp += p
    np.greater_equal(u, 0.0, out=p)
    one_m_p = np.less(u, 0.0, out=u)
    np.maximum(e, p, out=p)
    np.maximum(e, one_m_p, out=one_m_p)
    e += 1.0
    np.divide(1.0, e, out=e)
    p *= e
    one_m_p *= e
    return _Link(p, one_m_p, sp)


def _links(theta, beta, X):
    """The pi and k links at (theta, beta), keyed "pi" and "k"."""
    return {"pi": _link(X @ theta), "k": _link(X @ beta)}


def _mixture(links, neg_logp):
    """(alt, denom): the alternative's share alt = (1 - pi) h of the
    mixture density, with h = (1 - k) p^(-k) = (1 - k) exp(k (-log p))
    the alternative density, and that density denom = pi + alt. Refuses
    rows where denom underflows to 0, whose log-likelihood would be -inf
    and gamma 0 / 0; they are counted only then."""
    alt = links["k"].p * neg_logp
    np.exp(alt, out=alt)
    alt *= links["k"].one_m_p
    alt *= links["pi"].one_m_p
    denom = links["pi"].p + alt
    if denom.size and denom.min() == 0.0:
        zero = int(np.count_nonzero(denom == 0.0))
        raise ValueError(
            f"the mixture density underflows to 0 on {zero} of {denom.size} rows: "
            "pi and the alternative density are both 0 there at these coefficients"
        )
    return alt, denom


def _loglik_gamma(links, neg_logp):
    """Log-likelihood and posterior signal probabilities at the links;
    gamma is formed in alt's buffer and log(denom) in denom's."""
    alt, denom = _mixture(links, neg_logp)
    gamma = np.divide(alt, denom, out=alt)
    return float(np.log(denom, out=denom).sum()), gamma


def _m_step(theta, beta, links, X, gram, gamma, neg_logp, trace):
    """One M-step: update theta, then beta, holding gamma fixed, by
    :func:`_maximize` from the link values in links, with gram = _gram(X);
    returns the new coefficients, leaves their links in links and adds
    the inner steps to trace's counts. No update decreases its share of
    the complete-data objective, which is all the EM argument needs."""
    theta = _maximize(theta, links, "pi", X, gram, _theta_share(1.0 - gamma, X), trace)
    beta = _maximize(beta, links, "k", X, gram, _beta_share(gamma, neg_logp, X), trace)
    return theta, beta


def _theta_share(y, X):
    """The pi link's share for :func:`_maximize` with soft null labels y:
    -(y . softplus(-u) + (1 - y) . softplus(u)) = y . u - sum(softplus(u))
    at u = X @ theta. With c = X.T @ y, formed once, y . u = c . theta, so
    the value is c . theta - sum(softplus(u)), the gradient c - X.T @ pi
    and the curv pi (1 - pi); y is not kept."""
    Xt = X.T
    c = Xt @ y

    def share(theta, link):
        return (
            float(c @ theta - link.sp.sum()),
            lambda: c - Xt @ link.p,
            lambda: link.p * link.one_m_p,
        )

    return share


def _beta_share(gamma, neg_logp, X):
    """The k link's share for :func:`_maximize`, -gamma . (softplus(u) + k log p)
    at u = X @ beta, given -log p. With g = gamma (-log p) >= 0 its gradient
    is X.T @ (k ((1 - k) g - gamma)) and its curv k (1 - k) (gamma - (1 - 2k) g),
    which can be negative: -H is not always positive semi-definite. The
    slope and curv are each formed in one m-vector, in place."""
    Xt = X.T
    g = gamma * neg_logp

    def share(beta, link):
        k, one_m_k = link.p, link.one_m_p

        def gradient():
            s = one_m_k * g
            s -= gamma
            s *= k
            return Xt @ s

        def curv():
            c = one_m_k - k
            c *= g
            np.subtract(gamma, c, out=c)
            c *= k
            c *= one_m_k
            return c

        return -float(gamma @ link.sp - k @ g), gradient, curv

    return share


def _gram(X):
    """The map w -> X.T diag(w) X for the design X, built once per fit.

    Entry (i, j) of every such Hessian is sum_r w_r x_ri x_rj. Row 0 and
    column 0 pair a column with the intercept x_0 = 1, so they are X.T @ w.
    The rest come from the (d - 1)d/2 products x_i * x_j (1 <= i <= j)
    of the non-intercept columns, formed once, a row at a time, as the
    rows of one C-ordered array P: each Hessian is then the two products
    X.T @ w and P @ w, mirrored into the d x d matrix, exactly symmetric.
    P holds (d - 1)d/2 m-vectors for as long as the fit runs: 8 MB at
    m = 1e6 for d = 2, 80 MB for d = 5.
    """
    d = X.shape[1]
    rows, cols = np.triu_indices(d - 1)
    rows += 1
    cols += 1
    P = np.empty((rows.size, X.shape[0]))
    for k, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(X[:, i], X[:, j], out=P[k])
    sym = np.empty((d, d), dtype=np.intp)  # the entry of (X.T @ w, P @ w) behind each
    sym[0] = sym[:, 0] = np.arange(d)
    sym[rows, cols] = sym[cols, rows] = d + np.arange(rows.size)
    Xt = X.T
    return lambda w: np.concatenate((Xt @ w, P @ w))[sym]


def _solve_ascent_direction(neg_hess, grad):
    """pinv(-H) @ grad when -H is PSD, else None.

    For d <= CHOLESKY_MAX_D the certified Cholesky solve of
    :func:`_cholesky_direction` comes first. Otherwise, or where it
    refuses, an eigendecomposition, so that collinear designs
    (duplicated columns) degrade to the minimum-norm Newton step instead
    of failing.
    """
    if grad.size <= CHOLESKY_MAX_D:
        direction = _cholesky_direction(neg_hess, grad)
        if direction is not None:
            return direction
    if not np.isfinite(neg_hess).all():
        return None
    evals, evecs = np.linalg.eigh(neg_hess)
    top = evals[-1]
    if top <= 0.0:
        return None
    if evals[0] < -1e-8 * top:
        return None  # indefinite: caller falls back to gradient ascent
    inv = np.where(evals > 1e-12 * top, 1.0 / np.maximum(evals, 1e-300), 0.0)
    return evecs @ (inv * (evecs.T @ grad))


def _cholesky_direction(neg_hess, grad):
    """(-H)^-1 @ grad by a Cholesky solve in Python floats, or None
    unless every pivot is positive and det(-H) > 1e-12 trace(-H)^d.

    Only the lower triangle is read. For a small d the floats cost less
    than eigh and its array bookkeeping. The certificate keeps the result
    equal, to rounding, to the eigh path's pseudo-inverse direction:
    det <= lambda_min lambda_max^(d - 1) and trace >= lambda_max, so it
    implies lambda_min > 1e-12 lambda_max, and the pseudo-inverse drops
    no direction. A non-finite entry leaves a pivot non-positive or NaN,
    or the trace infinite and the certificate 0 or NaN, and is refused.
    """
    a = neg_hess.tolist()
    d = len(a)
    rows = []  # the rows of L, the diagonal entry last
    pivots = []
    trace = 0.0
    for i, a_i in enumerate(a):
        row = []
        for j, row_j in enumerate(rows):
            s = a_i[j]
            for k in range(j):
                s -= row[k] * row_j[k]
            row.append(s / row_j[j])
        s = a_i[i]
        for v in row:
            s -= v * v
        if not s > 0.0:
            return None
        pivots.append(s)
        trace += a_i[i]
        row.append(math.sqrt(s))
        rows.append(row)
    # det / trace^d as a product of pivot / trace, each at most 1, so
    # that neither side overflows or underflows
    ratio = 1.0
    for s in pivots:
        ratio *= s / trace
    if not ratio > 1e-12:
        return None
    y = grad.tolist()  # L y = grad, then L.T x = y, both in place
    for i, row in enumerate(rows):
        s = y[i]
        for k in range(i):
            s -= row[k] * y[k]
        y[i] = s / row[i]
    for i in range(d - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, d):
            s -= rows[k][i] * y[k]
        y[i] = s / rows[i][i]
    return np.array(y)


def _maximize(coef, links, key, X, gram, share, trace):
    """Damped Newton ascent of one link's share of the complete-data
    objective from coef, whose link values are links[key]; returns the
    final coef, leaves its link values in links[key] and counts its steps
    into trace (an :class:`EmTrace`).

    share maps coef and its link at u = X @ coef to (value, gradient,
    curv): the gradient() of the share and -H = gram(curv()) with
    gram = _gram(X). Both are deferred: a step forms each once, and
    neither is formed at a rejected candidate or, for curv, where the
    ascent stops. A step takes the Newton direction, or the normalized
    gradient when -H is not PSD, and is halved until the share does not
    decrease.

    Once a step's direction is formed, the link at coef and the closures
    over it are dropped, so no more than one link of this key is alive
    while a candidate is built. When every halving fails, the link at
    coef is rebuilt as it was first built, _link(X @ coef), which gives
    the same bits.
    """
    grad_tol = 1e-8 * X.shape[0]
    link = links.pop(key)
    value, gradient, curv = share(coef, link)
    for _ in range(INNER_MAX_ITER):
        grad = gradient()
        if abs(grad).max() <= grad_tol:
            break
        direction = _solve_ascent_direction(gram(curv()), grad)
        if direction is None:
            trace.gradient_fallbacks += 1
            direction = grad / abs(grad).max()
        else:
            trace.newton_steps += 1
        del link, gradient, curv  # before the first candidate is built
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = np.minimum(np.maximum(coef + step * direction, -COEF_BOUND), COEF_BOUND)
            link = _link(X @ cand)
            cand_value, gradient, curv = share(cand, link)
            if math.isfinite(cand_value) and cand_value >= value:
                break
            del link, gradient, curv  # before the next candidate is built
            trace.line_search_halvings += 1
            step *= 0.5
        else:
            link = _link(X @ coef)  # every halving decreased the share
            break
        moved = abs(cand - coef).max()
        coef, value = cand, cand_value
        if moved < 1e-10:
            break
    links[key] = link
    return coef
