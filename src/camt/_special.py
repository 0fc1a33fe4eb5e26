"""Special functions of the simulation harness, in numpy alone.

expit, the standard normal CDF (ndtr) and the AR(1) recursion of the
dependent-noise setups. They stand in for the scipy functions of the
same names (and for scipy.signal.lfilter), so `camt.simulation` loads
no scipy; `camt fit` and `camt diagnose` do not import this module.
Each is vectorized: one numpy pass per arithmetic step, no
per-element Python.

ndtr follows Cephes' ndtr (S. L. Moshier), the algorithm behind
scipy.special.ndtr, with the same split and rational approximations:
with x = z / sqrt(2), Phi(z) = 0.5 + 0.5 erf(x) for |x| < sqrt(1/2),
else 0.5 erfc(|x|), reflected as 1 - that for x > 0.
"""

from __future__ import annotations

import numpy as np

_SQRT1_2 = 0.7071067811865476  # sqrt(1/2)
_MAXLOG = 709.782712893384  # log(DBL_MAX): erfc(a) underflows to 0 beyond a**2 > _MAXLOG

# Cephes ndtr.c coefficients, highest power first. erf(x) = x T(x^2) / U(x^2)
# for |x| <= 1; erfc(a) = exp(-a^2) P(a) / Q(a) for 1 <= a < 8 and
# exp(-a^2) R(a) / S(a) for a >= 8. U, Q and S have a leading 1.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x, coeffs):
    """Polynomial with coefficients highest power first, at the array x."""
    y = coeffs[0] * x
    y += coeffs[1]
    for c in coeffs[2:]:
        y *= x
        y += c
    return y


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), as scipy.special.expit writes it."""
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the exact limit 0
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _erf_small(x):
    """erf(x), accurate for |x| <= 1."""
    x2 = x * x
    return x * _horner(x2, _T) / _horner(x2, _U)


def ndtr(z):
    """Standard normal CDF Phi(z), elementwise; NaN for NaN.

    Tail values keep their relative precision: ndtr(-z) is the upper
    tail 1 - Phi(z) without cancellation, down to about z = 37.5, where
    it underflows to 0.

    Each formula runs on the entries that need it, gathered through an
    index array (a boolean-mask gather costs several arithmetic passes);
    the central formula runs on every entry, since it also gives erf on
    the tail's first stretch.
    """
    z = np.asarray(z, dtype=float)
    x = z.ravel() * _SQRT1_2
    a = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):  # the formulas off their range
        erf = _erf_small(x)
        out = 0.5 + 0.5 * erf
        tail = np.flatnonzero(a >= _SQRT1_2)
        at = a[tail]
        # erfc(a): 1 - erf(a) below 1, exp(-a^2) P(a) / Q(a) up to 8
        erfc = np.exp(-(at * at)) * _horner(at, _P) / _horner(at, _Q)
        erfc = np.where(at < 1.0, 1.0 - np.abs(erf[tail]), erfc)
        far = np.flatnonzero(at >= 8.0)
        if far.size:  # beyond 8: exp(-a^2) R(a) / S(a), and 0 once exp(-a^2) underflows
            af = at[far]
            a2 = af * af
            erfc[far] = np.where(
                a2 > _MAXLOG, 0.0, np.exp(-a2) * _horner(af, _R) / _horner(af, _S)
            )
    y = 0.5 * erfc
    out[tail] = np.where(x[tail] > 0.0, 1.0 - y, y)
    return out.reshape(z.shape)[()]


def ar1(eps, rho):
    """AR(1) filter y[t] = eps[t] + rho * y[t - 1], with y[0] = eps[0].

    A doubling scan: after the pass with shift s, y[t] holds the sum of
    rho**j * eps[t - j] over the last 2 s terms (j < 2 s), so about
    log2(len(eps)) passes give the whole sum. It stops early once
    rho**s underflows to 0, where the remaining terms vanish.
    """
    y = np.array(eps, dtype=float)
    shift, power = 1, float(rho)
    while shift < y.size and power != 0.0:
        y[shift:] += power * y[:-shift]
        shift, power = 2 * shift, power * power
    return y
