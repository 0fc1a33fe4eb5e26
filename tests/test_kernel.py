"""Tests for the closed-form kernel: surrogate density, weight/cutoff
algebra, the psi transform, clamping and winsorization."""

import numpy as np
import pytest
from scipy.integrate import quad

from camt.kernel import (
    P_CLAMP,
    check_alpha,
    clamp_pvalues,
    cutoff,
    psi,
    surrogate_density,
    weight,
    winsorize,
)


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


@pytest.mark.parametrize(
    "fn, args",
    [
        (surrogate_density, (0.5, 0.5)),
        (weight, (0.5, 0.5)),
        (cutoff, (0.1, 0.5, 0.5)),
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


def test_weight_hand_values():
    assert float(weight(0.5, 0.5)) == 1.0
    assert float(weight(0.2, 0.5)) == 4.0
    assert float(weight(0.1, 0.9)) == pytest.approx(81.0, rel=1e-14)


def test_weight_monotone():
    t = np.linspace(0.05, 0.95, 200)
    assert np.all(np.diff(weight(t, 0.7)) < 0.0)
    pi = np.linspace(0.05, 0.95, 200)
    assert np.all(np.diff(weight(0.3, pi)) > 0.0)


def test_weight_domain_errors():
    for t in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            weight(t, 0.5)
    for pi in (0.0, 1.0):
        with pytest.raises(ValueError):
            weight(0.5, pi)


def test_cutoff_hand_value():
    # inner ratio 0.5, power 1/k = 2
    assert float(cutoff(0.5, 0.5, 0.5)) == 0.25


def test_cutoff_clamped_branch():
    # inner ratio far above one, so the min with 1 binds
    assert float(cutoff(0.9, 0.05, 0.5)) == 1.0


def test_cutoff_nondecreasing_in_t():
    t = np.linspace(0.1, 0.9, 9)
    for pi, k in ((0.9, 0.5), (0.5, 0.2), (0.99, 0.8)):
        assert np.all(np.diff(cutoff(t, pi, k)) >= 0.0)


def test_cutoff_domain_errors():
    with pytest.raises(ValueError):
        cutoff(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        cutoff(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        cutoff(0.5, 0.5, 0.0)


def test_psi_at_one():
    assert float(psi(1.0, 0.5, 0.5)) == 2.0 / 3.0


def test_psi_strictly_increasing():
    rng = np.random.default_rng(7)
    p = np.sort(rng.uniform(1e-6, 1.0, 10_000))
    for pi, k in ((0.9, 0.5), (0.3, 0.1), (0.99, 0.9)):
        assert np.all(np.diff(psi(p, pi, k)) > 0.0)


def test_rejection_rule_forms_agree_exactly():
    # the three formulations of the rejection rule (likelihood ratio vs
    # weight, p-value vs cutoff, psi vs threshold) must pick identical
    # index sets on random tuples
    rng = np.random.default_rng(123)
    n = 100_000
    p = clamp_pvalues(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.01, 0.99, n)
    pi = rng.uniform(0.01, 0.99, n)
    k = rng.uniform(0.01, 0.99, n)
    by_weight = surrogate_density(p, k) >= weight(t, pi)
    by_cutoff = p <= cutoff(t, pi, k)
    by_psi = psi(p, pi, k) <= t
    assert np.array_equal(by_weight, by_cutoff)
    assert np.array_equal(by_psi, by_cutoff)


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
