"""Tests for the inflation factor and the p-value histogram summary."""

from statistics import NormalDist

import numpy as np
import pytest
import scipy.stats
from scipy.special import chdtri

from camt.diagnostics import (
    GIF_WARN_THRESHOLD,
    MIN_TAIL_PVALUES,
    gif,
    null_histogram_summary,
)


def test_gif_is_one_at_the_reference_quantile():
    # every retained p-value sits at 0.75, so the median chi-square
    # quantile equals the reference and the ratio is exactly one
    report = gif(np.full(25, 0.75))
    assert report.gif == 1.0
    assert report.n_pvalues_used == 25
    assert not report.warn
    assert report.threshold == GIF_WARN_THRESHOLD


def test_gif_near_one_for_uniform_tail():
    rng = np.random.default_rng(0)
    p = 0.5 + 0.5 * rng.random(100_000)
    report = gif(p)
    assert abs(report.gif - 1.0) < 0.02
    assert report.n_pvalues_used == 100_000
    assert not report.warn


def test_gif_ignores_small_pvalues():
    rng = np.random.default_rng(1)
    tail = 0.5 + 0.5 * rng.random(500)
    base = gif(tail)
    spiked = gif(np.concatenate([tail, rng.uniform(0.0, 0.4999, 300)]))
    assert spiked.gif == base.gif
    assert spiked.n_pvalues_used == base.n_pvalues_used == 500


def test_gif_orders_by_mass_near_one_half():
    rng = np.random.default_rng(2)
    u = rng.random(20_000)
    toward_half = gif(0.5 + 0.5 * u**2).gif
    uniform = gif(0.5 + 0.5 * u).gif
    toward_one = gif(0.5 + 0.5 * np.sqrt(u)).gif
    assert toward_half > uniform > toward_one


def test_gif_flags_shifted_null():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(10_000) + 0.15
    p = scipy.stats.norm.sf(z)
    report = gif(p)
    assert report.gif > 1.05
    assert report.warn


def _tails():
    rng = np.random.default_rng(4)
    for n in (MIN_TAIL_PVALUES, MIN_TAIL_PVALUES + 1, 101, 1000, 1001, 50_000):
        yield 0.5 + 0.5 * rng.random(n)  # odd and even tail lengths
    for n in (MIN_TAIL_PVALUES, 40, 41, 2000):
        yield np.round(0.5 + 0.5 * rng.random(n), 1)  # tied middle values
    yield np.concatenate([np.full(10, 0.6), np.full(10, 0.9)])  # middle pair 0.6, 0.9
    yield np.concatenate([rng.random(300) * 0.5, 0.5 + 0.5 * rng.random(MIN_TAIL_PVALUES)])
    yield np.array([0.5] * 11 + [1.0] * 10)  # the edges of the tail


@pytest.mark.parametrize("p", list(_tails()))
def test_gif_matches_the_chi_square_quantile_median(p):
    # the median of chdtri over the whole tail, as gif computed it with scipy
    tail = p[p >= 0.5]
    expected = np.median(chdtri(1, tail)) / chdtri(1, 0.75)
    assert gif(p).gif == pytest.approx(expected, rel=1e-14, abs=0.0)


def _normal_dist_gif(p):
    """gif from statistics.NormalDist's AS241, squared as Python floats:
    the median of q = inv_cdf(p / 2) ** 2 over the tail is the mean of q
    at the middle one or two order statistics, over q at 0.75."""
    tail = np.sort(p[p >= 0.5]).tolist()
    n = len(tail)
    q = [NormalDist().inv_cdf(x / 2.0) ** 2 for x in (tail[(n - 1) // 2], tail[n // 2], 0.75)]
    return (q[0] + q[1]) / 2 / q[2]


def test_gif_equals_the_normal_dist_quantile_bit_for_bit():
    # camt._special.ndtri and NormalDist.inv_cdf run the same AS241
    # operations on gif's domain, p / 2 in [0.25, 0.5]
    rng = np.random.default_rng(6)
    sizes = rng.integers(MIN_TAIL_PVALUES, 500, size=300)
    random_tails = (0.5 + 0.5 * rng.random(n) for n in sizes)
    for p in (*_tails(), *random_tails):
        assert gif(p).gif == _normal_dist_gif(p)


def test_gif_insufficient_tail():
    p = np.concatenate([np.full(19, 0.8), np.full(100, 0.1)])
    with pytest.raises(ValueError, match="insufficient data"):
        gif(p)
    assert gif(np.full(MIN_TAIL_PVALUES, 0.8)).n_pvalues_used == MIN_TAIL_PVALUES


def test_gif_input_validation():
    with pytest.raises(ValueError):
        gif(np.array([0.6] * 30 + [1.2]))
    with pytest.raises(ValueError):
        gif(np.array([0.6] * 30 + [-0.1]))
    with pytest.raises(ValueError):
        gif(np.array([0.6] * 30 + [np.nan]))


def test_gif_warns_above_the_fixed_threshold():
    piled = gif(np.full(25, 0.55))  # the whole tail just above one half
    assert piled.gif > GIF_WARN_THRESHOLD and piled.warn
    reference = gif(np.full(25, 0.75))  # the reference quantile: gif exactly 1
    assert reference.gif == 1.0 and not reference.warn
    assert piled.threshold == reference.threshold == GIF_WARN_THRESHOLD


def test_histogram_hand_counts():
    # bins of width 0.05: [0, 0.05): 0.03 0.0 | [0.05, 0.1): 0.07 | [0.1, 0.15): 0.12
    # [0.2, 0.25): 0.21 | [0.25, 0.3): 0.25   | [0.55, 0.6): 0.55 0.55
    # [0.95, 1.0]: 0.99 1.0
    p = np.array([0.03, 0.07, 0.12, 0.55, 0.55, 0.99, 1.0, 0.0, 0.25, 0.21])
    counts = null_histogram_summary(p)
    assert counts.tolist() == [2, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2]
    assert counts.sum() == p.size


def test_histogram_uniform_goodness_of_fit():
    rng = np.random.default_rng(5)
    counts = null_histogram_summary(rng.random(50_000))
    assert counts.size == 20
    assert counts.sum() == 50_000
    assert scipy.stats.chisquare(counts).pvalue > 0.01


def test_histogram_boundary_values():
    counts = null_histogram_summary(np.zeros(7))
    assert counts.tolist() == [7] + [0] * 19
    counts = null_histogram_summary(np.ones(3))
    assert counts[-1] == 3  # the last bin is closed on the right
    assert counts.sum() == 3


def test_histogram_validation():
    with pytest.raises(ValueError):
        null_histogram_summary(np.array([1.5]))
