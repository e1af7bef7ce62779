"""The standard-library special functions the sampler uses, against scipy.special as an independent reference.

glycast computes the normal CDF with math.erfc, its inverse with
statistics.NormalDist and log-gamma with math.lgamma; scipy is a test
dependency only.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import gammaln, ndtr, ndtri

from glycast.bsts.sampler import _PHI_EDGE, _draw_truncated_normal, _ndtr


def scipy_draw_truncated_normal(mean, sd, lo, hi, rng):
    """`_draw_truncated_normal` on scipy's ndtr and ndtri: the same steps, the same rng calls."""
    a = ndtr((lo - mean) / sd)
    b = ndtr((hi - mean) / sd)
    if b - a < 1e-15:
        return lo + _PHI_EDGE if mean < lo else hi - _PHI_EDGE
    u = a + (b - a) * rng.random()
    u = min(max(u, 1e-15), 1.0 - 1e-15)
    value = mean + sd * float(ndtri(u))
    return min(max(value, lo + _PHI_EDGE), hi - _PHI_EDGE)


def test_ndtr_matches_scipy():
    x = np.linspace(-10.0, 38.0, 4801)
    ours = np.array([_ndtr(v) for v in x])
    np.testing.assert_allclose(ours, ndtr(x), rtol=1e-13, atol=0.0)
    assert _ndtr(0.0) == 0.5 and _ndtr(38.0) == 1.0


def test_ndtr_lower_tail_is_negligible_below_minus_ten():
    """Below -10 both CDFs are under 1e-15, so an interval there has no mass for the truncated draw."""
    x = np.linspace(-40.0, -10.0, 301)[:-1]
    ours = np.array([_ndtr(v) for v in x])
    assert np.all(ours < 1e-15) and np.all(ndtr(x) < 1e-15)


def test_inverse_cdf_matches_ndtri():
    tail = np.logspace(-15.0, np.log10(0.5), 2000)
    u = np.unique(np.clip(np.concatenate([tail, 1.0 - tail]), 1e-15, 1.0 - 1e-15))
    inverse = NormalDist().inv_cdf
    ours = np.array([inverse(v) for v in u])
    np.testing.assert_allclose(ours, ndtri(u), rtol=1e-15, atol=0.0)


def test_lgamma_matches_gammaln():
    """1e-13 relative, or 1e-15 absolute near the roots at 1 and 2 where gammaln itself is near zero."""
    x = np.concatenate([np.logspace(-3.0, 7.0, 5001), np.linspace(0.5, 2.5, 20001)])
    ours = np.array([math.lgamma(v) for v in x])
    np.testing.assert_allclose(ours, gammaln(x), rtol=1e-13, atol=1e-15)
    assert math.lgamma(1.0) == 0.0 and math.lgamma(2.0) == 0.0


@pytest.mark.parametrize("sd", np.logspace(-4.0, 1.0, 11))
def test_truncated_normal_draws_match_scipy(sd):
    """Same rng, same draws to 1e-12; pinned edges, intervals with no mass among them, are identical."""
    lo, hi = -1.0, 1.0
    edges = (lo + _PHI_EDGE, hi - _PHI_EDGE)
    pinned = 0
    for mean in np.linspace(-3.0, 3.0, 61):
        ours_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            ours = _draw_truncated_normal(float(mean), float(sd), lo, hi, ours_rng)
            ref = scipy_draw_truncated_normal(float(mean), float(sd), lo, hi, ref_rng)
            if ref in edges or ours in edges:
                assert ours == ref
                pinned += 1
            assert abs(ours - ref) <= 1e-12
            assert lo < ours < hi
        # The two streams stayed in step: both made the same number of rng calls.
        assert ours_rng.random() == ref_rng.random()
    if sd < 0.1:
        assert pinned > 0  # means a few sds outside [-1, 1] put no mass inside and pin
