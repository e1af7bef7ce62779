import logging

import numpy as np
import pytest

from glycast.bsts import (
    SpikeSlabSettings,
    VariancePrior,
    exact_inclusion_posterior,
    sample_regression,
)
from glycast.errors import SchemaError


def settings(n, expected_model_size=1.0, guess=0.01):
    """(spike_slab, obs_var_prior), the two arguments the sweep and the oracle take after the design."""
    return (
        SpikeSlabSettings(expected_model_size=expected_model_size),
        VariancePrior(df=max(0.01 * n, 0.01), guess=guess),
    )


class TestSpikeSlabSweep:
    def test_planted_regressor_discrimination(self):
        rng = np.random.default_rng(5)
        n = 200
        signal = rng.normal(0, 1, n)
        residual = signal + rng.normal(0, 0.01, n)
        x = np.column_stack([signal, rng.normal(0, 1, n)])
        cfg = settings(n)
        gamma = np.zeros(2, dtype=np.int64)
        inclusion = np.zeros(2)
        for _ in range(200):
            gamma, beta, sigma = sample_regression(residual, x, gamma, *cfg, rng)
            inclusion += gamma
        inclusion /= 200
        assert inclusion[0] > 0.95
        assert inclusion[1] < 0.2
        # Gibbs inclusion frequencies agree with the exact 2^J enumeration.
        exact = exact_inclusion_posterior(residual, x, *cfg)
        assert exact[0] > 0.95 and exact[1] < 0.2

    def test_zero_column_recovers_prior(self):
        rng = np.random.default_rng(9)
        n = 150
        x = np.column_stack([rng.normal(0, 1, n), np.zeros(n)])
        cfg = settings(n)  # pi = 0.5
        sweeps = 1200
        gamma = np.zeros(2, dtype=np.int64)
        hits = 0
        for _ in range(sweeps):
            residual = rng.normal(0, 1, n)
            gamma, _, _ = sample_regression(residual, x, gamma, *cfg, rng)
            hits += int(gamma[1])
        freq = hits / sweeps
        se = np.sqrt(0.25 / sweeps)
        assert abs(freq - 0.5) <= 3 * se

    def test_empty_design_residual_only(self):
        rng = np.random.default_rng(2)
        residual = rng.normal(0, 2.0, 400)
        gamma, beta, sigma = sample_regression(residual, np.zeros((400, 0)), np.zeros(0, dtype=np.int64), *settings(400), rng)
        assert gamma.size == 0 and beta.size == 0
        assert sigma == pytest.approx(2.0, rel=0.2)

    def test_empty_design_has_no_inclusion_probabilities(self):
        residual = np.random.default_rng(4).normal(0, 1, 5)
        exact = exact_inclusion_posterior(residual, np.zeros((5, 0)), *settings(5))
        assert exact.shape == (0,) and exact.dtype == float

    def test_inactive_betas_exactly_zero(self):
        rng = np.random.default_rng(7)
        n = 120
        x = rng.normal(0, 1, (n, 4))
        residual = x[:, 1] * 2.0 + rng.normal(0, 0.1, n)
        cfg = settings(n)
        gamma = np.zeros(4, dtype=np.int64)
        for _ in range(50):
            gamma, beta, _ = sample_regression(residual, x, gamma, *cfg, rng)
            assert np.all(beta[gamma == 0] == 0.0)

    def test_singular_gram_ridge_fallback(self, caplog):
        rng = np.random.default_rng(3)
        n = 80
        col = rng.normal(0, 1, n)
        x = np.column_stack([col, col])  # exactly collinear
        residual = col + rng.normal(0, 0.05, n)
        cfg = settings(n)
        gamma = np.ones(2, dtype=np.int64)
        with caplog.at_level(logging.WARNING, logger="glycast.bsts.spike_slab"):
            for _ in range(20):
                gamma, beta, sigma = sample_regression(residual, x, gamma, *cfg, rng)
                assert np.isfinite(beta).all() and np.isfinite(sigma)

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SchemaError):
            sample_regression(np.zeros(10), np.zeros((5, 2)), np.zeros(2, dtype=np.int64), *settings(10), rng)
        with pytest.raises(SchemaError):
            sample_regression(np.zeros(10), np.zeros((10, 2)), np.zeros(3, dtype=np.int64), *settings(10), rng)
