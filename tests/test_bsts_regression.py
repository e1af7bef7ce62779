import logging
import math

import numpy as np
import pytest

from glycast.bsts import (
    SpikeSlabSettings,
    SweepTerms,
    VariancePrior,
    exact_inclusion_posterior,
    sample_regression,
)
from glycast.bsts import spike_slab
from glycast.bsts.spike_slab import _chol_with_ridge, _slab_precision
from glycast.errors import RangeError, SchemaError


def settings(n, expected_model_size=1.0, guess=0.01, information_weight=0.5):
    """(spike_slab, obs_var_prior), the two arguments `SweepTerms` and the oracle take after the design."""
    return (
        SpikeSlabSettings(expected_model_size=expected_model_size, information_weight=information_weight),
        VariancePrior(df=max(0.01 * n, 0.01), guess=guess),
    )


def reference_log_marginal(active, xtx, xtr, rtr, p0, n, prior):
    """log p(r | active columns), every prior constant and factor rebuilt on the call."""
    a0, b0 = prior.shape, prior.scale
    an = a0 + n / 2.0
    base = -(n / 2.0) * np.log(2.0 * np.pi) + a0 * np.log(b0) + math.lgamma(an) - math.lgamma(a0)
    if not active.size:
        return float(base - an * np.log(b0 + 0.5 * rtr))
    idx = np.ix_(active, active)
    p0a = p0[idx]
    pna = p0a + xtx[idx]
    _, chol_p0 = _chol_with_ridge(p0a, "slab-prior")
    pna, chol_pn = _chol_with_ridge(pna, "active-column")
    beta_hat = np.linalg.solve(pna, xtr[active])
    bn = max(b0 + 0.5 * (rtr - float(xtr[active] @ beta_hat)), 1e-300)
    logdet_p0 = 2.0 * float(np.sum(np.log(np.diag(chol_p0))))
    logdet_pn = 2.0 * float(np.sum(np.log(np.diag(chol_pn))))
    return float(base + 0.5 * logdet_p0 - 0.5 * logdet_pn - an * np.log(bn))


def reference_sweep(r, x, gamma, slab, prior, rng):
    """One sweep as a self-contained per-call algorithm: every Gram term and factor rebuilt, 2J log-marginals."""
    n, j_total = x.shape
    gamma = np.asarray(gamma, dtype=np.int64).copy()
    xtx, xtr, rtr = x.T @ x, x.T @ r, float(r @ r)
    p0 = _slab_precision(xtx, n, slab.information_weight)
    pi = float(np.clip(slab.expected_model_size / j_total, 1e-6, 1.0 - 1e-6))
    for j in range(j_total):
        gamma[j] = 1
        lm1 = reference_log_marginal(np.flatnonzero(gamma), xtx, xtr, rtr, p0, n, prior)
        gamma[j] = 0
        lm0 = reference_log_marginal(np.flatnonzero(gamma), xtx, xtr, rtr, p0, n, prior)
        logit = (lm1 + np.log(pi)) - (lm0 + np.log1p(-pi))
        p_on = 1.0 / (1.0 + np.exp(-np.clip(logit, -700, 700)))
        gamma[j] = 1 if rng.random() < p_on else 0

    beta = np.zeros(j_total)
    active = np.flatnonzero(gamma)
    idx = np.ix_(active, active)
    pna = p0[idx] + xtx[idx]
    pna, chol = _chol_with_ridge(pna, "active-column")
    beta_hat = np.linalg.solve(pna, xtr[active])
    sigma2 = prior.draw(rtr - float(xtr[active] @ beta_hat), n, rng)
    beta[active] = beta_hat + np.sqrt(sigma2) * np.linalg.solve(chol.T, rng.standard_normal(active.size))
    return gamma, beta, float(np.sqrt(sigma2))


class TestSpikeSlabSweep:
    def test_planted_regressor_discrimination(self):
        rng = np.random.default_rng(5)
        n = 200
        signal = rng.normal(0, 1, n)
        residual = signal + rng.normal(0, 0.01, n)
        x = np.column_stack([signal, rng.normal(0, 1, n)])
        cfg = settings(n)
        terms = SweepTerms(x, *cfg)
        gamma = np.zeros(2, dtype=np.int64)
        inclusion = np.zeros(2)
        for _ in range(200):
            gamma, beta, sigma = sample_regression(residual, terms, gamma, rng)
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
        terms = SweepTerms(x, *settings(n))  # pi = 0.5
        sweeps = 1200
        gamma = np.zeros(2, dtype=np.int64)
        hits = 0
        for _ in range(sweeps):
            residual = rng.normal(0, 1, n)
            gamma, _, _ = sample_regression(residual, terms, gamma, rng)
            hits += int(gamma[1])
        freq = hits / sweeps
        se = np.sqrt(0.25 / sweeps)
        assert abs(freq - 0.5) <= 3 * se

    def test_empty_design_residual_only(self):
        rng = np.random.default_rng(2)
        residual = rng.normal(0, 2.0, 400)
        terms = SweepTerms(np.zeros((400, 0)), *settings(400))
        gamma, beta, sigma = sample_regression(residual, terms, np.zeros(0, dtype=np.int64), rng)
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
        terms = SweepTerms(x, *settings(n))
        gamma = np.zeros(4, dtype=np.int64)
        for _ in range(50):
            gamma, beta, _ = sample_regression(residual, terms, gamma, rng)
            assert np.all(beta[gamma == 0] == 0.0)

    def test_singular_gram_ridge_fallback(self, caplog):
        rng = np.random.default_rng(3)
        n = 80
        col = rng.normal(0, 1, n)
        x = np.column_stack([col, col + 1e-10 * rng.normal(0, 1, n)])  # collinear to 1e-10
        residual = col + rng.normal(0, 0.05, n)
        # With the full Gram information as slab, the pair's slab precision is singular to working precision.
        terms = SweepTerms(x, *settings(n, information_weight=1.0))
        gamma = np.ones(2, dtype=np.int64)
        with caplog.at_level(logging.WARNING, logger="glycast.bsts.spike_slab"):
            for _ in range(20):
                gamma, beta, sigma = sample_regression(residual, terms, gamma, rng)
                assert np.isfinite(beta).all() and np.isfinite(sigma)
        # Factored once per active set per fit: at most one warning per matrix, not one per sweep.
        contexts = [record.getMessage().split(" Gram")[0] for record in caplog.records]
        assert "singular slab-prior" in contexts
        assert len(contexts) == len(set(contexts))

    def test_exactly_collinear_columns_solve_the_ridged_matrix(self, caplog):
        """A duplicated column makes P_n singular at information_weight=1.0: the solve uses the ridged P_n."""
        rng = np.random.default_rng(3)
        n = 80
        col = rng.normal(0, 1, n)
        x = np.column_stack([col, col])
        residual = col + rng.normal(0, 0.05, n)
        terms = SweepTerms(x, *settings(n, information_weight=1.0))
        gamma = np.ones(2, dtype=np.int64)
        with caplog.at_level(logging.WARNING, logger="glycast.bsts.spike_slab"):
            for _ in range(50):
                gamma, beta, sigma = sample_regression(residual, terms, gamma, rng)
                assert np.isfinite(beta).all() and np.isfinite(sigma) and sigma > 0.0
        assert "singular active-column Gram matrix" in caplog.text
        # The cached P_n is the matrix that was factored, so chol(P_n) reproduces it.
        _, pna, chol, _ = terms.factors(np.ones(2, dtype=np.int64))
        np.testing.assert_allclose(chol @ chol.T, pna, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(pna) > 0.0)

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        short, wide = SweepTerms(np.zeros((5, 2)), *settings(10)), SweepTerms(np.zeros((10, 2)), *settings(10))
        with pytest.raises(SchemaError):
            sample_regression(np.zeros(10), short, np.zeros(2, dtype=np.int64), rng)
        with pytest.raises(SchemaError):
            sample_regression(np.zeros(10), wide, np.zeros(3, dtype=np.int64), rng)
        with pytest.raises(SchemaError):
            SweepTerms(np.zeros(10), *settings(10))
        with pytest.raises(RangeError):
            SweepTerms(np.zeros((0, 2)), *settings(10))


class TestSweepTerms:
    @pytest.mark.parametrize("information_weight", [0.5, 1.0])
    def test_chained_sweeps_match_per_call_reference(self, information_weight):
        """Terms built once per fit change no bit of 200 chained sweeps against the per-call algorithm."""
        data = np.random.default_rng(11)
        n = 384
        x = data.normal(0.0, 1.0, (n, 4))
        x[:, 3] = 0.9 * x[:, 2] + 0.1 * x[:, 3]  # a near-duplicate pair moves between sets
        cfg = settings(n, expected_model_size=2.0, information_weight=information_weight)
        terms = SweepTerms(x, *cfg)
        rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
        gamma = ref_gamma = np.zeros(4, dtype=np.int64)
        every_set = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(np.int64)
        p0 = _slab_precision(x.T @ x, n, information_weight)
        visited = set()
        for _ in range(200):
            residual = 0.3 * x[:, 0] + 0.05 * x[:, 2] + data.normal(0.0, 1.0, n)
            gamma, beta, sigma = sample_regression(residual, terms, gamma, rng)
            ref_gamma, ref_beta, ref_sigma = reference_sweep(residual, x, ref_gamma, *cfg, ref_rng)
            assert np.array_equal(gamma, ref_gamma)
            assert beta.tobytes() == ref_beta.tobytes() and sigma == ref_sigma
            visited.add(tuple(gamma))
            # The log-marginals themselves, from the cached factors, for every active set.
            xtr, rtr = x.T @ residual, float(residual @ residual)
            for g in every_set:
                expected = reference_log_marginal(np.flatnonzero(g), x.T @ x, xtr, rtr, p0, n, cfg[1])
                assert spike_slab._log_marginal(terms, g, xtr, rtr)[0] == expected
        assert len(visited) > 2

    def test_one_log_marginal_more_than_columns(self, monkeypatch):
        """J columns cost J + 1 log-marginals a sweep, not 2J."""
        calls = []
        inner = spike_slab._log_marginal

        def spy(terms, gamma, xtr, rtr):
            calls.append(gamma.tobytes())
            return inner(terms, gamma, xtr, rtr)

        monkeypatch.setattr(spike_slab, "_log_marginal", spy)
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 1.0, (60, 5))
        terms = SweepTerms(x, *settings(60))
        gamma = np.zeros(5, dtype=np.int64)
        for _ in range(10):
            calls.clear()
            gamma, _, _ = sample_regression(rng.normal(0.0, 1.0, 60), terms, gamma, rng)
            assert len(calls) == 6 and len(set(calls)) == 6
