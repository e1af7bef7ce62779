"""Stochastic-search variable selection for the static regression component.

Each sweep resamples every inclusion indicator from the ratio of conjugate
Gaussian-inverse-gamma marginal likelihoods, draws the active coefficients
from their conditional Gaussian, zeroes the rest exactly, and draws the
observation variance from its inverse-gamma conditional. The Gibbs fit runs
the sweep for every model, so it is the fit's one observation-variance draw;
with no columns it is that draw alone.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from ..errors import RangeError, SchemaError
from .components import SpikeSlabSettings, VariancePrior

logger = logging.getLogger(__name__)

_RIDGE = 1e-8


def _slab_precision(xtx: np.ndarray, n: int, weight: float) -> np.ndarray:
    """Prior precision of the slab, scaled so cov = sigma^2 * n * V^{-1}.

    V averages the full Gram information with its diagonal; all-zero columns
    get a floored diagonal entry so they carry a proper (and irrelevant) slab.
    """
    diag = np.diag(xtx).copy()
    zero = diag <= 0.0
    if np.any(zero):
        positive = diag[~zero]
        diag[zero] = float(np.mean(positive)) if positive.size else 1.0
    v = weight * xtx / n + (1.0 - weight) * np.diag(diag) / n
    if np.any(zero):
        fix = np.where(zero)[0]
        v[fix, :] = 0.0
        v[:, fix] = 0.0
        v[fix, fix] = diag[fix] / n
    return v / n


def _chol_with_ridge(matrix: np.ndarray, context: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        jitter = _RIDGE * float(np.trace(matrix)) / max(matrix.shape[0], 1)
        logger.warning("singular %s Gram matrix; adding ridge jitter %.3e", context, jitter)
        return np.linalg.cholesky(matrix + jitter * np.eye(matrix.shape[0]))


def _sweep_terms(r: np.ndarray, x: np.ndarray, spike_slab: SpikeSlabSettings) -> tuple:
    """(x'x, x'r, r'r, slab precision, pi) that the sweep and the 2^J oracle share; J >= 1."""
    xtx = x.T @ x
    pi = float(np.clip(spike_slab.expected_model_size / x.shape[1], 1e-6, 1.0 - 1e-6))
    return xtx, x.T @ r, float(r @ r), _slab_precision(xtx, r.size, spike_slab.information_weight), pi


def _log_marginal(
    active: np.ndarray,
    xtx: np.ndarray,
    xtr: np.ndarray,
    rtr: float,
    p0: np.ndarray,
    n: int,
    prior: VariancePrior,
) -> float:
    a0, b0 = prior.shape, prior.scale
    an = a0 + n / 2.0
    base = -(n / 2.0) * np.log(2.0 * np.pi) + a0 * np.log(b0) + gammaln(an) - gammaln(a0)
    if not active.size:
        return float(base - an * np.log(b0 + 0.5 * rtr))
    idx = np.ix_(active, active)
    p0a = p0[idx]
    pna = p0a + xtx[idx]
    chol_p0 = _chol_with_ridge(p0a, "slab-prior")
    chol_pn = _chol_with_ridge(pna, "active-column")
    beta_hat = np.linalg.solve(pna, xtr[active])
    bn = b0 + 0.5 * (rtr - float(xtr[active] @ beta_hat))
    bn = max(bn, 1e-300)
    logdet_p0 = 2.0 * float(np.sum(np.log(np.diag(chol_p0))))
    logdet_pn = 2.0 * float(np.sum(np.log(np.diag(chol_pn))))
    return float(base + 0.5 * logdet_p0 - 0.5 * logdet_pn - an * np.log(bn))


def sample_regression(
    y_minus_state: Sequence[float],
    x: np.ndarray,
    gamma: Sequence[int],
    spike_slab: SpikeSlabSettings,
    obs_var_prior: VariancePrior,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One spike-and-slab sweep; returns (gamma, beta, sigma_obs).

    beta_j is exactly zero wherever gamma_j is zero; sigma_obs is the
    observation noise sd drawn from its inverse-gamma conditional
    (`obs_var_prior.draw`) given the final inclusion set. With no columns
    (J = 0) the sweep is that draw alone, on the residual's sum of squares.
    """
    r = np.asarray(y_minus_state, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != r.size:
        raise SchemaError(f"design shape {x.shape} does not match residual length {r.size}")
    gamma = np.asarray(gamma, dtype=np.int64).copy()
    n, j_total = x.shape
    if gamma.shape != (j_total,):
        raise SchemaError(f"gamma must have length {j_total}")
    if n < 1:
        raise RangeError("residual series is empty")
    if j_total == 0:
        return gamma, np.zeros(0), float(np.sqrt(obs_var_prior.draw(float(r @ r), n, rng)))

    xtx, xtr, rtr, p0, pi = _sweep_terms(r, x, spike_slab)
    log_pi = np.log(pi)
    log_not = np.log1p(-pi)

    for j in range(j_total):
        gamma[j] = 1
        lm1 = _log_marginal(np.flatnonzero(gamma), xtx, xtr, rtr, p0, n, obs_var_prior)
        gamma[j] = 0
        lm0 = _log_marginal(np.flatnonzero(gamma), xtx, xtr, rtr, p0, n, obs_var_prior)
        logit = (lm1 + log_pi) - (lm0 + log_not)
        p_on = 1.0 / (1.0 + np.exp(-np.clip(logit, -700, 700)))
        gamma[j] = 1 if rng.random() < p_on else 0

    beta = np.zeros(j_total)
    active = np.flatnonzero(gamma)
    idx = np.ix_(active, active)
    pna = p0[idx] + xtx[idx]
    chol = _chol_with_ridge(pna, "active-column")
    beta_hat = np.linalg.solve(pna, xtr[active])
    sigma2 = obs_var_prior.draw(rtr - float(xtr[active] @ beta_hat), n, rng)
    beta[active] = beta_hat + np.sqrt(sigma2) * np.linalg.solve(chol.T, rng.standard_normal(active.size))
    return gamma, beta, float(np.sqrt(sigma2))


def exact_inclusion_posterior(
    y_minus_state: Sequence[float],
    x: np.ndarray,
    spike_slab: SpikeSlabSettings,
    obs_var_prior: VariancePrior,
) -> np.ndarray:
    """Per-column inclusion probabilities by enumerating all 2^J models.

    Exponential in J; intended as the small-J oracle for the Gibbs sweep. A
    design with no columns has no inclusion probabilities: the result is empty.
    """
    r = np.asarray(y_minus_state, dtype=float)
    x = np.asarray(x, dtype=float)
    n, j_total = x.shape
    if j_total > 12:
        raise RangeError(f"enumeration oracle limited to 12 columns, got {j_total}")
    if j_total == 0:
        return np.zeros(0)
    xtx, xtr, rtr, p0, pi = _sweep_terms(r, x, spike_slab)

    log_weights = np.empty(2**j_total)
    members = np.zeros((2**j_total, j_total), dtype=bool)
    for code in range(2**j_total):
        active = np.array([j for j in range(j_total) if code >> j & 1], dtype=np.int64)
        members[code, active] = True
        lm = _log_marginal(active, xtx, xtr, rtr, p0, n, obs_var_prior)
        log_prior = active.size * np.log(pi) + (j_total - active.size) * np.log1p(-pi)
        log_weights[code] = lm + log_prior
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    weights /= weights.sum()
    return members.T @ weights
